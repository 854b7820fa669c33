"""One cached basis per configuration.

The basis lists read it bit for bit.  The position map is N = M psi, summed
down the rows in index order and trimmed once; it is checked against the
per-call sum of ``Polynomial`` terms, kept below as the reference.
"""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from qubitflow import (
    GATES,
    LaurentField,
    QubitState,
    RationalField,
    RepresentationConfig,
    apply_gate,
    basis_fields,
    charge_basis_fields,
    charge_map,
    cphase,
    defects,
    exponent,
    fields,
    make_basis_state,
    make_charge_config,
    make_named_state,
    make_position_config,
    position_basis_fields,
    position_map,
    qft,
)
from qubitflow.cli import main
from qubitflow.polynomials import TRIM_REL_TOL, Polynomial
from qubitflow.states import bits_of_index


# ---- the per-call construction the cache replaced, kept as the reference


def reference_charge_map(state, d):
    terms = {}
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        c = exponent(bits_of_index(idx, state.n), d)
        terms[c] = terms.get(c, 0.0) + amp
    return LaurentField(terms)


def reference_position_map(state, cfg):
    total = Polynomial([0.0])
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        bits = bits_of_index(idx, state.n)
        factors = [(cfg.defects[j], 2 * cfg.d) for j, b in enumerate(bits) if b == "1"]
        total = total + Polynomial.from_linear_factors(factors).scale(amp)
    return RationalField(total, tuple((a, cfg.d) for a in cfg.defects))


def reference_charge_basis(n, d):
    return [LaurentField({exponent(bits_of_index(i, n), d): 1.0}) for i in range(2**n)]


def reference_position_basis(cfg):
    return [
        reference_position_map(make_basis_state(cfg.n, bits_of_index(i, cfg.n)), cfg)
        for i in range(2**cfg.n)
    ]


# ---- bitwise comparison: int64 views, so that signed zeros count


def bits(values) -> list:
    return np.asarray(values, dtype=complex).view(np.int64).tolist()


def field_bits(f):
    if isinstance(f, LaurentField):
        return sorted((c, bits([a])) for c, a in f.terms.items())
    spec = [(bits([a]), m) for a, m in f.denominator_spec]
    return bits(f.numerator.coeffs), spec


def assert_same_fields(got, want):
    assert [type(f) for f in got] == [type(f) for f in want]
    assert [field_bits(f) for f in got] == [field_bits(f) for f in want]


# ---- seeded states


def _normalized(v):
    return v / np.linalg.norm(v)


def seeded_states(rng, n):
    out = [QubitState(n, _normalized(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))) for _ in range(3)]
    for skew in (False, True):
        amps = np.ones(1, dtype=complex)
        for _ in range(n):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            if skew:
                q[1] *= 10 ** rng.uniform(-8, -2)
            amps = np.kron(amps, q)
        out.append(QubitState(n, _normalized(amps)))
    st = qft(make_basis_state(n, "".join(str(b) for b in rng.integers(0, 2, n))))
    for gate in ("H", "T", "X", "S"):
        st = apply_gate(st, GATES[gate], [int(rng.integers(1, n + 1))])
    if n >= 2:
        st = apply_gate(st, cphase(0.7), [1, 2])
    out.append(st)
    amps = out[0].amplitudes.copy()
    amps[rng.integers(0, 2**n)] = 0.0
    out.append(QubitState(n, amps))
    out.append(make_basis_state(n, "1" * n))
    return out


def position_configs(rng, n):
    return [
        make_position_config(n),
        make_position_config(n, 2),
        make_position_config(n, 1 + n % 3, tuple(rng.normal(size=n) + 1j * rng.normal(size=n))),
        make_position_config(n, 2, tuple(complex(-0.0, k) for k in range(n))),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maps_and_basis_lists_match_the_per_call_construction_bitwise(n):
    # the basis lists and the charge map bit for bit; the position map to the contract of
    # assert_maps_like_the_reference, at the reference's degree
    rng = np.random.default_rng(800 + n)
    cfgs = position_configs(rng, n)
    for cfg in cfgs:
        want = reference_position_basis(cfg)
        assert_same_fields(position_basis_fields(cfg), want)
        assert_same_fields(basis_fields(cfg), want)
    for d in (1, 2, 3):
        want = reference_charge_basis(n, d)
        assert_same_fields(charge_basis_fields(n, d), want)
        assert_same_fields(basis_fields(make_charge_config(n, d)), want)
    for state in seeded_states(rng, n):
        for cfg in cfgs:
            got, want = assert_maps_like_the_reference(state, cfg)
            assert got.numerator.degree == want.numerator.degree
        for d in (1, 2, 3):
            assert field_bits(charge_map(state, d)) == field_bits(reference_charge_map(state, d))


def test_one_shared_basis_per_configuration():
    cfg = make_position_config(3)
    first, second = basis_fields(cfg), basis_fields(cfg)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    assert all(a is b for a, b in zip(position_basis_fields(cfg), first))
    assert defects._basis is fields._basis  # no second cache
    # the certificate and the Gram context read one M, cached with the fields
    rec = fields._basis(cfg).recovery
    assert rec is fields._basis(make_position_config(3)).recovery
    assert np.array_equal(rec.matrix, fields._numerator_rows(first).T)
    assert not rec.matrix.flags.writeable and not rec.pinv.flags.writeable


def test_mutating_a_returned_basis_list_changes_no_later_result():
    cfg = make_position_config(2)
    state = QubitState(2, np.array([0.5, 0.5j, -0.5, 0.5]))
    before = field_bits(position_map(state, cfg))
    listed = basis_fields(cfg)
    listed.reverse()
    listed[0] = listed[1]
    listed.append(None)
    assert_same_fields(basis_fields(cfg), reference_position_basis(cfg))
    assert field_bits(position_map(state, cfg)) == before

    charge = charge_basis_fields(2, 3)
    charge.clear()
    assert_same_fields(charge_basis_fields(2, 3), reference_charge_basis(2, 3))
    assert field_bits(charge_map(state, 3)) == field_bits(reference_charge_map(state, 3))


def test_shared_basis_fields_cannot_be_changed():
    cfg = make_position_config(2)
    state = QubitState(2, np.array([0.5, 0.5j, -0.5, 0.5]))
    before = field_bits(position_map(state, cfg))
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis_fields(cfg)[1].numerator = Polynomial([5.0])
    charge = charge_basis_fields(2, 3)[0]
    with pytest.raises(TypeError):
        charge.terms[7] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        charge.terms = {7: 1.0}
    assert field_bits(position_map(state, cfg)) == before
    assert field_bits(charge_map(state, 3)) == field_bits(reference_charge_map(state, 3))
    assert_same_fields(basis_fields(cfg), reference_position_basis(cfg))
    for f in (charge, basis_fields(cfg)[1]):
        assert field_bits(pickle.loads(pickle.dumps(f))) == field_bits(copy.deepcopy(f)) == field_bits(f)


@pytest.mark.parametrize("order", ["positive-first", "negative-first"])
def test_equal_configs_with_signed_zero_centers_keep_their_own_bytes(order):
    centers = {
        "positive": (0j, 1 + 0j),
        "negative": (complex(-0.0, -0.0), complex(1.0, -0.0)),
    }
    cfgs = {k: RepresentationConfig("position", 2, 2, c) for k, c in centers.items()}
    assert cfgs["positive"] == cfgs["negative"]
    assert hash(cfgs["positive"]) == hash(cfgs["negative"])
    keys = ["positive", "negative"] if order == "positive-first" else ["negative", "positive"]
    state = QubitState(2, np.array([0.6, 0.0, 0.0, 0.8j]))
    for key in keys:
        cfg = cfgs[key]
        assert_same_fields(basis_fields(cfg), reference_position_basis(cfg))
        got, want = assert_maps_like_the_reference(state, cfg)
        assert got.numerator.degree == want.numerator.degree
    negative_spec = basis_fields(cfgs["negative"])[0].denominator_spec
    assert np.signbit(negative_spec[0][0].real) and np.signbit(negative_spec[1][0].imag)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.inf), complex(-np.inf, np.nan)])
def test_config_rejects_a_non_finite_center_by_name(bad):
    with pytest.raises(ValueError, match=r"defect center .* is not finite"):
        RepresentationConfig("position", 2, 1, (bad, 1 + 0j))
    with pytest.raises(ValueError, match=r"defect center .* is not finite"):
        make_position_config(2, 1, (bad, 1 + 0j))


def test_config_distinct_centers_by_set():
    with pytest.raises(ValueError, match="distinct"):
        RepresentationConfig("position", 3, 1, (1j, -1 + 0j, 1j))
    with pytest.raises(ValueError, match="distinct"):
        RepresentationConfig("position", 2, 1, (0j, complex(-0.0, 0.0)))
    assert RepresentationConfig("position", 3, 1, (1j, -1 + 0j, 1 + 0j)).defects == (1j, -1 + 0j, 1 + 0j)


@pytest.mark.parametrize("command", ["map", "gram", "checkli"])
def test_cli_rejects_a_non_finite_center(tmp_path, capsys, command):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(make_basis_state(2, "01").to_dict()))
    argv = {"map": ["map", "--in", str(state)], "gram": ["gram", "--n", "2"], "checkli": ["checkli", "--n", "2"]}
    assert main(argv[command] + ["--defects", "nan", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: defect center (nan+0j) is not finite")


# ---- position_map is N = M psi trimmed once; the reference adds Polynomial terms


def trimmed_partial_sums(state, cfg):
    """Indices of the reference's partial sums that lose trailing coefficients to trimming."""
    total, trimmed = Polynomial([0.0]), []
    for idx, (amp, fld) in enumerate(zip(state.amplitudes, basis_fields(cfg))):
        if amp == 0:
            continue
        term = fld.numerator.scale(amp).coeffs
        raw = np.zeros(max(total.coeffs.size, term.size), dtype=complex)
        raw[: total.coeffs.size] += total.coeffs
        raw[: term.size] += term
        total = Polynomial(raw)
        if total.coeffs.size < raw.size:
            trimmed.append(idx)
    return trimmed


def trimmed_terms(state, cfg):
    """Indices of the reference's terms lambda_sigma * row_sigma that ``Polynomial`` trims."""
    return [
        idx
        for idx, (amp, fld) in enumerate(zip(state.amplitudes, basis_fields(cfg)))
        if amp != 0 and fld.numerator.scale(amp).coeffs.size < fld.numerator.coeffs.size
    ]


def magnitude_scale(state, cfg):
    """S = max_k sum_sigma |lambda_sigma| |row_sigma,k|, the scale of the sum's roundoff."""
    rows = fields._basis(cfg).rows
    return float((np.abs(state.amplitudes)[:, None] * np.abs(rows)).sum(axis=0).max())


def padded(*coeffs):
    out = np.zeros((len(coeffs), max(c.size for c in coeffs)), dtype=complex)
    for row, c in zip(out, coeffs):
        row[: c.size] = c
    return out


def assert_maps_like_the_reference(state, cfg):
    """|N - N_ref| <= 4 TRIM_REL_TOL S everywhere, and N == N_ref (np.array_equal, so up to
    the sign of a zero) where neither a term nor a partial sum of the reference trims; the
    denominator bit for bit.  Returns both fields for degree checks."""
    got, want = position_map(state, cfg), reference_position_map(state, cfg)
    assert field_bits(got)[1] == field_bits(want)[1]
    numer, ref = padded(got.numerator.coeffs, want.numerator.coeffs)
    assert np.abs(numer - ref).max() <= 4 * TRIM_REL_TOL * magnitude_scale(state, cfg)
    if not trimmed_partial_sums(state, cfg) and not trimmed_terms(state, cfg):
        assert np.array_equal(got.numerator.coeffs, want.numerator.coeffs)
    # the JSON form reads back to the same bits
    assert field_bits(fields.field_from_dict(json.loads(json.dumps(got.to_dict())))) == field_bits(got)
    return got, want


def test_a_qft_frame_whose_partial_sum_trims():
    # the third partial sum of QFT|100> cancels at the top, so the reference drops that
    # coefficient before the next term is added; the one final trim keeps degree 18 as well
    cfg, state = make_position_config(3), qft(make_basis_state(3, "100"))
    assert trimmed_partial_sums(state, cfg) == [2]
    got, want = assert_maps_like_the_reference(state, cfg)
    assert got.numerator.degree == want.numerator.degree == 18


def test_a_skewed_product_trims_its_last_sum():
    q = np.array([1.0, 1e-5])
    state, cfg = QubitState(3, np.kron(np.kron(q, q), q)), make_position_config(3)
    assert trimmed_partial_sums(state, cfg) == [7]
    got, want = assert_maps_like_the_reference(state, cfg)
    assert got.numerator.degree == want.numerator.degree == 16


def test_a_term_near_the_trim_bound_is_trimmed_before_it_is_added():
    # centers near 1e7 put the basis numerators' last kept coefficient within roundoff of
    # the trim bound, so scaling a row can trim it: the reference's Polynomial.scale does so
    # before adding, while N = M psi adds the whole row and trims once, at the same degree
    a = 9999999.999999987
    cfg = RepresentationConfig("position", 2, 1, (complex(a, 1e-3), complex(-a, 0.5)))
    amps = np.array([4.029 - 7.374j, -126.875 + 423.526j, -92.807 - 68.538j, 0.694 - 0.528j])
    rows = [f.numerator for f in basis_fields(cfg)]
    assert [r.scale(x).coeffs.size < r.coeffs.size for r, x in zip(rows, amps)] == [False, True, False, False]
    got, want = assert_maps_like_the_reference(QubitState(2, amps), cfg)
    assert got.numerator.degree == want.numerator.degree == 2


@pytest.mark.parametrize("defects", [None, (complex(-0.0, -1.0), complex(1.0, -0.0))])
def test_bell01_minus_cancels_its_top_coefficients_exactly(defects):
    cfg, state = make_position_config(2, 1, defects), make_named_state("bell01-", 2)
    assert trimmed_partial_sums(state, cfg) == [2]
    got, want = assert_maps_like_the_reference(state, cfg)
    assert got.numerator.degree == want.numerator.degree == 1


def test_signed_zero_parts_of_amplitudes_and_centers():
    rng = np.random.default_rng(17)
    cfgs = [make_position_config(2, 2, (complex(-0.0, 0.0), complex(1.0, -0.0))),
            make_position_config(3, 1, (complex(0.0, -0.0), complex(-0.0, 1.0), complex(-1.0, -0.0)))]
    for cfg in cfgs:
        for _ in range(20):
            x = np.round(rng.normal(size=2**cfg.n), 1)
            parts = rng.integers(0, 4, size=2**cfg.n)
            amps = [complex(-0.0 if p & 1 else v, -0.0 if p & 2 else v) for v, p in zip(x, parts)]
            got, want = assert_maps_like_the_reference(QubitState(cfg.n, np.array(amps)), cfg)
            assert got.numerator.degree == want.numerator.degree
    # the zero numerator comes out as +0.0, as Polynomial([0.0]) starts
    got = position_map(QubitState(1, np.array([complex(-0.0, -0.0)] * 2)), make_position_config(1))
    assert bits(got.numerator.coeffs) == bits([0j])


def test_a_partial_sum_that_cancels_to_zero_restarts_at_plus_zero():
    # subnormal terms round to the same coefficients, so |01> and |10> cancel exactly; the
    # reference restarts from Polynomial([0.0]), and N = M psi starts from the zero amplitude
    # of |00>, so both add the |11> term's -0.0 constant to +0.0
    tiny = 5e-324
    cfg, state = make_position_config(2, 1, (0.1 + 0j, 0.2 + 0j)), QubitState(2, np.array([0, tiny, -tiny, -tiny]))
    assert trimmed_partial_sums(state, cfg) == [2]
    got, want = assert_maps_like_the_reference(state, cfg)
    assert got.numerator.degree == want.numerator.degree == 4
    assert bits(got.numerator.coeffs[:1]) == bits([0j])


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ([[1e308, 0.0], [1e308, 0.0]], r"non-finite polynomial coefficient"),
        ([[1.5e308, 1.5e308], [0.0, 0.0]], r"polynomial coefficient .* overflows in modulus"),
    ],
)
def test_an_overflowing_amplitude_is_rejected(tmp_path, capsys, amplitudes, message):
    state = QubitState.from_dict({"n": 1, "amplitudes": amplitudes})
    cfg = make_position_config(1, 1, (1 + 1j,))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(state.to_dict()))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message) as got:
            position_map(state, cfg)
        with pytest.raises(ValueError, match=message):
            reference_position_map(state, cfg)
    # the CLI prints the one error line and no overflow warning
    assert main(["map", "--in", str(path), "--defects", "1+1j"]) == 2
    assert capsys.readouterr().err == f"error: {got.value}\n"


# ---- hard amplitude families: both maps read the basis' cached layout


def hard_states(rng, n):
    dim = 2**n
    yield QubitState(n, np.zeros(dim))
    yield QubitState(n, np.full(dim, complex(-0.0, -0.0)))
    x, parts = np.round(rng.normal(size=dim), 1), rng.integers(0, 4, size=dim)
    yield QubitState(n, np.array([complex(-0.0 if p & 1 else v, -0.0 if p & 2 else v) for v, p in zip(x, parts)]))
    for _ in range(4):
        yield QubitState(n, 10 ** rng.uniform(-8, 8, size=dim) * np.exp(2j * np.pi * rng.random(dim)))
    for i in range(dim):
        yield qft(qft(make_basis_state(n, bits_of_index(i, n))))


# QFT^2 of a basis state at n = 4 whose numerator keeps more degree than the reference's:
# {(basis index, index into position_configs): (reference degree, degree)}.  Its amplitudes
# are roundoff, so partial sums of the reference trim terms that N = M psi keeps whole; the
# kept coefficients are within the bound.  No other state changes degree.
QFT2_DEGREE_CHANGES = {
    4: {
        (0, 1): (9, 10), (6, 0): (12, 13), (8, 0): (12, 13), (8, 1): (4, 5), (11, 0): (12, 14),
        (12, 1): (4, 7), (14, 0): (13, 14), (14, 1): (6, 9), (15, 0): (12, 13), (15, 1): (4, 7),
    },
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maps_match_the_reference_on_hard_amplitude_families(n):
    rng = np.random.default_rng(900 + n)
    cfgs = position_configs(rng, n)
    trimmed, changes = 0, {}
    states = list(hard_states(rng, n))
    for idx, state in enumerate(states):
        for k, cfg in enumerate(cfgs):
            got, want = assert_maps_like_the_reference(state, cfg)
            trimmed += bool(trimmed_partial_sums(state, cfg))
            if got.numerator.degree != want.numerator.degree:
                changes[idx - len(states) + 2**n, k] = (want.numerator.degree, got.numerator.degree)
        for d in (1, 2, 3):
            assert field_bits(charge_map(state, d)) == field_bits(reference_charge_map(state, d))
    # QFT^2 of a basis state leaves roundoff amplitudes whose partial sums trim
    assert trimmed or n == 1
    assert changes == QFT2_DEGREE_CHANGES.get(n, {})
    # at d = 1 distinct bit strings share an exponent, so charge_map adds amplitudes
    exponents = [exponent(bits_of_index(i, n), 1) for i in range(2**n)]
    assert len(set(exponents)) < len(exponents) or n == 1


def test_charge_map_adds_signed_zeros_on_shared_exponents_like_the_reference():
    # |01> and |10> share exponent 0 at d = 1: (-0.0) + (-0.0) and x + (-x) both land on one term
    for amps in ([0, complex(-0.0, -0.0), complex(-0.0, -0.0), 1], [0, 0.5 - 0.25j, -0.5 + 0.25j, 1], [0, -0.0, 2.0, 0]):
        state = QubitState(2, np.array(amps, dtype=complex))
        assert field_bits(charge_map(state, 1)) == field_bits(reference_charge_map(state, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QubitState(0, [1.0]), "need at least one qubit"),
        (lambda: QubitState(2, np.ones(3)), "expected 4 amplitudes, got 3"),
        (lambda: QubitState(2, np.ones((2, 3))), "expected 4 amplitudes, got 6"),
        (lambda: QubitState(1, [1.0, np.nan]), "non-finite amplitude (nan+0j)"),
        (lambda: QubitState(1, [complex(1.0, np.inf), 0.0]), "non-finite amplitude (1+infj)"),
        (lambda: Polynomial(np.ones((2, 2))), "coefficients must be one-dimensional"),
        (lambda: Polynomial([[1.0]]), "coefficients must be one-dimensional"),
        (lambda: Polynomial([1.0, complex(np.nan, 1.0)]), "non-finite polynomial coefficient (nan+1j)"),
        (lambda: Polynomial([1.0, -np.inf]), "non-finite polynomial coefficient (-inf+0j)"),
        (
            lambda: Polynomial([complex(1.5e308, 1.5e308), 1.0]),
            "polynomial coefficient (1.5e+308+1.5e+308j) overflows in modulus",
        ),
    ],
)
def test_state_and_polynomial_keep_their_error_messages(build, message):
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as exc:
            build()
    assert str(exc.value) == message


def test_state_and_polynomial_copy_their_input_once_and_freeze_it():
    amps = np.arange(4.0).reshape(2, 2, order="F")
    assert bits(QubitState(2, amps).amplitudes) == bits(amps.reshape(-1))  # row-major, whatever the input order
    for amps in (np.arange(4, dtype=complex), np.arange(4, dtype=complex).reshape(2, 2)):
        state = QubitState(2, amps)
        amps.flat[0] = 9.0
        assert state.amplitudes[0] == 0 and not state.amplitudes.flags.writeable
    coeffs = np.array([1.0, 2.0, 1e-20], dtype=complex)
    poly = Polynomial(coeffs)
    coeffs[0] = 9.0
    assert bits(poly.coeffs) == bits([1.0, 2.0]) and not poly.coeffs.flags.writeable
    poly = Polynomial(coeffs[:2])
    coeffs[0] = 7.0
    assert bits(poly.coeffs) == bits([9.0, 2.0])
    # a trimmed polynomial holds its kept coefficients only, not the buffer it was cut from
    assert Polynomial(np.r_[1.0, np.zeros(1000)]).coeffs.base is None
    assert bits(Polynomial(5.0).coeffs) == bits([5.0])
    assert bits(Polynomial([]).coeffs) == bits(Polynomial([-0.0, 0.0]).coeffs) == bits([0j])
