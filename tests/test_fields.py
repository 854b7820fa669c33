"""Charge/position maps, field evaluation, independence checks, and bounds."""

import itertools
import math

import numpy as np
import pytest

from qubitflow import (
    LaurentField,
    PoleEvaluationError,
    QubitState,
    RationalField,
    RepresentationConfig,
    charge_basis_fields,
    charge_map,
    check_linear_independence,
    circle_inner_product,
    derivative_eval,
    eval_field,
    evaluation_matrix,
    exponent,
    field_from_dict,
    laurent_mul,
    make_basis_state,
    make_charge_config,
    make_position_config,
    necessary_charge_bound,
    nonsingularity_gap,
    position_basis_fields,
    position_map,
    sample_grid,
    stereographic_project,
    sufficient_charge_bound,
    tensor,
    ternary_exponent,
    wronskian_matrix,
)
from qubitflow.polynomials import Polynomial
from qubitflow.states import bits_of_index


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def test_exponent_two_qubit_table():
    assert exponent("00", 3) == -4
    assert exponent("01", 3) == 2
    assert exponent("10", 3) == -2
    assert exponent("11", 3) == 4


def test_exponent_offset_shifts_digits():
    assert exponent("01", 3, offset=2) == 9 * exponent("01", 3)
    assert exponent("1", 2, offset=3) == 8


def test_exponent_validation():
    with pytest.raises(ValueError):
        exponent("", 3)
    with pytest.raises(ValueError):
        exponent("02", 3)
    with pytest.raises(ValueError):
        exponent("01", 0)


def test_exponent_injective_for_d_at_least_two():
    for d in (2, 3):
        for n in range(1, 11):
            seen = {exponent(bits_of_index(i, n), d) for i in range(2**n)}
            assert len(seen) == 2**n, (d, n)


def test_exponent_collides_for_d_one():
    assert exponent("01", 1) == exponent("10", 1) == 0


def test_ternary_exponent_collision():
    assert ternary_exponent("20", 2) == -1
    assert ternary_exponent("01", 2) == -1
    assert exponent("10", 2) == -1
    with pytest.raises(ValueError):
        ternary_exponent("11", 2)
    with pytest.raises(ValueError):
        ternary_exponent("3", 2)


def test_charge_map_bell():
    bell = QubitState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    f = charge_map(bell)
    assert set(f.terms) == {-4, 4}
    assert abs(f.terms[4] - 1 / np.sqrt(2)) < 1e-15


def test_charge_map_merges_colliding_exponents():
    st = QubitState(2, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2))
    f = charge_map(st, d=1)  # both monomials are z^0 and cancel
    assert f.is_zero()


def test_position_map_basis_states():
    cfg = make_position_config(2)
    f = position_map(make_basis_state(2, "00"), cfg)
    assert np.array_equal(f.numerator.coeffs, [1])
    assert f.denominator_spec == ((-1 + 0j, 1), (1 + 0j, 1))
    f = position_map(make_basis_state(2, "11"), cfg)
    # (z+1)^2 (z-1)^2 = z^4 - 2z^2 + 1
    assert np.allclose(f.numerator.coeffs, [1, 0, -2, 0, 1])


def test_position_default_configurations():
    assert make_position_config(1).defects == (0j,)
    assert make_position_config(2).d == 1
    cfg3 = make_position_config(3)
    assert cfg3.d == 3 and cfg3.defects == (-1 + 0j, 1j, 1 + 0j)
    cfg4 = make_position_config(4)
    assert cfg4.d == 3 and cfg4.defects == (-1 + 0j, 1j, 1 + 0j, -1j)
    with pytest.raises(ValueError):
        make_position_config(5)  # needs an explicit exponent
    with pytest.raises(ValueError):
        make_position_config(2, 1, (1.0, 1.0))  # repeated defect


def test_dependent_configuration_still_constructs():
    cfg = make_position_config(3, d=1)
    assert cfg.d == 1
    ok, rank = check_linear_independence(position_basis_fields(cfg))
    assert not ok and rank == 6


def test_eval_field_conventions():
    f = LaurentField({-1: 1.0})
    val, (u, v) = eval_field(f, 1j)
    assert abs(val + 1j) < 1e-15
    assert abs(u) < 1e-15 and abs(v - 1.0) < 1e-15
    val, (u, v) = eval_field(f, 1.0)
    assert (u, v) == (1.0, 0.0)


def test_eval_field_at_pole_raises():
    with pytest.raises(PoleEvaluationError):
        eval_field(LaurentField({-2: 1.0}), 0.0)
    f = RationalField(Polynomial([1.0]), ((1 + 0j, 1),))
    with pytest.raises(PoleEvaluationError) as exc:
        eval_field(f, 1.0)
    assert exc.value.pole == 1


def test_map_linearity():
    rng = np.random.default_rng(17)
    cfg = make_position_config(3)
    for _ in range(5):
        a, b = random_state(rng, 3), random_state(rng, 3)
        ca, cb = rng.normal(size=2) + 1j * rng.normal(size=2)
        mixed = QubitState(3, ca * a.amplitudes + cb * b.amplitudes)
        lhs = position_map(mixed, cfg).numerator
        rhs = (
            position_map(a, cfg).numerator.scale(ca)
            + position_map(b, cfg).numerator.scale(cb)
        )
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
        lhs_c = charge_map(mixed)
        rhs_a, rhs_b = charge_map(a), charge_map(b)
        for e in set(lhs_c.terms) | set(rhs_a.terms) | set(rhs_b.terms):
            want = ca * rhs_a.terms.get(e, 0) + cb * rhs_b.terms.get(e, 0)
            assert abs(lhs_c.terms.get(e, 0) - want) < 1e-10


def test_charge_map_respects_tensor_products():
    rng = np.random.default_rng(29)
    d = 3
    a, b = random_state(rng, 1), random_state(rng, 2)
    joint = charge_map(tensor(a, b), d)
    fa = charge_map(a, d)
    fb = charge_map(b, d)
    fb_shifted = LaurentField({c * d: amp for c, amp in fb.terms.items()})
    prod = laurent_mul(fa, fb_shifted)
    assert set(joint.terms) == set(prod.terms)
    for e, amp in joint.terms.items():
        assert abs(amp - prod.terms[e]) < 1e-12


def test_position_map_respects_tensor_products():
    rng = np.random.default_rng(31)
    cfg_ab = RepresentationConfig("position", 2, 1, (-1 + 0j, 1 + 0j))
    cfg_a = RepresentationConfig("position", 1, 1, (-1 + 0j,))
    cfg_b = RepresentationConfig("position", 1, 1, (1 + 0j,))
    for _ in range(5):
        a, b = random_state(rng, 1), random_state(rng, 1)
        f_ab = position_map(tensor(a, b), cfg_ab)
        f_a = position_map(a, cfg_a)
        f_b = position_map(b, cfg_b)
        for z in 0.3 + 0.4j, -1.7j, 2.2 + 0.1j:
            lhs, _ = eval_field(f_ab, z)
            va, _ = eval_field(f_a, z)
            vb, _ = eval_field(f_b, z)
            assert abs(lhs - va * vb) <= 1e-10 * max(1.0, abs(va * vb))


def test_laurent_mul():
    f = laurent_mul(LaurentField({-1: 2.0, 1: 1.0}), LaurentField({1: 3.0}))
    assert f.terms == {0: 6.0, 2: 3.0}


def test_check_linear_independence_charge():
    ok, rank = check_linear_independence(charge_basis_fields(2, 2))
    assert ok and rank == 4
    ok, rank = check_linear_independence(charge_basis_fields(2, 1))
    assert not ok and rank == 3  # "01" and "10" collide at d=1


def test_variable_particle_families():
    def family(n, d):
        flds = []
        for tau in itertools.product("012", repeat=n):
            if set(tau) == {"1"}:
                continue
            flds.append(LaurentField({ternary_exponent("".join(tau), d): 1.0}))
        return flds

    ok, rank = check_linear_independence(family(2, 2))
    assert not ok and rank == 6
    ok, rank = check_linear_independence(family(2, 3))
    assert ok and rank == 8


def test_evaluation_matrix_and_gap():
    cfg = make_position_config(2)
    m = evaluation_matrix(cfg, (0j, 1j, 2j, 3j))
    assert m.shape == (4, 4)
    assert nonsingularity_gap(m) >= 1e-6
    # Repeating a point forces singularity.
    m2 = evaluation_matrix(cfg, (0j, 0j, 2j, 3j))
    assert nonsingularity_gap(m2) < 1e-12


def test_gap_is_scale_invariant():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    scaled = np.diag(10.0 ** rng.integers(-8, 8, size=6)) @ m
    assert abs(nonsingularity_gap(m) - nonsingularity_gap(scaled)) < 1e-8


def test_charge_bounds():
    assert sufficient_charge_bound(1) == 14**2 * 1 + 1
    assert sufficient_charge_bound(2) == 14**4 * 2 + 1
    assert sufficient_charge_bound(3) == 14**8 * 3 + 1
    assert [necessary_charge_bound(n) for n in (1, 2, 3)] == [1, 1, 2]
    for n in range(1, 9):
        assert necessary_charge_bound(n) <= sufficient_charge_bound(n)
    with pytest.raises(ValueError):
        necessary_charge_bound(0)
    with pytest.raises(ValueError):
        sufficient_charge_bound(0)


def test_necessary_bound_matches_counting_argument():
    # Smallest d such that every k-subset of qubits has enough distinct
    # charges to fit inside the degree window 2kd+1.
    for n in range(1, 9):
        d = necessary_charge_bound(n)
        for k in range(1, n + 1):
            states = sum(math.comb(n, k2) for k2 in range(1, k + 1))
            assert 2 * k * d + 1 >= states + 1
        assert any(
            2 * k * (d - 1) + 1 < sum(math.comb(n, k2) for k2 in range(1, k + 1)) + 1
            for k in range(1, n + 1)
        ) or d == 1


def test_field_json_round_trips():
    f = LaurentField({-4: 1 / np.sqrt(2), 4: 0.5j})
    back = field_from_dict(f.to_dict())
    assert isinstance(back, LaurentField)
    assert back.terms == f.terms
    cfg = make_position_config(3)
    g = position_map(make_basis_state(3, "101"), cfg)
    back = field_from_dict(g.to_dict())
    assert isinstance(back, RationalField)
    assert np.allclose(back.numerator.coeffs, g.numerator.coeffs)
    assert back.denominator_spec == g.denominator_spec
    with pytest.raises(ValueError):
        field_from_dict({"type": "mystery"})


def test_config_validation():
    with pytest.raises(ValueError):
        RepresentationConfig("position", 2, 0, (-1 + 0j, 1 + 0j))
    with pytest.raises(ValueError):
        RepresentationConfig("banana", 2, 1, (-1 + 0j, 1 + 0j))
    with pytest.raises(ValueError):
        position_map(make_basis_state(2, "00"), make_charge_config(2))
    with pytest.raises(ValueError):
        position_map(make_basis_state(3, "000"), make_position_config(2))


_F01 = charge_map(make_basis_state(2, "01"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LaurentField({1.5: 1.0}), "Laurent exponent must be an integer, got 1.5"),
        (lambda: LaurentField({2.0: 1.0}), "Laurent exponent must be an integer, got 2.0"),
        (lambda: LaurentField({1.5: 0.0}), "Laurent exponent must be an integer, got 1.5"),
        (lambda: RationalField(Polynomial([1.0]), ((0j, 1.7),)), "pole order must be an integer, got 1.7"),
        (lambda: make_charge_config(2, 2.5), "d must be an integer, got 2.5"),
        (lambda: charge_map(make_basis_state(2, "01"), 2.5), "d must be an integer, got 2.5"),
        (lambda: RepresentationConfig("position", 2, 1.5, (1, -1)), "d must be an integer, got 1.5"),
        (lambda: RepresentationConfig("charge", 2.0, 3), "n must be an integer, got 2.0"),
        (lambda: exponent("01", 2.5), "d must be an integer, got 2.5"),
        (lambda: exponent("01", 3, 0.5), "offset must be an integer, got 0.5"),
        (lambda: ternary_exponent("02", 3.0), "d must be an integer, got 3.0"),
        (lambda: RepresentationConfig("charge", True, 3), "n must be an integer, got True"),
        (lambda: make_charge_config(2, True), "d must be an integer, got True"),
        (lambda: LaurentField({True: 1.0}), "Laurent exponent must be an integer, got True"),
        (lambda: LaurentField({2: 1.0, np.True_: 1.0}), "Laurent exponent must be an integer, got np.True_"),
        (lambda: RationalField(Polynomial([1.0]), ((0j, True),)), "pole order must be an integer, got True"),
        (lambda: exponent("01", True), "d must be an integer, got True"),
        (lambda: ternary_exponent("02", True), "d must be an integer, got True"),
        (lambda: sufficient_charge_bound(2.0), "n must be an integer, got 2.0"),
        (lambda: necessary_charge_bound(True), "n must be an integer, got True"),
        (lambda: circle_inner_product(_F01, _F01, nodes=9.5), "nodes must be an integer, got 9.5"),
        (lambda: circle_inner_product(_F01, _F01, nodes="9"), "nodes must be an integer, got '9'"),
        (lambda: wronskian_matrix([_F01], 0.5, order=2.7), "order must be an integer, got 2.7"),
        (lambda: derivative_eval(_F01, 0.5, 2.5), "max_order must be an integer, got 2.5"),
        (lambda: derivative_eval(_F01, 0.5, True), "max_order must be an integer, got True"),
        (lambda: sample_grid(_F01, (-2, 2, -2, 2), (2.9, 3)), "nx must be an integer, got 2.9"),
        (lambda: stereographic_project(_F01, (2.9, 3.0)), "n_theta must be an integer, got 2.9"),
        (lambda: nonsingularity_gap(np.eye(2), 2.5), "sweeps must be an integer, got 2.5"),
    ],
    ids=["laurent", "laurent-whole-float", "laurent-zero-term", "pole-order", "charge-config", "charge-map",
         "position-config", "config-n", "exponent-d", "exponent-offset", "ternary-d", "config-n-bool",
         "charge-config-bool", "laurent-bool", "laurent-numpy-bool", "pole-order-bool", "exponent-d-bool",
         "ternary-d-bool", "sufficient-bound-float", "necessary-bound-bool", "circle-nodes-float",
         "circle-nodes-str", "wronskian-order", "derivative-order", "derivative-order-bool", "grid-resolution",
         "sphere-resolution", "gap-sweeps"],
)
def test_counts_exponents_and_pole_orders_must_be_integers(build, message):
    # before, int() truncated each of these silently: charge_map(|01>, 2.5) gave {1: 1}; and
    # operator.index read True as 1, so make_charge_config(2, True) had d = 1
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("d", [3.0, True])
def test_charge_map_checks_d_even_where_an_equal_int_is_cached(d):
    state = make_basis_state(2, "01")
    charge_map(state, int(d))  # lru_cache keys 3.0 and True like 3 and 1 unless typed
    with pytest.raises(ValueError, match=f"d must be an integer, got {d!r}"):
        charge_map(state, d)


def test_numpy_integers_stay_accepted():
    i64, i32 = np.int64, np.int32
    cfg = RepresentationConfig("position", i64(2), i32(1), (1, -1))
    assert (cfg.n, cfg.d) == (2, 1) and type(cfg.n) is int and type(cfg.d) is int
    assert cfg == RepresentationConfig("position", 2, 1, (1, -1))
    assert hash(cfg) == hash(RepresentationConfig("position", 2, 1, (1, -1)))
    assert dict(LaurentField({i64(3): 1.0}).terms) == {3: 1.0}
    assert RationalField(Polynomial([1.0]), ((0j, i32(2)),)).denominator_spec == ((0j, 2),)
    assert dict(charge_map(make_basis_state(2, "01"), i64(3)).terms) == {2: 1.0}
    assert exponent("01", i64(3), i32(1)) == 6 and ternary_exponent("02", i64(3)) == 2


def test_non_finite_field_input_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        LaurentField({1: complex(np.nan, 0.0)})
    with pytest.raises(ValueError, match="non-finite"):
        field_from_dict({"type": "laurent", "terms": [[1, [np.nan, 0.0]]]})
    with pytest.raises(ValueError, match="non-finite"):
        field_from_dict(
            {"type": "rational", "numerator": [[np.nan, 0.0], [1.0, 0.0]], "defects": [[0, 0]], "d": 1}
        )
    with pytest.raises(ValueError, match="non-finite"):
        field_from_dict(
            {"type": "rational", "numerator": [[1.0, 0.0]], "defects": [[np.inf, 0]], "d": 1}
        )
    with pytest.raises(ValueError, match="'nan'"):
        field_from_dict({"type": "laurent", "terms": [[1, ["nan", 0]]]})
    # a JSON integer only: no float, bool or string rounded to one, and no exponent twice
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="Laurent exponent must be an integer"):
            field_from_dict({"type": "laurent", "terms": [[bad, [1.0, 0.0]]]})
    with pytest.raises(ValueError, match="d must be an integer"):
        field_from_dict({"type": "rational", "numerator": [[1.0, 0.0]], "defects": [[0, 0]], "d": 1.7})
    with pytest.raises(ValueError, match="repeated Laurent exponent"):
        field_from_dict({"type": "laurent", "terms": [[1, [1.0, 0.0]], [1, [2.0, 0.0]]]})
