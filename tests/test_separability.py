"""One separability rule: the halo check and the SVD oracle under one tolerance.

A state psi is separable when some product state w has
||psi - lam w|| <= tau ||psi|| with tau = FACTOR_SV_RTOL.  These seeded
property tests draw near-product states psi = p + eps * g with
eps = 10**U(-12, -4), so that draws fall on both sides of tau.
"""

import numpy as np
import pytest

from qubitflow import (
    Polynomial,
    QubitState,
    RationalField,
    factor_out_qubit,
    factorizable_qubits,
    field_separability,
    is_separable_geometric,
    is_separable_tensor,
    make_basis_state,
    make_named_state,
    make_position_config,
    position_map,
    qft,
    tensor,
)
from qubitflow.states import FACTOR_SV_RTOL as TAU


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def random_product(rng, n):
    st = random_state(rng, 1)
    for _ in range(n - 1):
        st = tensor(st, random_state(rng, 1))
    return st


def near_product(rng, n):
    eps = 10.0 ** rng.uniform(-12.0, -4.0)
    amps = random_product(rng, n).amplitudes + eps * random_state(rng, n).amplitudes
    return QubitState(n, amps).normalized()


def largest_schmidt_ratio(st):
    tensor_amps = st.amplitudes.reshape((2,) * st.n)
    ratios = []
    for axis in range(st.n):
        s = np.linalg.svd(np.moveaxis(tensor_amps, axis, 0).reshape(2, -1), compute_uv=False)
        ratios.append(s[1] / s[0])
    return max(ratios)


def witness_residual(st, witness):
    w = np.ones(1, dtype=complex)
    for alpha, beta in witness:
        w = np.kron(w, [alpha, beta])
    psi = st.amplitudes
    lam = np.vdot(w, psi) / np.vdot(w, w)
    return np.linalg.norm(psi - lam * w) / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_near_products_get_one_verdict(n):
    rng = np.random.default_rng(100 + n)
    cfg = make_position_config(n)
    outside_band = 0
    for _ in range(16):
        st = near_product(rng, n)
        geo, witness = is_separable_geometric(st, cfg)
        assert geo == is_separable_tensor(st)
        ratio = largest_schmidt_ratio(st)
        if not TAU / n < ratio <= TAU:
            outside_band += 1
            assert geo == (ratio <= TAU)
        if geo:
            assert len(witness) == n
            assert witness_residual(st, witness) <= TAU
        else:
            assert witness == ()
    assert outside_band >= 12


@pytest.mark.parametrize("n, d", [(3, 1), (4, 2)])
def test_dependent_bases_keep_products_separable(n, d):
    # these bases are dependent (rank 6 of 8 and 14 of 16), so a field does
    # not fix its state; the recovery must pick the state nearest the halos
    rng = np.random.default_rng(10 * n + d)
    cfg = make_position_config(n, d)
    for _ in range(6):
        assert is_separable_geometric(random_product(rng, n), cfg)[0]
        assert not is_separable_geometric(random_state(rng, n), cfg)[0]


def test_numerator_outside_the_basis_span_is_not_separable():
    cfg = make_position_config(2)
    spec = ((-1 + 0j, 1), (1 + 0j, 1))
    cube = Polynomial([0, 0, 0, 1])
    assert field_separability(RationalField(cube, spec), cfg) == (False, ())
    # z**3 is orthogonal to every basis numerator; a small multiple of it
    # leaves the halos of a product in place but the field belongs to no state
    plus = QubitState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    product = position_map(tensor(plus, plus), cfg).numerator
    assert field_separability(RationalField(product, spec), cfg)[0]
    assert field_separability(RationalField(product + cube.scale(1e-6), spec), cfg) == (False, ())


def collapsed_product(rng, n):
    """A seeded product whose qubit j, drawn at random, is exactly e^{i theta}|1>."""
    qubits = [random_state(rng, 1) for _ in range(n)]
    qubits[rng.integers(n)] = QubitState(1, np.array([0.0, np.exp(2j * np.pi * rng.random())]))
    st = qubits[0]
    for q in qubits[1:]:
        st = tensor(st, q)
    return st


@pytest.mark.parametrize("n", [2, 3, 4])
def test_collapsed_qubits_read_as_products(n):
    # the 2d zeros of a collapsed qubit sit on its center, and count there however
    # roundoff scatters their approximations
    cfg = make_position_config(n)
    rng = np.random.default_rng([26, n])
    phased = [QubitState(n, np.exp(0.3j) * np.eye(2**n)[i]) for i in range(2**n)]
    for st in phased + [collapsed_product(rng, n) for _ in range(200)]:
        assert is_separable_tensor(st)
        assert is_separable_geometric(st, cfg)[0]


@pytest.mark.xfail(
    strict=True,
    reason="QFT(QFT|b>) is |b> plus roundoff amplitudes near 1e-16, which the SVD oracle "
    "calls separable; the halo check does not: for |000> every halo reads at-infinity, with "
    "15 zeros left at |z| ~ 8, and for |011> the 6-fold zeros of a center split into a ring "
    "of radius ~4e-3, too wide for N's roundoff bound to count them on the center, so its halo "
    "reads absent (5 of 8 states at n = 3, 11 of 16 at n = 4)",
)
@pytest.mark.parametrize("n", [3, 4])
def test_qft_squared_basis_states_read_as_products(n):
    cfg = make_position_config(n)
    disagree = []
    for index in range(2**n):
        bits = format(index, f"0{n}b")
        st = qft(qft(make_basis_state(n, bits)))
        assert is_separable_tensor(st)
        if not is_separable_geometric(st, cfg)[0]:
            disagree.append(bits)
    assert disagree == []


@pytest.mark.xfail(
    strict=True,
    reason="Polynomial trims leading coefficients below 1e-14 of the largest, "
    "deleting two real zeros of this skewed product's numerator",
)
def test_skewed_product_keeps_its_zeros():
    q = QubitState(1, np.array([1.0, 1e-5]))
    st = tensor(tensor(q, q), q)
    cfg = make_position_config(3)
    assert is_separable_tensor(st)
    assert position_map(st, cfg).numerator.degree == 18
    assert is_separable_geometric(st, cfg)[0]


@pytest.mark.xfail(
    strict=True,
    reason="with centres near 1e8 the basis numerators reach 1e48: Polynomial's relative trim "
    "cuts each to degree <= 1 and RANK_RTOL against those entries leaves rank 1 of 8, a span "
    "that no longer holds the field of |000>",
)
def test_far_centre_basis_state_reads_as_a_product():
    cfg = make_position_config(3, 1, (1e8, 1e8j, -1e8))
    st = make_basis_state(3, "000")
    assert is_separable_tensor(st)
    assert field_separability(position_map(st, cfg), cfg)[0]


def peel_oracle(st):
    """Reference: peel rank-1 factors one qubit at a time, then apply the one rule."""
    factors, rest = [], st.amplitudes
    for _ in range(st.n - 1):
        u, s, vh = np.linalg.svd(rest.reshape(2, -1), full_matrices=False)
        factors.append(u[:, 0])
        rest = s[0] * vh[0]
    w = np.ones(1, dtype=complex)
    for q in factors + [rest]:
        w = np.kron(w, q)
    psi = st.amplitudes
    return bool(np.linalg.norm(psi - np.vdot(w, psi) / np.vdot(w, w) * w) <= TAU * np.linalg.norm(psi))


def ratio_factorizable(st):
    """Reference: the qubits whose cut has Schmidt ratio s1 / s0 <= tau."""
    if st.n == 1:
        return (1,)
    tensor_amps = st.amplitudes.reshape((2,) * st.n)
    out = []
    for axis in range(st.n):
        s = np.linalg.svd(np.moveaxis(tensor_amps, axis, 0).reshape(2, -1), full_matrices=False)[1]
        if s[1] <= TAU * s[0]:
            out.append(axis + 1)
    return tuple(out)


def skewed_product(rng, n):
    """A seeded product whose qubits have |beta / alpha| = 10**U(-7, 7) and random phases."""
    ratios = 10.0 ** rng.uniform(-7.0, 7.0, size=n)
    qubits = [QubitState(1, np.exp(2j * np.pi * rng.random(2)) * [1.0, r]) for r in ratios]
    st = qubits[0]
    for q in qubits[1:]:
        st = tensor(st, q)
    return st


FAMILIES = {"product": random_product, "near": near_product, "skew": skewed_product, "generic": random_state}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_per_cut_witness_and_rule_match_the_references(family, n):
    # the HOSVD witness decides as peeling did, and the residual rule s1 <= tau ||s||
    # as the ratio rule s1 <= tau s0 did, off an ulp-wide band at the threshold
    rng = np.random.default_rng([30, n, sorted(FAMILIES).index(family)])
    for _ in range(100):
        st = FAMILIES[family](rng, n)
        assert is_separable_tensor(st) == peel_oracle(st)
        assert factorizable_qubits(st) == ratio_factorizable(st)


@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
def test_per_qubit_answers_agree_at_the_threshold(side):
    # a 2-qubit state whose cut has s1 / s0 = tau (1 -+ 1e-3), turned by seeded local unitaries
    rng = np.random.default_rng(31)
    u1, u2 = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2))
    st = QubitState(2, np.kron(u1, u2) @ np.array([1.0, 0.0, 0.0, TAU * side])).normalized()
    split = side < 1
    for target in (1, 2):
        if split:
            factor_out_qubit(st, target)
        else:
            with pytest.raises(ValueError, match="entangled"):
                factor_out_qubit(st, target)
    assert factorizable_qubits(st) == ((1, 2) if split else ())
    assert is_separable_tensor(st) == split


def scale_cases():
    rng = np.random.default_rng(32)
    products = [random_product(rng, n) for n in (2, 3, 4)]
    near = QubitState(3, random_product(rng, 3).amplitudes + 1e-12 * random_state(rng, 3).amplitudes)
    return [make_named_state("bell00+", 2), make_named_state("ghz", 3), *products, near.normalized()]


@pytest.mark.parametrize("k", [-900, -600, -200, 200, 600, 900])
@pytest.mark.parametrize("index", range(6))
def test_verdicts_and_normalized_bits_do_not_depend_on_scale(index, k):
    # every nonzero part of 2**k psi stays a normal float, so the scale-free rule
    # must read it as psi, and normalizing it must give the same bits
    st = scale_cases()[index]
    scaled = QubitState(st.n, st.amplitudes * 2.0**k)
    cfg = make_position_config(st.n)
    assert is_separable_tensor(scaled) == is_separable_tensor(st)
    assert factorizable_qubits(scaled) == factorizable_qubits(st)
    assert is_separable_geometric(scaled, cfg)[0] == is_separable_geometric(st, cfg)[0]
    assert scaled.normalized().amplitudes.tobytes() == st.normalized().amplitudes.tobytes()
