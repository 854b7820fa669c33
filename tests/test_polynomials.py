"""Polynomial arithmetic, root finding, and derivative recurrences."""

import numpy as np
import pytest

from qubitflow import (
    LaurentField,
    PoleEvaluationError,
    Polynomial,
    QubitState,
    RationalField,
    RootFindingError,
    charge_map,
    derivative_eval,
    make_position_config,
    position_map,
    roots,
    tensor,
    wronskian_matrix,
)


def test_arithmetic_basics():
    p = Polynomial([1, 0, 1])  # 1 + z^2
    q = Polynomial([-1, 1])  # z - 1
    assert np.array_equal((p + q).coeffs, [0, 1, 1])
    assert np.array_equal((p - q).coeffs, [2, -1, 1])
    assert np.array_equal((p * q).coeffs, [-1, 1, -1, 1])
    assert p.degree == 2
    assert q.degree == 1
    assert p(2.0) == 5.0


def test_trailing_zeros_trimmed():
    p = Polynomial([1, 1]) + Polynomial([0, -1])
    assert np.array_equal(p.coeffs, [1])
    assert p.degree == 0


def test_zero_polynomial():
    z = Polynomial([0.0])
    assert z.is_zero()
    assert z.degree == -1
    assert (z * Polynomial([3, 1])).is_zero()


def test_from_linear_factors():
    p = Polynomial.from_linear_factors([(1.0, 2), (-1.0, 1)])
    # (z-1)^2 (z+1) = z^3 - z^2 - z + 1
    assert np.allclose(p.coeffs, [1, -1, -1, 1])
    assert np.array_equal(Polynomial.from_linear_factors([]).coeffs, [1])


def test_derivative():
    p = Polynomial([5, 0, 3, 2])  # 5 + 3z^2 + 2z^3
    assert np.array_equal(p.derivative().coeffs, [0, 6, 6])
    assert Polynomial([7]).derivative().is_zero()


def test_roots_simple_quadratic():
    rs = roots(Polynomial([2, 2, 1]))  # z^2 + 2z + 2 = (z+1)^2 + 1
    got = sorted(rs.roots, key=lambda rm: rm[0].imag)
    assert len(got) == 2
    assert abs(got[0][0] - (-1 - 1j)) < 1e-9 and got[0][1] == 1
    assert abs(got[1][0] - (-1 + 1j)) < 1e-9 and got[1][1] == 1


def test_roots_double_roots_cluster():
    p = Polynomial.from_linear_factors([(1.0, 2), (-2.0, 2), (0.5j, 1)])
    rs = roots(p)
    by_root = {}
    for r, m in rs.roots:
        key = min((-2.0, 1.0, 0.5j), key=lambda c: abs(c - r))
        assert abs(r - key) < 1e-6
        by_root[key] = m
    assert by_root == {1.0: 2, -2.0: 2, 0.5j: 1}
    assert rs.total_multiplicity() == 5


def test_roots_at_origin_exact():
    rs = roots(Polynomial([0, 0, 0, 1.0]))  # z^3
    assert rs.roots == ((0j, 3),)


def test_roots_residual_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = rng.integers(1, 9)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 2.0  # keep the leading coefficient away from zero
        p = Polynomial(coeffs)
        rs = roots(p)
        assert rs.total_multiplicity() == p.degree
        top = max(abs(c) for c in p.coeffs)
        for r, _m in rs.roots:
            assert abs(p(r)) <= 1e-8 * top * (1 + abs(r)) ** p.degree


def test_roots_of_product_union():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pr = rng.normal(size=rng.integers(2, 7)) + 1j * rng.normal(size=1)
        qr = rng.normal(size=rng.integers(2, 7)) + 1j * rng.normal(size=1)
        p = Polynomial.from_linear_factors([(r, 1) for r in pr])
        q = Polynomial.from_linear_factors([(r, 1) for r in qr])
        expected = sorted(np.concatenate([pr, qr]), key=lambda z: (z.real, z.imag))
        rs = roots(p * q)
        got = sorted(
            (r for r, m in rs.roots for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-6


def _random_state(rng, n, product):
    def amps(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if not product:
        return QubitState(n, amps(2**n))
    state = QubitState(1, amps(2))
    for _ in range(n - 1):
        state = tensor(state, QubitState(1, amps(2)))
    return state


def _charge_numerator(field):
    cmin = min(field.terms)
    coeffs = np.zeros(max(field.terms) - cmin + 1, dtype=complex)
    for c, a in field.terms.items():
        coeffs[c - cmin] = a
    return Polynomial(coeffs)


def _separated_roots(rng, degree, gap=0.1):
    found = []
    while len(found) < degree:
        r = complex(*rng.uniform(-2.0, 2.0, size=2))
        if all(abs(r - q) >= gap for q in found):
            found.append(r)
    return found


def test_roots_match_numpy_oracle():
    rng = np.random.default_rng(2202)
    random_polys = [
        Polynomial.from_linear_factors([(r, 1) for r in _separated_roots(rng, deg)])
        for deg in range(1, 31)
    ]
    family_polys = []
    for n in (2, 3, 4):
        cfg = make_position_config(n)
        for product in (True, False):
            for _ in range(4):
                family_polys.append(position_map(_random_state(rng, n, product), cfg).numerator)
    for n in (2, 3):
        for product in (True, False):
            for _ in range(4):
                family_polys.append(_charge_numerator(charge_map(_random_state(rng, n, product))))
    for p in random_polys + family_polys:
        rs = roots(p)
        assert rs.total_multiplicity() == p.degree
        assert rs.converged and rs.iterations <= 60
        found = np.array([r for r, _ in rs.roots])
        for r in np.roots(p.coeffs[::-1]):
            assert np.min(np.abs(found - r)) <= 1e-8 * (1 + abs(r))
        assert repr(roots(p)) == repr(rs)  # deterministic to the bit


def test_roots_iteration_cap_raises():
    state = _random_state(np.random.default_rng(3), 3, product=False)
    numerator = position_map(state, make_position_config(3)).numerator
    assert numerator.degree == 18
    with pytest.raises(RootFindingError, match="after 1 Aberth sweeps"):
        roots(numerator, max_iter=1)


def test_roots_large_root_without_overflow():
    # (z - 1e13)(z^23 - 0.5^23): the residual bound (1 + |r|)^24 exceeds the float range
    coeffs = np.zeros(25, dtype=complex)
    coeffs[[0, 1, 23, 24]] = [1e13 * 0.5**23, -(0.5**23), -1e13, 1.0]
    rs = roots(Polynomial(coeffs))
    assert rs.total_multiplicity() == 24
    largest = max((r for r, _ in rs.roots), key=abs)
    assert abs(largest - 1e13) <= 1e-9 * 1e13
    for r, m in rs.roots:
        if r != largest:
            assert m == 1 and abs(abs(r) - 0.5) <= 1e-9


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        roots(Polynomial([3.0]))
    with pytest.raises(ValueError):
        roots(Polynomial([0.0]))


def test_rootset_json():
    rs = roots(Polynomial([0, 0, 1.0]))
    assert rs.to_dict() == {"roots": [[0.0, 0.0, 2]]}


def test_derivative_eval_monomial():
    f = LaurentField({3: 1.0})
    got = derivative_eval(f, 1.0, 3)
    assert np.allclose(got, [1, 3, 6, 6])


def test_derivative_eval_inverse():
    f = LaurentField({-1: 1.0})
    got = derivative_eval(f, 2.0, 2)
    assert np.allclose(got, [0.5, -0.25, 0.25])


def test_derivative_eval_laurent_pole():
    f = LaurentField({-2: 1.0})
    with pytest.raises(PoleEvaluationError) as exc:
        derivative_eval(f, 0.0, 1)
    assert exc.value.pole == 0


def test_derivative_eval_rational_pole():
    f = RationalField(Polynomial([1.0]), ((1 + 0j, 2),))
    with pytest.raises(PoleEvaluationError) as exc:
        derivative_eval(f, 1.0, 1)
    assert exc.value.pole == 1


def test_derivative_eval_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        num = Polynomial(rng.normal(size=5) + 1j * rng.normal(size=5))
        den = ((-1 + 0j, 1), (1 + 0j, 1))
        f = RationalField(num, den)
        alpha = complex(*(0.4 * rng.normal(size=2)))
        if min(abs(alpha - a) for a, _ in den) < 0.3:
            alpha = 0.2j
        vals = derivative_eval(f, alpha, 1)

        def evaluate(z):
            return num(z) / ((z + 1) * (z - 1))

        fd = (evaluate(alpha + h) - evaluate(alpha - h)) / (2 * h)
        assert abs(vals[1] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_wronskian_reciprocal_pair():
    flds = [LaurentField({-1: 1.0}), LaurentField({1: 1.0})]
    got = wronskian_matrix(flds, 1.0)
    assert np.allclose(got, [[1, 1], [-1, 1]])


def test_wronskian_singular_iff_dependent():
    dependent = [LaurentField({1: 1.0}), LaurentField({1: 2.0})]
    independent = [LaurentField({-1: 1.0}), LaurentField({1: 1.0})]
    assert abs(np.linalg.det(wronskian_matrix(dependent, 0.7))) < 1e-12
    assert abs(np.linalg.det(wronskian_matrix(independent, 0.7))) > 1e-3


def test_wronskian_order_override():
    flds = [LaurentField({0: 1.0}), LaurentField({1: 1.0}), LaurentField({2: 1.0})]
    got = wronskian_matrix(flds, 0.5, order=2)
    assert got.shape == (2, 3)
    assert np.allclose(got[0], [1.0, 0.5, 0.25])


def test_non_finite_coefficients_rejected():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial([1.0, bad])
