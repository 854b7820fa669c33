"""Polynomial arithmetic, root finding, and derivative recurrences."""

import numpy as np
import pytest

from qubitflow import (
    GATES,
    LaurentField,
    PoleEvaluationError,
    Polynomial,
    QubitState,
    RationalField,
    RootFindingError,
    apply_gate,
    charge_map,
    derivative_eval,
    extract_defects,
    make_basis_state,
    make_position_config,
    position_map,
    qft,
    roots,
    tensor,
    wronskian_matrix,
)
from qubitflow import polynomials
from qubitflow.polynomials import (
    ABERTH_MAX_ITER,
    ABERTH_TOL,
    _aberth,
    _newton_polygon_starts,
    horner,
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
    # either side of the cut between eigenvalue and Newton-polygon starts
    family_polys.append(position_map(_random_state(rng, 5, False), make_position_config(5, 5)).numerator)
    family_polys.append(_charge_numerator(charge_map(_random_state(rng, 4, False))))
    assert [p.degree for p in family_polys[-2:]] == [50, 80]
    for p in random_polys + family_polys:
        rs = roots(p)
        assert rs.total_multiplicity() == p.degree
        assert rs.converged and rs.iterations <= 60
        _assert_matches_numpy(rs, p)
        assert repr(roots(p)) == repr(rs)  # deterministic to the bit


def _assert_matches_numpy(rs, p):
    found = np.array([r for r, _ in rs.roots])
    for r in np.roots(p.coeffs[::-1]):
        assert np.min(np.abs(found - r)) <= 1e-8 * (1 + abs(r))


def _failing_eigvals(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _nan_eigvals(a):
    return np.full(len(a), np.nan + 0j)


@pytest.mark.parametrize("eigvals", [_failing_eigvals, _nan_eigvals])
def test_roots_fall_back_to_newton_polygon_starts(monkeypatch, eigvals):
    p = position_map(_random_state(np.random.default_rng(8), 3, False), make_position_config(3)).numerator
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvals", eigvals)
        rs = roots(p)
    _assert_matches_numpy(rs, p)
    monkeypatch.setattr(polynomials, "EIGVALS_MAX_DEGREE", 0)
    assert repr(roots(p)) == repr(rs)


@pytest.mark.parametrize(
    "coeffs, starts",
    [
        ([-1.0, 0.5j, 0.0, 0.0, 1.0], [0.5, 0.5, -0.3j, 0.2 + 0.1j]),  # a coincident pair
        ([1.0, -3.0, 0.0, 1.0], [1.0, 0.3j, -2.0]),  # p'(1) = 0
    ],
)
def test_aberth_nudges_coincident_and_critical_starts_apart(coeffs, starts):
    c = np.array(coeffs, dtype=complex)
    z, _, _ = _aberth(c, np.array(starts, dtype=complex), ABERTH_TOL, ABERTH_MAX_ITER)
    for r in np.roots(c[::-1]):
        assert np.min(np.abs(z - r)) <= 1e-8 * (1 + abs(r))


def test_roots_iteration_cap_raises():
    # above the eigenvalue-start cut, so the Newton-polygon starts need many sweeps
    numerator = _charge_numerator(charge_map(_random_state(np.random.default_rng(3), 4, False)))
    assert numerator.degree == 80
    with pytest.raises(RootFindingError, match="after 1 Aberth sweeps"):
        roots(numerator, max_iter=1)


def _multiple_factor(rng, k):
    """(z - c)**k times three simple factors at least 0.7 from c, c in [-1.5, 1.5]**2."""
    c = complex(*rng.uniform(-1.5, 1.5, 2))
    others = [c + rng.uniform(0.7, 2.2) * np.exp(2j * np.pi * rng.random()) for _ in range(3)]
    return c, Polynomial.from_linear_factors([(c, k)] + [(r, 1) for r in others])


@pytest.mark.parametrize("seed", range(6))
def test_disc_components_count_each_multiplicity(seed):
    rng = np.random.default_rng(seed)
    for k in range(1, 9):
        # off a centre: one k-fold root at c, and the three simple ones
        c, p = _multiple_factor(rng, k)
        rs = roots(p)
        near = [(r, m) for r, m in rs.roots if abs(r - c) < 0.35]
        assert [m for _, m in near] == [k] and abs(near[0][0] - c) <= 1e-9 * (1 + abs(c))
        assert sorted(m for _, m in rs.roots) == sorted([1, 1, 1, k])
        # on a centre: the k zeros cancel k of the 9 pole orders there
        c, p = _multiple_factor(rng, k)
        d = extract_defects(RationalField(p, ((c, 9),)))
        assert d.poles == ((c, 9 - k),)
        assert [m for _, m in d.zeros] == [1, 1, 1] and min(abs(z - c) for z, _ in d.zeros) > 0.69


def test_fivefold_factor_is_one_root():
    rs = roots(Polynomial.from_linear_factors([(0.3 + 0.1j, 5)]))
    assert [m for _, m in rs.roots] == [5]
    assert abs(rs.roots[0][0] - (0.3 + 0.1j)) <= 1e-12


def test_a_component_of_several_multiple_roots_is_cut_into_them():
    # the noise rings of these 6-, 5- and 4-fold roots are wide enough that their discs form one
    # component, whose mean is a zero within roundoff; no 15-fold zero passes the Taylor
    # certificate there, so the component is cut into its roots (how a ring splits depends on
    # the eigenvalue starts, so only the cut is asserted)
    p = Polynomial.from_linear_factors([
        (1.008950849996951 + 1.5855679614833318j, 6), (0.8942956903704582 - 0.3787560988969054j, 1),
        (1.847601916060893 + 1.4823849611000814j, 5), (1.108850529856785 + 1.9835930867355818j, 4),
    ])
    rs = roots(p)
    assert rs.total_multiplicity() == 16 and max(m for _, m in rs.roots) <= 6


def test_refinement_stops_where_roundoff_stalls_it():
    # a position n = 3 frame numerator with a double zero at -1 + i: from the third
    # Newton step on, roundoff keeps the step near 1e-14, above 1e-15 (1 + |z|)
    coeffs = [
        -1.4142135623730958 - 1.414213562373094j, -5.278461654132847e-15 - 8.485281374238568j,
        12.72792206135783 - 12.72792206135787j, 35.35533905932735 - 8.315570454442422e-14j,
        58.33630944789029 + 58.33630944789002j, 3.306699790004159e-13 + 140.00714267493638j,
        -115.96551211459355 + 115.96551211459412j, -144.24978336205595 + 2.6048605310103395e-13j,
        -68.9429111656885 - 68.94291116568853j, 1.928711716128455e-13 - 49.497474683058314j,
        12.727922061357829 - 12.72792206135762j, 4.242640687119071 - 7.687477397668629e-15j,
        0.35355339059327434 + 0.3535533905931153j,
    ]
    rs = roots(Polynomial(coeffs))
    double = [(r, m) for r, m in rs.roots if m > 1]
    assert len(double) == 1 and double[0][1] == 2 and abs(double[0][0] - (-1 + 1j)) <= 1e-11


def test_refinement_cap_raises(monkeypatch):
    monkeypatch.setattr(polynomials, "REFINE_MAX_ITER", 1)
    with pytest.raises(RootFindingError, match="5-fold root near .* still moving after 1 steps"):
        roots(Polynomial.from_linear_factors([(0.3 + 0.1j, 5), (2.0, 1)]))


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


def test_derivative_eval_overflowing_pole_factor_is_a_numerical_failure():
    # 0.3**-1365 is beyond the float range; Python's complex power raises OverflowError
    with pytest.raises(PoleEvaluationError, match="order 1365 .* probe point \\(0.3\\+0j\\)") as exc:
        derivative_eval(LaurentField({-1365: 1.0}), 0.3, 3)
    assert exc.value.pole == 0


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


def reference_derivative_eval(field, alpha, max_order):
    """derivative_eval written out plainly, one pole series per denominator factor."""
    alphac = complex(alpha)
    shifted = np.zeros(max_order + 2, dtype=complex)
    for c in field.numerator.coeffs[::-1]:
        shifted[0] = c
        shifted[1:] = shifted[1:] * alphac + shifted[:-1]
    series = shifted[1:]
    j = np.arange(1.0, max_order + 1)
    for a, m in field.denominator_spec:
        gap = alphac - a
        factor = np.cumprod(np.concatenate(([gap**-m], (1.0 - m - j) / (j * gap))))
        series = np.convolve(series, factor)[: max_order + 1]
    return series * np.cumprod(np.concatenate(([1.0], j)))


def test_derivative_eval_matches_the_uncached_series_bitwise():
    rng = np.random.default_rng(23)
    for trial in range(300):
        if trial % 2:
            centers = rng.normal(size=(int(rng.integers(1, 4)), 2)) @ [1, 1j]
            spec = tuple((complex(a), int(rng.integers(1, 4))) for a in centers)
            field = RationalField(Polynomial(rng.normal(size=int(rng.integers(1, 20))) + 1j), spec)
        else:
            field = LaurentField({int(c): complex(*rng.normal(size=2)) for c in rng.integers(-9, 9, 4)})
        # a few probe points repeat
        alpha = complex(*rng.normal(size=2)) if trial % 3 else (0.3 + 0.4j)
        order = int(rng.integers(0, 16))
        got = derivative_eval(field, alpha, order)
        assert got.tobytes() == reference_derivative_eval(field, alpha, order).tobytes()


def test_pole_series_of_signed_zero_gaps_keep_their_own_cache_entries():
    # gaps that differ only in the sign of a zero part keep their own series
    field = RationalField(Polynomial([1.0, 2.0, 0.5j]), ((0j, 3),))
    probes = [complex(0.0, 1.5), complex(-0.0, 1.5), complex(2.0, 0.0), complex(2.0, -0.0)]
    for order in (probes, probes[::-1]):
        for alpha in order:
            got = derivative_eval(field, alpha, 4)
            assert got.tobytes() == reference_derivative_eval(field, alpha, 4).tobytes()


@pytest.mark.parametrize("alpha", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.5, -np.inf), float("nan")])
def test_derivative_eval_rejects_a_non_finite_probe_point(alpha):
    field = position_map(QubitState(2, np.array([0.5, 0.5j, -0.5, 0.5])), make_position_config(2))
    with pytest.raises(ValueError, match="probe point .* is not finite"):
        derivative_eval(field, alpha, 3)
    with pytest.raises(ValueError, match="probe point .* is not finite"):
        wronskian_matrix([field, LaurentField({1: 1.0})], alpha)


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


def _equal_modulus_charge_numerator() -> Polynomial:
    # init 101, QFT, Z then H on qubit 1, charge d = 3: c0 + c6 z^6 + c18 z^18 +
    # c24 z^24 with equal |c| and roundoff-level terms in between
    state = apply_gate(apply_gate(qft(make_basis_state(3, "101")), GATES["Z"], [1]), GATES["H"], [1])
    return charge_map(state, 3).numerator


def test_newton_polygon_ignores_roundoff_above_a_chord():
    numerator = _equal_modulus_charge_numerator()
    starts = _newton_polygon_starts(numerator.coeffs / numerator.coeffs[-1])
    assert np.unique(starts).size == 24


def test_roots_of_equal_modulus_sparse_numerator_converge():
    numerator = _equal_modulus_charge_numerator()
    assert numerator.degree == 24
    rs = roots(numerator)
    assert rs.total_multiplicity() == 24 and rs.iterations <= 60
    found = np.array([r for r, _ in rs.roots])
    for r in np.roots(numerator.coeffs[::-1]):
        assert np.min(np.abs(found - r)) <= 1e-12


def _real_arithmetic_horner(coeffs, z):
    # the reference: Horner in real arithmetic, real and imaginary parts kept apart
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    re, im = np.full(z.shape, coeffs[-1].real), np.full(z.shape, coeffs[-1].imag)
    for c in coeffs[-2::-1]:
        re, im = re * x - im * y + c.real, re * y + im * x + c.imag
    return re + 1j * im


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.int64)


def _signed_zeros(rng, parts, share=0.3):
    hit = rng.random(parts.shape) < share
    parts[hit] = rng.choice([0.0, -0.0], hit.sum())


def test_horner_matches_real_arithmetic_bit_for_bit():
    rng = np.random.default_rng(5)
    for degree in (0, 1, 2, 7, 18, 26, 80):
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        z = 2.0 * (rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7)))
        assert np.array_equal(_bits(horner(coeffs, z)), _bits(_real_arithmetic_horner(coeffs, z)))
        # points with +-0.0 real or imaginary parts
        axes = z.copy()
        _signed_zeros(rng, axes.real)
        _signed_zeros(rng, axes.imag)
        got = horner(coeffs, axes)
        assert got.shape == (6, 7)
        assert np.array_equal(_bits(got), _bits(_real_arithmetic_horner(coeffs, axes)))
        # coefficients with -0.0 parts, at points with nonzero parts
        signed = coeffs.copy()
        _signed_zeros(rng, signed.real[:-1])
        _signed_zeros(rng, signed.imag)
        assert np.array_equal(_bits(horner(signed, z)), _bits(_real_arithmetic_horner(signed, z)))
        # both at once: an exactly zero part may differ in sign, nothing else
        got, want = horner(signed, axes), _real_arithmetic_horner(signed, axes)
        assert np.array_equal(got, want)
        differ = _bits(got) != _bits(want)
        assert np.all(want.view(float)[differ] == 0.0)
        # Python scalars give numpy scalars with the same bits
        for point in (complex(z[0, 0]), complex(-0.0, 1.5), complex(2.5, -0.0), -0.0, 1.25, 3):
            value = horner(coeffs, point)
            assert type(value) is np.complex128
            assert np.array_equal(_bits(value), _bits(_real_arithmetic_horner(coeffs, point)))
        # Polynomial.__call__ is the kernel
        assert np.array_equal(_bits(Polynomial(coeffs)(z)), _bits(horner(coeffs, z)))


def _wrong_last_root(monkeypatch, at):
    real_aberth = polynomials._aberth

    def aberth(c, z, tol, max_iter):
        approx, radii, sweeps = real_aberth(c, z, tol, max_iter)
        return np.concatenate([approx[:-1], [at]]), radii, sweeps

    monkeypatch.setattr(polynomials, "_aberth", aberth)


def test_residual_check_messages_linear_and_log(monkeypatch):
    _wrong_last_root(monkeypatch, 3.0)
    with pytest.raises(RootFindingError, match=r"residual 1\.000e\+01 above bound 10\^-6\.8"):
        roots(Polynomial([1.0, 0.0, 1.0]))  # z^2 + 1
    # |p(1000)| for z^400 + 1 overflows, so the check runs on the reversal at 1/1000
    _wrong_last_root(monkeypatch, 1000.0)
    with pytest.raises(RootFindingError, match=r"residual 10\^1200\.0 above bound 10\^1192\.2"):
        roots(Polynomial(np.eye(401)[0] + np.eye(401)[400]))


def _skewed_product(seed, n):
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=complex)
    for r in rng.uniform(-7.0, 7.0, size=n):
        qubit = np.array([1.0, 10.0**r * np.exp(2j * np.pi * rng.random())])
        amps = np.kron(amps, qubit / np.linalg.norm(qubit))
    return QubitState(n, amps)


def test_charge_n6_random_and_skewed_states_certify():
    # at degree 728, |p(r)| overflows for roots beyond |r| = 2.65, so their residuals
    # are checked in log space on the reversed polynomial
    rng = np.random.default_rng(39)
    states = [QubitState(6, rng.normal(size=64) + 1j * rng.normal(size=64))]
    states += [_skewed_product(seed, 6) for seed in (2, 3)]
    for st in states:
        numerator = charge_map(st, 3).numerator
        rs = roots(numerator)
        assert rs.total_multiplicity() == numerator.degree >= 726
        assert rs.residual == np.inf
        assert max(abs(r) for r, _ in rs.roots) > 2.65
