"""One field form: Laurent fields read as numerator over poles, and array evaluation.

A charge field sum_c a_c z**c is the rational field whose numerator holds the
coefficients shifted by k = max(0, -min c), over a pole of order k at the
origin.  Every consumer reads that form, so a ``LaurentField`` and the
``RationalField`` built from its ``numerator`` and ``denominator_spec`` must
give the same answers everywhere.
"""

import cmath
import math

import numpy as np
import pytest

from qubitflow import (
    LaurentField,
    PoleEvaluationError,
    QubitFlowError,
    QubitState,
    RationalField,
    charge_map,
    check_linear_independence,
    derivative_eval,
    eval_field,
    eval_many,
    extract_defects,
    laurent_mul,
    make_position_config,
    north_pole_classify,
    position_map,
    sample_grid,
    sphere_tangent,
    stereographic_project,
)
from qubitflow.rendering import POLE_KEEPOUT


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def charge_family(seed):
    """Seeded charge fields at n=1..4, plus copies moved to a positive lowest exponent."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3, 4):
        for _ in range(2):
            f = charge_map(random_state(rng, n), 3)
            out.append(f)
            shift = 1 - min(f.terms) + int(rng.integers(0, 3))
            out.append(laurent_mul(f, LaurentField({shift: 1.0})))
    return out


def as_rational(f):
    return RationalField(f.numerator, f.denominator_spec)


def direct_sum(f, z):
    return sum(a * z**c for c, a in f.terms.items())


def test_rational_form_of_laurent_fields():
    f = LaurentField({-2: 1.0, 1: 3.0})
    assert f.denominator_spec == ((0j, 2),)
    assert np.array_equal(f.numerator.coeffs, [1, 0, 0, 3])
    g = LaurentField({2: 1.0, 5: -1j})
    assert g.denominator_spec == ()
    assert np.array_equal(g.numerator.coeffs, [0, 0, 1, 0, 0, -1j])
    assert LaurentField({}).numerator.is_zero()
    # the cached form does not take part in equality
    assert f == LaurentField({-2: 1.0, 1: 3.0})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_laurent_and_rational_views_agree(seed):
    rng = np.random.default_rng(100 + seed)
    z = 1.3 * (rng.normal(size=64) + 1j * rng.normal(size=64))
    fields = charge_family(seed)
    for f in fields:
        g = as_rational(f)
        assert extract_defects(f) == extract_defects(g)
        assert np.array_equal(eval_many(f, z), eval_many(g, z))
        assert np.allclose(eval_many(f, z), direct_sum(f, z), rtol=1e-11, atol=0)
        alpha = complex(*(0.5 + rng.random(2)))
        order = 2 ** (1 + len(f.terms) % 3)
        assert np.array_equal(derivative_eval(f, alpha, order), derivative_eval(g, alpha, order))
    assert check_linear_independence(fields) == check_linear_independence(
        [as_rational(f) for f in fields]
    )


def test_positive_lowest_exponent_zeros_are_in_plane_order():
    f = LaurentField({2: 1.0, 4: -1.0})  # z^2 (1 - z^2): zeros -1, 0 (double), 1
    dset = extract_defects(f)
    assert [(round(z.real, 12), m) for z, m in dset.zeros] == [(-1.0, 1), (0.0, 2), (1.0, 1)]
    assert dset.poles == () and dset.infinity_charge == 4


def test_derivatives_match_the_power_rule():
    rng = np.random.default_rng(7)
    for f in charge_family(4):
        alpha = complex(*(0.4 + rng.random(2)))
        order = 5
        want = np.zeros(order + 1, dtype=complex)
        for c, a in f.terms.items():
            falling = 1.0
            for k in range(order + 1):
                want[k] += a * falling * alpha ** (c - k)
                falling *= c - k
        got = derivative_eval(f, alpha, order)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))


def test_eval_many_shapes_poles_and_overflow():
    f = LaurentField({-1: 1.0, 2: 0.5j})
    z = np.array([[1.0, 2j], [-0.5, 3.0 + 1j]])
    vals = eval_many(f, z)
    assert vals.shape == (2, 2)
    assert np.allclose(vals, 1 / z + 0.5j * z**2, rtol=1e-15)
    assert eval_field(f, 2j)[0] == vals[0, 1]
    with pytest.raises(PoleEvaluationError) as exc:
        eval_many(f, np.array([1.0, 0.0]))
    assert exc.value.pole == 0
    with pytest.raises(QubitFlowError, match="non-finite"):
        eval_many(LaurentField({300: 1.0}), np.array([1.0, 1e3]))


def field_cases():
    rng = np.random.default_rng(21)
    out = charge_family(5)[::3]
    for n in (1, 2, 3):
        out.append(position_map(random_state(rng, n), make_position_config(n)))
    return out


def test_sample_grid_is_pointwise_eval_with_clipping():
    clip = 4.0
    for f in field_cases():
        grid = sample_grid(f, (-2, 2, -1, 1), (9, 5), clip=clip)
        for i in range(grid.x.size):
            z = complex(grid.x[i], grid.y[i])
            if any(abs(z - a) < POLE_KEEPOUT for a, _ in f.denominator_spec):
                assert grid.clipped[i] and grid.u[i] == 0.0 and grid.v[i] == 0.0
                continue
            _, (u, v) = eval_field(f, z)
            mag = math.hypot(u, v)
            if mag > clip:
                u, v = u * clip / mag, v * clip / mag
            assert grid.clipped[i] == (mag > clip)
            assert abs(grid.u[i] - u) <= 1e-14 * max(mag, 1.0)
            assert abs(grid.v[i] - v) <= 1e-14 * max(mag, 1.0)


def test_stereographic_project_is_sphere_tangent_per_sample():
    nodes = [(math.pi * i / 5, 2 * math.pi * k / 6) for i in range(1, 6) for k in range(6)]
    for f in field_cases():
        samples = stereographic_project(f, (5, 6))
        kept = [
            (t, p)
            for t, p in nodes
            if all(
                abs(math.sin(t) * cmath.exp(1j * p) / (1 - math.cos(t)) - a) >= POLE_KEEPOUT
                for a, _ in f.denominator_spec
            )
        ]
        assert [(s.theta, s.phi) for s in samples] == kept
        for s in samples:
            one = sphere_tangent(f, s.theta, s.phi)
            assert one.point == s.point
            scale = max(1.0, max(abs(t) for t in s.tangent))
            assert all(abs(a - b) <= 1e-14 * scale for a, b in zip(one.tangent, s.tangent))


def test_north_pole_degree_from_the_shared_form():
    for f in field_cases():
        report = north_pole_classify(f)
        assert report.degree == f.numerator.degree - sum(m for _, m in f.denominator_spec)
        assert report.degree == north_pole_classify(as_rational(f)).degree
    # a charge n=4 field has degree 40 at infinity and still classifies
    uniform = QubitState(4, np.full(16, 0.25))
    report = north_pole_classify(charge_map(uniform, 3))
    assert report.degree == 40 and report.category == "diverges"
    assert abs(report.fitted_exponent - (2 - 40)) < 0.1
    # at n=5 (degree 242) the small-theta samples overflow: a numerical failure
    with pytest.raises(QubitFlowError, match="non-finite"):
        north_pole_classify(charge_map(QubitState(5, np.full(32, 32**-0.5)), 3))
