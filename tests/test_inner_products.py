"""Gram-matrix inner product and the unit-circle quadrature pairing."""

import numpy as np
import pytest

from qubitflow import (
    ConditioningError,
    LaurentField,
    QubitState,
    build_gram,
    charge_basis_fields,
    charge_map,
    circle_inner_product,
    gram_norm,
    inner,
    make_charge_config,
    make_named_state,
    make_position_config,
    position_basis_fields,
    position_map,
    wronskian_matrix,
)
from qubitflow.polynomials import Polynomial
from qubitflow.fields import RationalField


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def test_wronskian_matches_reciprocal_pair_formula():
    cfg = make_position_config(1)  # q0 = 1/z, q1 = z
    b = wronskian_matrix(position_basis_fields(cfg), 2.0)
    assert np.allclose(b, [[0.5, 2.0], [-0.25, 1.0]])


def test_gram_makes_basis_orthonormal():
    for n in (1, 2):
        cfg = make_position_config(n)
        ctx = build_gram(cfg)
        basis = position_basis_fields(cfg)
        dim = 2**n
        g = np.empty((dim, dim), dtype=complex)
        for i, fi in enumerate(basis):
            for j, fj in enumerate(basis):
                g[i, j] = inner(fi, fj, ctx)
        assert np.max(np.abs(g - np.eye(dim))) < 1e-8
        assert ctx.condition_estimate < 1e8


def test_gram_matches_amplitude_inner_product():
    rng = np.random.default_rng(19)
    cfg = make_position_config(2)
    ctx = build_gram(cfg)
    for _ in range(10):
        a, b = random_state(rng, 2), random_state(rng, 2)
        want = np.vdot(a.amplitudes, b.amplitudes)
        got = inner(position_map(a, cfg), position_map(b, cfg), ctx)
        assert abs(got - want) < 1e-7
        assert abs(gram_norm(position_map(a, cfg), ctx) - 1.0) < 1e-7


def test_gram_inner_is_conjugate_linear_first():
    cfg = make_position_config(1)
    ctx = build_gram(cfg)
    f, g = position_basis_fields(cfg)
    c = 0.3 - 1.2j
    scaled = RationalField(f.numerator.scale(c), f.denominator_spec)
    assert abs(inner(scaled, g, ctx) - np.conj(c) * inner(f, g, ctx)) < 1e-12
    scaled_g = RationalField(g.numerator.scale(c), g.denominator_spec)
    assert abs(inner(f, scaled_g, ctx) - c * inner(f, g, ctx)) < 1e-12


def test_gram_conditioning_failure_for_degenerate_config():
    cfg = make_position_config(3, d=1)
    with pytest.raises(ConditioningError) as exc:
        build_gram(cfg)
    assert exc.value.best_condition > 1e8


def test_gram_conditioning_failure_for_three_qubit_charge():
    with pytest.raises(ConditioningError):
        build_gram(make_charge_config(3))


def test_gram_context_serializes():
    ctx = build_gram(make_position_config(1))
    assert ctx.order == 2
    out = ctx.to_dict()
    assert out["condition_estimate"] == ctx.condition_estimate
    assert len(out["weight"]) == 2
    assert len(out["basis_matrix"]) == 2


def test_circle_orthonormal_charge_basis():
    for n in (1, 2):
        basis = charge_basis_fields(n, 3)
        for i, fi in enumerate(basis):
            for j, fj in enumerate(basis):
                got = circle_inner_product(fi, fj)
                want = 1.0 if i == j else 0.0
                assert abs(got - want) < 1e-12


def test_circle_bell_states_orthogonal():
    plus = charge_map(make_named_state("bell00+", 2))
    minus = charge_map(make_named_state("bell00-", 2))
    assert abs(circle_inner_product(plus, minus)) < 1e-12
    assert abs(circle_inner_product(plus, plus) - 1.0) < 1e-12


def test_circle_equals_coefficient_pairing():
    rng = np.random.default_rng(37)
    for _ in range(10):
        exps = rng.integers(-6, 7, size=4)
        f = LaurentField({int(e): complex(*rng.normal(size=2)) for e in exps})
        g = LaurentField({int(e): complex(*rng.normal(size=2)) for e in rng.integers(-6, 7, size=4)})
        if f.is_zero() or g.is_zero():
            continue
        want = sum(np.conj(a) * g.terms.get(c, 0.0) for c, a in f.terms.items())
        assert abs(circle_inner_product(f, g) - want) < 1e-12


def test_circle_node_count_validation():
    f = LaurentField({4: 1.0})
    assert abs(circle_inner_product(f, f, nodes=9) - 1.0) < 1e-12
    with pytest.raises(ValueError) as exc:
        circle_inner_product(f, f, nodes=8)
    assert "9" in str(exc.value)


def test_circle_aliasing_shows_below_minimum():
    # With too few nodes z^4 and z^-4 alias onto each other; the validation
    # threshold is exactly the exactness boundary.
    f = LaurentField({4: 1.0})
    g = LaurentField({-4: 1.0})
    assert abs(circle_inner_product(f, g)) < 1e-12


def test_circle_rejects_rational_fields():
    cfg = make_position_config(2)
    f = position_map(make_named_state("bell00+", 2), cfg)
    with pytest.raises(ValueError):
        circle_inner_product(f, f)


def test_gram_probe_points_pinned():
    # Charge bases tie exactly on every angle of a circle; the first candidate
    # within the tie tolerance of the best condition number wins.
    expected = {
        ("position", 1): 0.7,
        ("position", 2): 0.7j,
        ("position", 3): -0.7j,
        ("charge", 1): 0.7,
        ("charge", 2): 1.7,
    }
    for (kind, n), alpha in expected.items():
        cfg = make_position_config(n) if kind == "position" else make_charge_config(n)
        assert abs(build_gram(cfg).alpha - alpha) < 1e-12, (kind, n)
