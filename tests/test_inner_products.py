"""Gram-matrix inner product and the unit-circle quadrature pairing."""

import numpy as np
import pytest

from qubitflow import (
    ConditioningError,
    LaurentField,
    PoleEvaluationError,
    QubitState,
    basis_fields,
    build_gram,
    charge_basis_fields,
    charge_map,
    circle_inner_product,
    derivative_eval,
    gram_norm,
    inner,
    make_basis_state,
    make_charge_config,
    make_named_state,
    make_position_config,
    map_state,
    position_basis_fields,
    position_map,
    wronskian_matrix,
)
from qubitflow import inner_products
from qubitflow.fields import RationalField, _basis, _numerator_rows, _poles
from qubitflow.inner_products import (
    CONDITION_LIMIT,
    CONDITION_TIE_RTOL,
    PROBE_ANGLES,
    PROBE_KEEPOUT,
    PROBE_RADII,
    GramContext,
)
from qubitflow.polynomials import Polynomial


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


def test_gram_recovers_amplitudes_for_three_qubit_charge():
    # no probe point conditions this basis; amplitude recovery serves instead
    cfg = make_charge_config(3)
    ctx = build_gram(cfg)
    assert ctx.alpha is None and ctx.order == 8
    assert ctx.to_dict()["alpha"] is None
    rng = np.random.default_rng(3)
    a, b = random_state(rng, 3), random_state(rng, 3)
    got = inner(charge_map(a, cfg.d), charge_map(b, cfg.d), ctx)
    assert abs(got - np.vdot(a.amplitudes, b.amplitudes)) < 1e-12
    # both kinds of context read a field through the basis' common denominator, so
    # both reject one outside its span
    for other in (ctx, build_gram(make_position_config(1)), build_gram(make_charge_config(1))):
        for outside in (LaurentField({100: 1.0}), LaurentField({-100: 1.0})):
            with pytest.raises(ValueError, match="outside"):
                inner(outside, outside, other)
    two_qubit_charge = charge_map(make_named_state("bell00+", 2))
    with pytest.raises(ValueError, match="pole outside the shared denominator"):
        inner(two_qubit_charge, two_qubit_charge, build_gram(make_position_config(1)))
    # a numerator that fits the basis' width and poles but is orthogonal to every basis
    # row is the field of no state
    for n in (1, 2):
        cfg = make_position_config(n)
        ctx, basis = build_gram(cfg), _basis(cfg)
        assert basis.width > 2**n
        outside = RationalField(Polynomial(np.linalg.svd(basis.rows)[2][-1]), basis[0].denominator_spec)
        assert np.abs(basis.rows.conj() @ basis.align(outside)).max() < 1e-15
        for read in (lambda f: inner(f, f, ctx), lambda f: gram_norm(f, ctx), ctx.pi):
            with pytest.raises(ValueError, match="outside the span of the basis"):
                read(outside)


@pytest.mark.parametrize(
    "cfg",
    [make_charge_config(n) for n in range(1, 6)]
    + [make_position_config(n) for n in range(1, 5)]
    + [make_position_config(5, 5)],
    ids=lambda cfg: f"{cfg.kind}-n{cfg.n}-d{cfg.d}",
)
def test_gram_reproduces_amplitude_overlaps(cfg):
    ctx = build_gram(cfg)
    basis = np.array([ctx.pi(f) for f in basis_fields(cfg)]).T
    assert np.max(np.abs(basis.conj().T @ ctx.weight @ basis - np.eye(2**cfg.n))) < 1e-9
    rng = np.random.default_rng(1000 + cfg.n)
    for _ in range(30):
        a, b = random_state(rng, cfg.n), random_state(rng, cfg.n)
        got = inner(map_state(a, cfg), map_state(b, cfg), ctx)
        assert abs(got - np.vdot(a.amplitudes, b.amplitudes)) < 1e-9


def test_gram_norm_takes_the_functional_once_with_inner_bits():
    rng = np.random.default_rng(8)
    for cfg in (make_position_config(3), make_charge_config(2), make_charge_config(3)):
        ctx = build_gram(cfg)
        for _ in range(20):
            f = map_state(random_state(rng, cfg.n), cfg)
            want = float(np.sqrt(max(inner(f, f, ctx).real, 0.0)))
            assert repr(gram_norm(f, ctx)) == repr(want)


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


def dense_overlap(f1, f2):
    """The circle product the long way: both numerators as dense rows over one denominator."""
    rows = _numerator_rows([f1, f2])
    return complex(np.vdot(rows[0], rows[1]))


def overlap_scale(f1, f2):
    return sum(abs(a) * abs(f2.terms[c]) for c, a in f1.terms.items() if c in f2.terms)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_circle_product_is_the_term_overlap_of_seeded_charge_pairs(n, d):
    # at d = 1 charge_map merges exponents, so the fields are no longer one term per amplitude
    rng = np.random.default_rng(100 * n + d)
    eps = np.finfo(float).eps
    for _ in range(5):
        f, g = (charge_map(random_state(rng, n), d) for _ in range(2))
        got = circle_inner_product(f, g)
        assert type(got) is complex
        assert abs(got - dense_overlap(f, g)) <= 4 * eps * overlap_scale(f, g)
        c = complex(*rng.normal(size=2))
        scaled = LaurentField({e: c * a for e, a in f.terms.items()})
        bound = 4 * eps * abs(c) * overlap_scale(f, g)
        assert abs(circle_inner_product(scaled, g) - c.conjugate() * got) <= bound


@pytest.mark.parametrize(
    "f, g",
    [
        ({-5: 1 - 2j, -1: 0.5, 3: 2j}, {-5: 3.0, 0: 1.0, 3: -1 + 1j}),  # negative exponents, partly shared
        ({-3: 1.0, 2: 1j}, {-2: 1.0, 3: 4.0}),  # disjoint supports
        ({7: 2 - 1j}, {7: 0.5 + 3j}),  # one shared term
        ({-9: 1.0}, {9: 1.0}),  # one term each, mirrored
        ({0: 1.0}, {-1: 1.0, 0: 1j, 1: 1.0}),
    ],
    ids=["negative", "disjoint", "single", "mirrored", "constant"],
)
def test_circle_product_on_hand_built_supports(f, g):
    f, g = LaurentField(f), LaurentField(g)
    want = sum((np.conj(a) * g.terms[c] for c, a in f.terms.items() if c in g.terms), 0j)
    assert circle_inner_product(f, g) == want
    bound = 4 * np.finfo(float).eps * overlap_scale(f, g)
    assert abs(circle_inner_product(f, g) - dense_overlap(f, g)) <= bound
    if not set(f.terms) & set(g.terms):
        assert circle_inner_product(f, g) == 0j and circle_inner_product(g, f) == 0j


def test_circle_product_keeps_a_term_the_dense_numerator_trims():
    # |000> + 1e-16 |111> against |111> at charge n = 3, d = 3: the overlap is 1e-16, though the
    # z**13 term sits below 1e-14 of the largest coefficient, where the trimmed numerator drops
    # it; the dense rows read the exact terms, so they keep it too
    a = np.zeros(8, dtype=complex)
    a[0], a[7] = 1.0, 1e-16
    f, g = charge_map(QubitState(3, a), 3), charge_map(make_basis_state(3, "111"), 3)
    assert f.numerator.degree < 26
    assert dense_overlap(f, g) == 1e-16
    assert circle_inner_product(f, g) == 1e-16


def test_gram_reads_a_term_the_trimmed_numerator_drops():
    # the same pair through the Gram basis, which reads the field's exact terms
    a = np.zeros(8, dtype=complex)
    a[0], a[7] = 1.0, 1e-16
    ctx = build_gram(make_charge_config(3, 3))
    f, g = charge_map(QubitState(3, a), 3), charge_map(make_basis_state(3, "111"), 3)
    assert inner(f, g, ctx) == inner(g, f, ctx) == 1e-16
    assert complex(np.vdot(ctx.pi(g), ctx.weight @ ctx.pi(f))) == 1e-16
    # beside a unit amplitude a 1e-16 one is below a norm's resolution: the norm is that of psi
    assert gram_norm(f, ctx) == np.linalg.norm(a)


def test_a_term_beyond_the_basis_degree_is_refused_however_small():
    # charge n = 3, d = 3 spans z**-13 .. z**13; a 1e-17 term at z**14 is no state's, though
    # the trimmed numerator drops it
    ctx = build_gram(make_charge_config(3, 3))
    f = LaurentField({-13: 1.0, 14: 1e-17})
    assert f.numerator.degree == 0
    for read in (lambda f: inner(f, f, ctx), lambda f: gram_norm(f, ctx), ctx.pi):
        with pytest.raises(ValueError, match="field has a degree outside the span of the basis"):
            read(f)


def test_circle_nodes_are_checked_only_when_given():
    f, g = LaurentField({40: 1.0, -3: 2.0}), LaurentField({-3: 1j})
    assert circle_inner_product(f, g) == 2j
    assert circle_inner_product(f, g, nodes=81) == 2j
    with pytest.raises(ValueError, match="need at least 81 nodes for exponents up to 40"):
        circle_inner_product(f, g, nodes=80)
    with pytest.raises(ValueError, match="need at least 81 nodes"):
        circle_inner_product(g, f, nodes=12)


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


def reference_build_gram(cfg):
    """build_gram as it was before the batched selection: every candidate through
    ``wronskian_matrix`` and ``np.linalg.cond``, in scan order.

    Two rules are newer than that scan: a probe whose pole factor overflows is
    skipped, and a non-finite B is skipped before LAPACK sees it (its cond was
    non-finite, and so skipped, anyway).
    """
    fields = _basis(cfg)
    keepout = {a for f in fields for a, _ in f.denominator_spec}
    scanned = []
    for r in PROBE_RADII:
        for k in range(PROBE_ANGLES):
            alpha = r * np.exp(2j * np.pi * k / PROBE_ANGLES)
            if min(abs(alpha - p) for p in keepout) < PROBE_KEEPOUT:
                continue
            try:
                with np.errstate(all="ignore"):
                    b = wronskian_matrix(fields, alpha)
            except PoleEvaluationError:
                continue
            if not np.isfinite(np.abs(b)).all():
                continue
            cond = float(np.linalg.cond(b))
            if np.isfinite(cond):
                scanned.append((cond, complex(alpha), b))
    tie = min((item[0] for item in scanned), default=np.inf) * (1.0 + CONDITION_TIE_RTOL)
    cond, alpha, b = next((item for item in scanned if item[0] <= tie), (np.inf, None, None))
    if cond > CONDITION_LIMIT:
        rec = fields.recovery
        if rec.condition > CONDITION_LIMIT:
            raise ConditioningError(alpha, cond)
        cond, alpha, b = rec.condition, None, rec.pinv @ rec.matrix
    b_inv = np.linalg.inv(b)
    weight = b_inv.conj().T @ b_inv
    weight = 0.5 * (weight + weight.conj().T)
    return GramContext(cfg, alpha, b, weight, cond)


def _scan_configs():
    labelled = {}  # keyed by config, so a default d that repeats one of 1-5 runs once
    for n in range(1, 5):
        for d in (None, 1, 2, 3, 4, 5):
            cfg = make_position_config(n, d)
            labelled.setdefault(cfg, f"position-n{n}-d{cfg.d}")
    labelled[make_position_config(5, 5)] = "position-n5-d5"
    for n in range(1, 6):
        for d in (None, 1, 2, 3, 4, 5):
            cfg = make_charge_config(n, d)
            labelled.setdefault(cfg, f"charge-n{n}-d{cfg.d}")
    for n in (2, 3):
        for d in (1, 2, 3):
            for seed in (61, 62):
                rng = np.random.default_rng(seed)
                centers = tuple(complex(x, y) for x, y in rng.normal(size=(n, 2)))
                labelled[make_position_config(n, d, centers)] = f"position-n{n}-d{d}-seed{seed}"
    return [pytest.param(cfg, id=label) for cfg, label in labelled.items()]


@pytest.mark.parametrize("cfg", _scan_configs())
def test_batched_probe_pick_matches_the_per_probe_scan(cfg):
    try:
        want = reference_build_gram(cfg)
    except ConditioningError:
        # the batch reports its own pick: one of the candidates, or none if no cond is finite
        with pytest.raises(ConditioningError) as exc:
            build_gram(cfg)
        assert exc.value.best_condition > CONDITION_LIMIT
        fields = _basis(cfg)
        alphas = inner_products._probe_points(fields)
        if exc.value.best_alpha is None:
            assert np.isinf(inner_products._batched_conditions(fields, alphas)).all()
        else:
            assert exc.value.best_alpha in alphas
        return
    got = build_gram(cfg)
    # repr round-trips every float exactly, the sign of a zero included
    assert repr(got.alpha) == repr(want.alpha)
    assert repr(got.condition_estimate) == repr(want.condition_estimate)
    assert got.basis_matrix.tobytes() == want.basis_matrix.tobytes()
    assert got.weight.tobytes() == want.weight.tobytes()


@pytest.mark.parametrize("cfg", _scan_configs())
def test_functional_matrix_matches_the_exact_path(cfg):
    # Pi(f) is B psi: the probe's functional matrix B applied to the recovered amplitudes
    try:
        ctx = build_gram(cfg)
    except ConditioningError:
        return
    basis = _basis(cfg)
    rng = np.random.default_rng(3000 + cfg.n)
    for _ in range(50):
        f = map_state(random_state(rng, cfg.n), cfg)
        if ctx.alpha is None:
            want = basis.recovery.pinv @ basis.align(f)
        else:
            want = derivative_eval(f, ctx.alpha, ctx.order - 1)
        assert np.linalg.norm(ctx.pi(f) - want) <= 2e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("cfg", _scan_configs())
def test_inner_matches_the_amplitude_overlap(cfg):
    try:
        ctx = build_gram(cfg)
    except ConditioningError:
        return
    rng = np.random.default_rng(3000 + cfg.n)
    err = 0.0
    for _ in range(50):
        a, b = random_state(rng, cfg.n), random_state(rng, cfg.n)
        err = max(err, abs(inner(map_state(a, cfg), map_state(b, cfg), ctx) - np.vdot(a.amplitudes, b.amplitudes)))
    assert err <= 1e-10


def test_exact_path_runs_only_where_it_decides(monkeypatch):
    calls = []

    def counted(fields, alpha, order=None):
        calls.append(alpha)
        return wronskian_matrix(fields, alpha, order)

    monkeypatch.setattr(inner_products, "wronskian_matrix", counted)
    # the batch finds no probe under the limit and M is conditioned: recovery, no exact pass
    for cfg in (make_charge_config(3), make_position_config(4), make_charge_config(5, 5)):
        assert build_gram(cfg).alpha is None
    # nor where M fails too
    with pytest.raises(ConditioningError):
        build_gram(make_position_config(3, 1))
    assert calls == []
    # a probe context takes B once, at its own probe, even where a whole circle ties
    for cfg in (*(make_position_config(n) for n in (1, 2, 3)), *(make_charge_config(n) for n in (1, 2))):
        calls.clear()
        alpha = build_gram(cfg).alpha
        assert calls == [alpha], cfg


def test_exact_condition_at_the_pick_decides(monkeypatch):
    def only_the_first(fields, alphas):
        conds = np.full(alphas.size, np.inf)
        conds[0] = 1.0
        return conds

    monkeypatch.setattr(inner_products, "_batched_conditions", only_the_first)
    charge, position = make_charge_config(3), make_position_config(3, 1)
    # the exact conds at 0.3 are 3.4e24 (charge) and 7.4e19 (position): no digit survives
    for cfg in (charge, position):
        fields = _basis(cfg)
        assert inner_products._probe_points(fields)[0] == 0.3
        assert np.linalg.cond(wronskian_matrix(fields, 0.3)) > 1e16, cfg
    assert _basis(charge).recovery.condition <= CONDITION_LIMIT
    assert _basis(position).recovery.condition == np.inf
    # the batch's cond 1.0 does not stand in for the exact one
    assert build_gram(charge).alpha is None
    with pytest.raises(ConditioningError) as exc:
        build_gram(position)
    assert exc.value.best_alpha == 0.3
    assert exc.value.best_condition > CONDITION_LIMIT


def test_a_dependent_basis_names_its_rank_in_the_conditioning_error():
    cases = ((make_position_config(3, 1), 6), (make_position_config(4, 2), 14), (make_charge_config(2, 1), 3))
    for cfg, rank in cases:
        assert _basis(cfg).recovery.rank == rank
        with pytest.raises(ConditioningError) as exc:
            build_gram(cfg)
        message = str(exc.value)
        assert message.startswith("no evaluation point with condition <= threshold; best candidate alpha = ")
        assert message.endswith(f"(condition {exc.value.best_condition:.3e}); "
                                f"the basis fields are dependent (rank {rank} of {2**cfg.n})")
    assert "dependent" not in str(ConditioningError(0.3, 1e9))


def reference_align(basis, field):
    """The general per-field rule ``align`` read through ``_numerator_rows`` before it had its
    own, kept as written then: check the poles, multiply in each missing order, pad."""
    common, width = _poles(basis[0]), basis.rows.shape[1]
    spec = _poles(field)
    if any(m > common.get(a, 0) for a, m in spec.items()):
        raise ValueError("field has a pole outside the shared denominator")
    numer = field.numerator.coeffs
    for a, m in common.items():
        k = m - spec.get(a, 0)
        if k and a == 0:
            numer = np.concatenate([np.zeros(k, dtype=complex), numer])
        elif k:
            numer = np.convolve(numer, Polynomial.from_linear_factors([(a, k)]).coeffs)
    row = np.zeros(max(width, numer.size), dtype=complex)
    row[: numer.size] = numer
    if row.size > width:
        raise ValueError("field has a degree outside the span of the basis")
    return row


def _aligned(align, field):
    try:
        return align(field).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("cfg", _scan_configs())
def test_align_matches_the_general_numerator_rows(cfg):
    basis = _basis(cfg)
    common, spec = _poles(basis[0]), basis[0].denominator_spec
    rng = np.random.default_rng(4000 + cfg.n)
    states = [random_state(rng, cfg.n) for _ in range(20)]
    states.append(QubitState(cfg.n, np.where(np.arange(2**cfg.n) == 0, 0.0, states[0].amplitudes)))
    fitting = [map_state(state, cfg) for state in states]
    # fewer poles than the basis: a shift for the origin, a convolution for any other center
    a, m = next(iter(common.items()))
    fitting.append(RationalField(Polynomial(rng.normal(size=m + 1)), ((a, 1),)))
    fitting.append(RationalField(Polynomial(rng.normal(size=2) + 1j), ()))
    fitting.append(RationalField(Polynomial(np.ones(basis.width)), spec))  # the largest degree that fits
    for f in fitting:
        want = reference_align(basis, f).tobytes()
        assert basis.align(f).tobytes() == want
        # it may be the field's own coefficients, so no caller may write to it
        assert not basis.align(f).flags.writeable
        (row,) = _numerator_rows([f], common)
        assert np.pad(row, (0, basis.width - row.size)).tobytes() == want
    other = make_position_config(2) if cfg.kind == "charge" else make_charge_config(cfg.n, 3)
    outside = {
        "degree": RationalField(Polynomial(np.ones(basis.width + 1)), spec),
        "far degree": LaurentField({basis.width: 1.0}),
        "pole": RationalField(Polynomial([1.0]), ((7.5 + 7.5j, 1),)),
        "representation": map_state(random_state(rng, other.n), other),
    }
    for label, f in outside.items():
        assert _aligned(basis.align, f) == _aligned(lambda g: reference_align(basis, g), f), label
    for label in ("degree", "far degree"):
        assert _aligned(basis.align, outside[label]) == "field has a degree outside the span of the basis"
    assert _aligned(basis.align, outside["pole"]) == "field has a pole outside the shared denominator"
    if cfg.kind == "charge":
        # one term past the top exponent, however small, is outside too
        tiny = LaurentField({min(basis.exponents): 1.0, max(basis.exponents) + 1: 1e-17})
        assert _aligned(basis.align, tiny) == "field has a degree outside the span of the basis"


@pytest.mark.parametrize("n, d, probe, bound", [(2, 4, True, 1e-14), (4, 3, False, 3e-13)])
def test_inner_reads_through_the_left_inverse(n, d, probe, bound):
    # G = (M^+ M)^-1 M^+ divides the roundoff of M^+ M back out: read through M^+ itself,
    # the same pairs lose 8.6e-13 (probe context) and 1.05e-12 (recovery context)
    cfg = make_position_config(n, d)
    ctx = build_gram(cfg)
    assert (ctx.alpha is not None) == probe
    rng = np.random.default_rng(7)
    err = 0.0
    for _ in range(50):
        a, b = random_state(rng, n), random_state(rng, n)
        err = max(err, abs(inner(map_state(a, cfg), map_state(b, cfg), ctx) - np.vdot(a.amplitudes, b.amplitudes)))
    assert err <= bound
