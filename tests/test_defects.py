"""Defect extraction, halo geometry, and separability detection."""

import functools
import json

import numpy as np
import pytest

from qubitflow import (
    DefectSet,
    QubitState,
    charge_map,
    detect_halos,
    extract_defects,
    eval_field,
    factorizable_qubits,
    field_separability,
    is_separable_geometric,
    is_separable_tensor,
    make_basis_state,
    make_charge_config,
    make_named_state,
    make_position_config,
    position_map,
    qft,
    tensor,
)
from qubitflow import defects
from qubitflow.cli import main
from qubitflow.defects import GROUP_RTOL, _match_polygon, _screen
from qubitflow.fields import LaurentField, RationalField
from qubitflow.polynomials import Polynomial, roots


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def random_separable(rng, n):
    st = random_state(rng, 1)
    for _ in range(n - 1):
        st = tensor(st, random_state(rng, 1))
    return st


def test_extract_single_monomial():
    f = charge_map(make_basis_state(2, "01"))  # z^2
    d = extract_defects(f)
    assert d.zeros == ((0j, 2),)
    assert d.poles == ()
    assert d.infinity_charge == 2


def test_extract_bell_charge_field():
    bell = make_named_state("bell00+", 2)
    d = extract_defects(charge_map(bell))
    assert d.poles == ((0j, 4),)
    assert len(d.zeros) == 8
    want = {np.exp(1j * np.pi * (2 * k + 1) / 8) for k in range(8)}
    for z, m in d.zeros:
        assert m == 1
        assert min(abs(z - w) for w in want) < 1e-9
    assert d.infinity_charge == 4


def test_extract_position_ground_state():
    cfg = make_position_config(2)
    d = extract_defects(position_map(make_basis_state(2, "00"), cfg))
    assert d.zeros == ()
    assert d.poles == ((-1 + 0j, 1), (1 + 0j, 1))
    assert d.infinity_charge == -2


def test_extract_cancels_numerator_against_centers():
    cfg = make_position_config(2)
    d = extract_defects(position_map(make_basis_state(2, "11"), cfg))
    # (z+1)^2(z-1)^2 over (z+1)(z-1) leaves simple zeros on the centers.
    assert d.poles == ()
    assert sorted(d.zeros, key=lambda zm: zm[0].real) == [(-1 + 0j, 1), (1 + 0j, 1)]
    assert d.infinity_charge == 2


def test_degree_balance():
    rng = np.random.default_rng(13)
    cfg = make_position_config(3)
    for _ in range(8):
        st = random_state(rng, 3)
        d = extract_defects(position_map(st, cfg))
        zeros = sum(m for _, m in d.zeros)
        poles = sum(m for _, m in d.poles)
        assert zeros - poles == d.infinity_charge
        f = charge_map(st)
        d = extract_defects(f)
        zeros = sum(m for _, m in d.zeros)
        poles = sum(m for _, m in d.poles)
        assert zeros - poles == d.infinity_charge == max(f.terms)


def test_deflation_stops_where_the_value_overflows(tmp_path, capsys):
    # z**400 + 1 over (z - 10): p(10) = 10**400 overflows, so 10 is no zero of it
    numer = np.zeros(401, dtype=complex)
    numer[[0, 400]] = 1.0
    d = extract_defects(RationalField(Polynomial(numer), ((10 + 0j, 1),)))
    assert len(d.zeros) == 400 and all(m == 1 for _, m in d.zeros)
    assert max(abs(abs(z) - 1.0) for z, _ in d.zeros) <= 1e-9
    assert d.poles == ((10 + 0j, 1),) and d.infinity_charge == 399
    field = tmp_path / "field.json"
    pairs = [[c.real, c.imag] for c in numer.tolist()]
    field.write_text(json.dumps({"type": "rational", "numerator": pairs, "defects": [[10, 0]], "d": 1}))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--in", str(field), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["defects"]["poles"] == [[10.0, 0.0, 1]]
    # (z**2 + 1) / (z - 1e200): only the last Horner step overflows, to inf + 0j
    d = extract_defects(RationalField(Polynomial([1, 0, 1]), ((1e200 + 0j, 1),)))
    assert [m for _, m in d.zeros] == [1, 1] and max(abs(abs(z) - 1.0) for z, _ in d.zeros) <= 1e-9
    assert d.poles == ((1e200 + 0j, 1),)


def test_double_zero_on_a_center_counts_whole():
    # qubit 1 is |1>: N has a double zero at the center -1, where N vanishes exactly at both
    # approximations; only the roundoff bound in their disc radii joins them into one root
    amps = [0j, 0j, -0.6680485134817267 + 0.4262105452404809j, -0.4571852443325418 - 0.4037789087177058j]
    st = QubitState(2, np.array(amps))
    cfg = make_position_config(2)
    field = position_map(st, cfg)
    double = [(r, m) for r, m in roots(field.numerator).roots if m > 1]
    assert len(double) == 1 and double[0][1] == 2 and abs(double[0][0] + 1) <= 1e-12
    d = extract_defects(field)
    assert (-1 + 0j, 1) in d.zeros and d.poles == ((1 + 0j, 1),)
    assert is_separable_geometric(st, cfg)[0]


def test_plus_state_charge_field_keeps_its_triple_zeros():
    # (1 + z^2)(1 + z^6)(1 + z^18) / z^13: triple zeros at +-i, double ones at the other
    # sixth roots of -1, no zero at 0
    plus = QubitState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    d = extract_defects(charge_map(tensor(tensor(plus, plus), plus), 3))
    assert d.poles == ((0j, 13),) and all(z != 0 for z, _ in d.zeros)
    assert sorted(m for _, m in d.zeros) == [1] * 12 + [2] * 4 + [3] * 2
    triples = sorted((z for z, m in d.zeros if m == 3), key=lambda z: z.imag)
    assert np.allclose(triples, [-1j, 1j], rtol=0, atol=1e-12)


def test_extract_zero_field_raises():
    with pytest.raises(ValueError):
        extract_defects(LaurentField({}))


def test_halos_plus_zero_product():
    cfg = make_position_config(2)
    plus = QubitState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    st = tensor(plus, make_basis_state(1, "0"))
    report = detect_halos(extract_defects(position_map(st, cfg)), cfg)
    by_center = {h.center: h for h in report.halos}
    left = by_center[-1 + 0j]
    assert left.status == "regular"
    got = sorted(left.vertices, key=lambda z: z.imag)
    assert abs(got[0] - (-1 - 1j)) < 1e-8
    assert abs(got[1] - (-1 + 1j)) < 1e-8
    assert by_center[1 + 0j].status == "at-infinity"
    assert report.leftover_zeros == ()
    assert report.all_accounted()


def test_halos_collapsed_for_excited_basis_state():
    cfg = make_position_config(2)
    report = detect_halos(
        extract_defects(position_map(make_basis_state(2, "11"), cfg)), cfg
    )
    assert all(h.status == "collapsed" for h in report.halos)
    assert report.all_accounted()


def test_halos_qft_hexagons():
    cfg = make_position_config(3)
    st = qft(make_basis_state(3, "000"))
    report = detect_halos(extract_defects(position_map(st, cfg)), cfg)
    assert len(report.halos) == 3
    for halo in report.halos:
        assert halo.status == "regular"
        assert len(halo.vertices) == 6
        assert abs(halo.radius - 1.0) < 1e-6
        radii = [abs(v - halo.center) for v in halo.vertices]
        assert np.allclose(radii, 1.0, atol=1e-6)
    assert report.leftover_zeros == ()


def test_halos_bell_leftover():
    cfg = make_position_config(2)
    bell = make_named_state("bell00+", 2)
    report = detect_halos(extract_defects(position_map(bell, cfg)), cfg)
    assert not report.all_accounted()
    assert report.leftover_zeros


def test_halos_reject_stray_pole():
    cfg = make_position_config(2)
    bad = DefectSet(zeros=(), poles=((5 + 0j, 1),), infinity_charge=-1)
    with pytest.raises(ValueError):
        detect_halos(bad, cfg)


def test_halos_need_position_config():
    cfg = make_charge_config(2)
    d = extract_defects(charge_map(make_basis_state(2, "01")))
    with pytest.raises(ValueError):
        detect_halos(d, cfg)


def _greedy_match_polygon(center, sites, skip, d):
    """The greedy halo search, kept as the reference for ``_match_polygon``.

    Each ideal vertex of a trial takes the nearest zero within the tolerance
    that the trial's earlier vertices have not used up.
    """
    cand = [i for i, s in enumerate(sites) if s[1] >= 1 and i != skip]
    for seed in cand:
        vs = (sites[seed][0] - center) ** (2 * d)
        if vs == 0:
            continue
        radius = abs(vs) ** (1.0 / (2 * d))
        base = np.angle(vs) / (2 * d)
        tol = GROUP_RTOL * (1.0 + radius)
        taken: dict[int, int] = {}
        chosen: list[int] = []
        for k in range(2 * d):
            ideal = center + radius * np.exp(1j * (base + k * np.pi / d))
            pick, dist = None, tol
            for i in cand:
                if sites[i][1] - taken.get(i, 0) < 1:
                    continue
                gap = abs(sites[i][0] - ideal)
                if gap <= dist:
                    pick, dist = i, gap
            if pick is None:
                break
            taken[pick] = taken.get(pick, 0) + 1
            chosen.append(pick)
        else:
            locs = [sites[i][0] for i in chosen]
            w = np.array(locs, dtype=complex) - center
            vbar = complex(np.mean([(z - center) ** (2 * d) for z in locs]))
            phase = float(np.min(np.angle(w) % (2.0 * np.pi)))
            return chosen, vbar, float(np.mean(np.abs(w))), phase
    return None


def _polygon(rng, center, vertex, d, noise):
    """The regular 2d-gon around ``center`` through ``vertex``, the other vertices moved by <= noise."""
    verts = center + (vertex - center) * np.exp(1j * np.pi * np.arange(2 * d) / d)
    verts[0] = vertex
    verts[1:] += noise * rng.uniform(size=2 * d - 1) * np.exp(2j * np.pi * rng.uniform(size=2 * d - 1))
    return verts.tolist()


def _site_set(rng):
    """Centers, sites (as ``detect_halos`` builds them), d and the number of planted halos.

    Each center gets a regular 2d-gon (radius 1e-3..10, noise <= 1e-6 r), a
    2d-fold zero or nothing, and fewer than 2d further zeros on itself.  In
    half the sets the second polygon passes through a vertex of the first,
    held as one site of multiplicity 2.  Up to five distractor zeros are
    scattered around.
    """
    d, n = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    centers = (3 * rng.normal(size=n) + 3j * rng.normal(size=n)).tolist()
    vertices = [a + 10 ** rng.uniform(-3, 1) * np.exp(2j * np.pi * rng.uniform()) for a in centers]
    kinds = rng.choice(["polygon", "polygon", "collapsed", "none"], size=n)
    if rng.uniform() < 0.5:
        vertices[1], kinds[:2] = vertices[0], "polygon"
    off: dict[complex, int] = {}
    for a, v, kind in zip(centers, vertices, kinds):
        if kind == "polygon":
            for z in _polygon(rng, a, v, d, 1e-6 * abs(v - a)):
                off[z] = off.get(z, 0) + 1
    for _ in range(int(rng.integers(0, 6))):
        off[complex(4 * rng.normal() + 4j * rng.normal())] = int(rng.integers(1, 3))
    counts = rng.integers(0, 2 * d, size=n) + 2 * d * (kinds == "collapsed")
    sites = [[a, int(k)] for a, k in zip(centers, counts)]
    sites += [[z, m] for z, m in sorted(off.items(), key=lambda zm: (zm[0].real, zm[0].imag))]
    return centers, sites, d, int(np.sum(kinds == "polygon"))


# an exact tie about 0 with d = 1: the ideal vertex exp(i pi) lies as far from -1 - 2**-17
# as from -1 + 2**-17
TIE_SITES = ((0j, 0), (1 + 0j, 1), (-1 - 2**-17 + 0j, 1), (-1 + 2**-17 + 0j, 1))
# zeros a, b, c about 0 with d = 1 at radius about 1e-5, below the nearest-vertex rule's bound
SMALL_SITES = ((0j, 0), (1e-5 + 0j, 1), (-1e-5 + 3e-5j, 1), (1e-5 - 2.5e-5j, 1))


def test_match_polygon_agrees_with_the_greedy_reference():
    rng = np.random.default_rng(2024)
    found = planted = 0
    for _ in range(300):
        centers, sites, d, count = _site_set(rng)
        planted += count
        keep = _screen(centers, sites, 2 * d)
        for j, a in enumerate(centers):
            if sites[j][1] >= 2 * d:
                sites[j][1] -= 2 * d
                continue
            want = _greedy_match_polygon(a, sites, j, d)
            assert _match_polygon(a, sites, j, 2 * d, keep[j]) == want
            if want is not None:
                found += 1
                for i in want[0]:
                    sites[i][1] -= 1
    assert found == planted
    sites = [list(s) for s in TIE_SITES]
    keep = _screen([0j], sites, 2)[0]
    assert _match_polygon(0j, sites, 0, 2, keep) == _greedy_match_polygon(0j, sites, 0, 1)
    assert _match_polygon(0j, sites, 0, 2, keep)[0] == [1, 3]


def test_match_polygon_below_the_radius_bound_tries_the_next_seed():
    # radius 1e-5: both vertices of seed a's 2-gon have a as their nearest zero, so
    # greedy completes it with b, and the nearest-vertex rule moves on to seed b
    sites, (b, c) = [list(s) for s in SMALL_SITES], (SMALL_SITES[2][0], SMALL_SITES[3][0])
    assert _greedy_match_polygon(0j, sites, 0, 1)[0] == [1, 2]
    chosen, _, radius, _ = _match_polygon(0j, sites, 0, 2, _screen([0j], sites, 2)[0])
    assert sorted(chosen) == [2, 3] and radius == pytest.approx((abs(b) + abs(c)) / 2)


def _every_seed(sites):
    return [True] * len(sites)


@pytest.mark.parametrize("seed", [2024, 2031])
def test_screen_drops_only_seeds_whose_walk_fails(seed):
    rng = np.random.default_rng(seed)
    cases = [_site_set(rng)[:3] for _ in range(300)]
    cases += [([0j], [list(s) for s in TIE_SITES], 1), ([0j], [list(s) for s in SMALL_SITES], 1)]
    found = dropped = 0
    for centers, sites, d in cases:
        keep = _screen(centers, sites, 2 * d)
        for j, a in enumerate(centers):
            if sites[j][1] >= 2 * d:
                sites[j][1] -= 2 * d
                continue
            want = _match_polygon(a, sites, j, 2 * d, _every_seed(sites))
            assert _match_polygon(a, sites, j, 2 * d, keep[j]) == want
            for s in np.flatnonzero(np.logical_not(keep[j])):
                alone = [i == s for i in range(len(sites))]
                assert _match_polygon(a, sites, j, 2 * d, alone) is None
                dropped += 1
            if want is not None:
                found += 1
                for i in want[0]:
                    sites[i][1] -= 1
    assert found > 300 and dropped > 1000


def test_far_seeds_are_judged_without_forming_their_power(tmp_path, capsys):
    # (z - a)**2 overflows for z - a = 1e200; the screen turns the seed instead, and the walk
    # forms only the unit power ((z - a) / |z - a|)**2
    sites = [[0j, 0], [1e100 + 0j, 1], [1e200 + 0j, 1]]
    assert _screen([0j], sites, 2) == [[True, False, False]]
    assert _match_polygon(0j, sites, 0, 2, [False, False, True]) is None
    # zeros at -1 and 1 lie about 1e160 from the second centre: analyze once raised OverflowError
    doc = {"type": "rational", "numerator": [[0, 0], [-1, 0], [1, 0]], "defects": [[0, 0], [1e160, 0]], "d": 1}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["separable"] is False


def _families(rng, n):
    """Three draws each of products, near-products (eps 1e-12..1e-4), skewed products
    (|beta / alpha| 1e-7..1e7) and generic states, then the phased and the QFT-squared basis
    states."""
    states = []
    for _ in range(3):
        states.append(random_separable(rng, n))
        eps = 10 ** rng.uniform(-12, -4)
        states.append(QubitState(n, random_separable(rng, n).amplitudes + eps * random_state(rng, n).amplitudes))
        betas = 10 ** rng.uniform(-7, 7, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        states.append(functools.reduce(tensor, [QubitState(1, np.array([1.0, b])) for b in betas]))
        states.append(random_state(rng, n))
    bits = [format(i, f"0{n}b") for i in range(2**n)]
    states += [QubitState(n, np.exp(0.3j) * make_basis_state(n, b).amplitudes) for b in bits]
    states += [qft(qft(make_basis_state(n, b))) for b in bits]
    return states


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detect_halos_equals_the_unscreened_walk(n, monkeypatch):
    rng = np.random.default_rng(90 + n)
    centers = (1.5 * rng.normal(size=n) + 1.5j * rng.normal(size=n)).tolist()
    configs = [make_position_config(n)] + [make_position_config(n, d, centers) for d in (1, 2, 4)]
    cases = [(cfg, extract_defects(position_map(st, cfg))) for cfg in configs for st in _families(rng, n)]
    screened = [detect_halos(dset, cfg) for cfg, dset in cases]
    monkeypatch.setattr(defects, "_screen", lambda centers, sites, k: [_every_seed(sites)] * len(centers))
    for (cfg, dset), got in zip(cases, screened):
        want = detect_halos(dset, cfg)
        assert got == want and repr(got) == repr(want)


def test_screen_leaves_generic_fields_no_seed_to_walk(monkeypatch):
    # the mechanism of the speed-up: a generic field has no halo, and the screen sees that
    # before the walk at n = 2 and n = 4 (at n = 3 a seed or two slip through)
    walked, walk = [], defects._match_polygon

    def spy(center, sites, skip, k, keep):
        walked.extend(i for i, s in enumerate(sites) if s[1] >= 1 and i != skip and keep[i])
        return walk(center, sites, skip, k, keep)

    monkeypatch.setattr(defects, "_match_polygon", spy)
    rng = np.random.default_rng(11)
    counts = {}
    for n in (2, 3, 4):
        cfg = make_position_config(n)
        walked.clear()
        for _ in range(100):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            detect_halos(extract_defects(position_map(QubitState(n, amps), cfg)), cfg)
        counts[n] = len(walked)
    assert counts[2] == counts[4] == 0


def test_separability_detects_products_and_entanglement():
    cfg = make_position_config(2)
    plus = QubitState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    st = tensor(plus, plus)
    sep, witness = is_separable_geometric(st, cfg)
    assert sep
    assert len(witness) == 2
    for name in ("bell00+", "bell00-", "bell01+", "bell01-"):
        sep, _ = is_separable_geometric(make_named_state(name, 2), cfg)
        assert not sep


def test_separability_ghz_w():
    cfg = make_position_config(3)
    for name in ("ghz", "w"):
        sep, _ = is_separable_geometric(make_named_state(name, 3), cfg)
        assert not sep
        assert not is_separable_tensor(make_named_state(name, 3))


def test_witness_rebuilds_field():
    cfg = make_position_config(2)
    rng = np.random.default_rng(4)
    st = random_separable(rng, 2)
    field = position_map(st, cfg)
    sep, witness = field_separability(field, cfg)
    assert sep
    # The witness gives the product form; check it against the field values.
    zs = [0.4 + 0.2j, -0.3 + 1.5j, 2.0 - 0.7j]
    vals = np.array([eval_field(field, z)[0] for z in zs])
    rebuilt = np.array(
        [
            np.prod(
                [
                    (a + b * (z - c) ** (2 * cfg.d)) / (z - c) ** cfg.d
                    for (a, b), c in zip(witness, cfg.defects)
                ]
            )
            for z in zs
        ]
    )
    lam = np.vdot(rebuilt, vals) / np.vdot(rebuilt, rebuilt)
    assert np.max(np.abs(vals - lam * rebuilt)) < 1e-8 * np.max(np.abs(vals))


def test_detector_agrees_with_tensor_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        cfg = make_position_config(n)
        for _ in range(10):
            sep_state = random_separable(rng, n)
            assert is_separable_geometric(sep_state, cfg)[0]
            assert is_separable_tensor(sep_state)
            generic = random_state(rng, n)
            geo, _ = is_separable_geometric(generic, cfg)
            assert geo == is_separable_tensor(generic)


@pytest.mark.parametrize("scale", [2.0**-900, 2.0**900, 1e-250, 1e250], ids=["2^-900", "2^900", "1e-250", "1e250"])
def test_separability_does_not_depend_on_the_field_scale(scale):
    # the rule is scale-free; numerators near 1e-271 once divided 0 by 0 in the product
    # residual, and numerators near 1e271 overflowed it
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        cfg = make_position_config(n)
        for st in (random_separable(rng, n), random_state(rng, n)):
            f = position_map(st, cfg)
            g = RationalField(Polynomial(f.numerator.coeffs * scale), f.denominator_spec)
            got, want = field_separability(g, cfg), field_separability(f, cfg)
            assert got[0] == want[0] == is_separable_tensor(st)
            if scale in (2.0**-900, 2.0**900):
                assert got == want


def test_separability_rejects_zero_state():
    cfg = make_position_config(2)
    with pytest.raises(ValueError):
        is_separable_geometric(QubitState(2, np.zeros(4)), cfg)


def test_factorizable_qubits():
    bell = make_named_state("bell00+", 2)
    st = tensor(make_basis_state(1, "0"), bell)
    assert factorizable_qubits(st) == (1,)
    assert factorizable_qubits(make_named_state("ghz", 3)) == ()
    prod = tensor(
        tensor(make_basis_state(1, "0"), make_basis_state(1, "1")),
        QubitState(1, np.array([1.0, 1j]) / np.sqrt(2)),
    )
    assert factorizable_qubits(prod) == (1, 2, 3)


def test_defect_set_json():
    cfg = make_position_config(2)
    d = extract_defects(position_map(make_basis_state(2, "00"), cfg))
    out = d.to_dict()
    assert out["poles"] == [[-1.0, 0.0, 1], [1.0, 0.0, 1]]
    assert out["zeros"] == []
    assert out["infinity_charge"] == -2
