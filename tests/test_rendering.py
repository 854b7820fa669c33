"""Grid sampling, CSV/SVG artifacts, and the spherical pullback."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qubitflow import (
    FieldGrid,
    QubitState,
    charge_map,
    detect_halos,
    extract_defects,
    grid_from_csv,
    grid_to_csv,
    make_basis_state,
    make_named_state,
    make_position_config,
    north_pole_classify,
    position_map,
    qft,
    render_svg,
    sample_grid,
    sphere_tangent,
    stereographic_project,
)
from qubitflow.fields import LaurentField
from qubitflow import rendering
from qubitflow.rendering import _fmt, _fmt_many, _fmt_tables


def test_sample_grid_identity_field():
    grid = sample_grid(LaurentField({1: 1.0}), (-1, 1, -1, 1), (3, 3))
    assert grid.x.size == 9
    center = 4  # row-major with x fastest
    assert (grid.x[center], grid.y[center]) == (0.0, 0.0)
    assert grid.u[center] == 0.0 and grid.v[center] == 0.0
    # f = z at (1, 1): u = Re = 1, v = -Im = -1.
    corner = 8
    assert (grid.u[corner], grid.v[corner]) == (1.0, -1.0)


def test_sample_grid_reciprocal_field():
    grid = sample_grid(LaurentField({-1: 1.0}), (0, 2, -1, 1), (3, 3))
    i = int(np.flatnonzero((grid.x == 1.0) & (grid.y == 0.0))[0])
    assert abs(grid.u[i] - 1.0) < 1e-15 and abs(grid.v[i]) < 1e-15
    # The grid point sitting on the pole is flagged and zeroed.
    j = int(np.flatnonzero((grid.x == 0.0) & (grid.y == 0.0))[0])
    assert grid.clipped[j] and grid.u[j] == 0.0 and grid.v[j] == 0.0


def test_sample_grid_clipping():
    grid = sample_grid(LaurentField({-3: 1.0}), (-0.5, 0.5, -0.5, 0.5), (5, 5), clip=10.0)
    mags = np.hypot(grid.u, grid.v)
    assert np.all(mags <= 10.0 + 1e-12)
    assert grid.clipped.any()
    assert np.all(mags[grid.clipped & (mags > 0)] > 10.0 - 1e-9)
    assert np.all(mags[~grid.clipped] <= 10.0)


def test_sample_grid_validation():
    f = LaurentField({1: 1.0})
    with pytest.raises(ValueError):
        sample_grid(f, (-1, 1, -1, 1), (1, 3))
    with pytest.raises(ValueError):
        sample_grid(f, (1, -1, -1, 1), (3, 3))
    with pytest.raises(ValueError):
        sample_grid(f, (-1, 1, -1, 1), (3, 3), clip=0.0)


@pytest.mark.parametrize("bbox, clip, message", [
    ((-1, 1, -1, 1), float("nan"), "clip length must be positive, got nan"),
    ((-1, 1, -1, 1), -1.0, "clip length must be positive, got -1.0"),
    ((-np.inf, np.inf, -2, 2), 10.0, "bounding box must be finite"),
    ((-1, 1, np.nan, 2), 10.0, "bounding box must be finite"),
])
def test_sample_grid_rejects_non_finite_arguments(bbox, clip, message):
    with pytest.raises(ValueError, match=message):
        sample_grid(LaurentField({1: 1.0}), bbox, (3, 3), clip=clip)


def test_bell_grid_has_eight_interior_minima():
    bell = make_named_state("bell00+", 2)
    grid = sample_grid(charge_map(bell), (-2, 2, -2, 2), (64, 64))
    mag = np.hypot(grid.u, grid.v).reshape(64, 64)
    # Clipped samples form a plateau whose roundoff would fake minima.
    mag[grid.clipped.reshape(64, 64)] = np.inf
    minima = []
    for r in range(1, 63):
        for c in range(1, 63):
            patch = mag[r - 1 : r + 2, c - 1 : c + 2].copy()
            val = patch[1, 1]
            patch[1, 1] = np.inf
            if val < patch.min():
                minima.append(complex(grid.x[r * 64 + c], grid.y[r * 64 + c]))
    assert len(minima) == 8
    want = [np.exp(1j * np.pi * (2 * k + 1) / 8) for k in range(8)]
    for z in minima:
        assert min(abs(z - w) for w in want) < 0.1


def test_csv_round_trip_is_exact():
    grid = sample_grid(charge_map(make_named_state("bell00+", 2)), (-2, 2, -2, 2), (8, 8))
    text = grid_to_csv(grid)
    x, y, u, v, clipped = grid_from_csv(text)
    assert np.array_equal(x, grid.x)
    assert np.array_equal(y, grid.y)
    assert np.array_equal(u, grid.u)
    assert np.array_equal(v, grid.v)
    assert np.array_equal(clipped, grid.clipped)


def _reference_fmt(x):
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _reference_arrows(grid, width=640):
    """Arrow paths of render_svg, drawn one sample at a time with an angle round trip."""
    xmin, xmax, ymin, ymax = grid.bbox
    span_x, span_y = xmax - xmin, ymax - ymin
    margin = 0.05 * max(span_x, span_y)
    scale = (width - 20.0) / (span_x + 2 * margin)
    height = int(round((span_y + 2 * margin) * scale + 20))
    mags = np.hypot(grid.u, grid.v)
    top = float(mags.max()) if mags.size else 0.0
    cell = min(span_x / max(grid.nx - 1, 1), span_y / max(grid.ny - 1, 1))
    alen = 0.45 * cell * scale
    f = _reference_fmt
    lines = []
    for i in range(grid.x.size):
        if mags[i] == 0.0:
            continue
        dirx, diry = grid.u[i] / mags[i], grid.v[i] / mags[i]
        length = alen * mags[i] / top
        x0 = 10.0 + (grid.x[i] - xmin + margin) * scale
        y0 = height - 10.0 - (grid.y[i] - ymin + margin) * scale
        x1 = x0 + dirx * length
        y1 = y0 - diry * length
        ang = math.atan2(y1 - y0, x1 - x0)
        hx1 = x1 - 0.35 * length * math.cos(ang - 0.5)
        hy1 = y1 - 0.35 * length * math.sin(ang - 0.5)
        hx2 = x1 - 0.35 * length * math.cos(ang + 0.5)
        hy2 = y1 - 0.35 * length * math.sin(ang + 0.5)
        color = "#b0b0b0" if grid.clipped[i] else "#303030"
        lines.append(
            f'<path d="M {f(x0)} {f(y0)} L {f(x1)} {f(y1)} '
            f'M {f(hx1)} {f(hy1)} L {f(x1)} {f(y1)} L {f(hx2)} {f(hy2)}" '
            f'stroke="{color}" fill="none" stroke-width="1"/>'
        )
    return lines


def _reference_csv(grid):
    lines = ["x,y,u,v,clipped"]
    for i in range(grid.x.size):
        lines.append(
            f"{float(grid.x[i])!r},{float(grid.y[i])!r},"
            f"{float(grid.u[i])!r},{float(grid.v[i])!r},{int(grid.clipped[i])}"
        )
    return "\n".join(lines) + "\n"


def _seeded_state(seed, n):
    rng = np.random.default_rng(seed)
    return QubitState(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n)).normalized()


def _position_case(n):
    cfg = make_position_config(n)
    f = position_map(_seeded_state(40 + n, n), cfg)
    dset = extract_defects(f)
    return sample_grid(f, (-2.5, 2.5, -2.5, 2.5), (24, 20)), dset, detect_halos(dset, cfg)


def _charge_case(n):
    f = charge_map(_seeded_state(50 + n, n))
    return sample_grid(f, (-2, 2, -1.5, 2.5), (21, 19)), extract_defects(f), None


def _clipped_case():
    # 11 points per axis put a sample on the pole at 0; its neighbours exceed the clip.
    f = LaurentField({-2: 1.0, 1: 0.5j})
    grid = sample_grid(f, (-1, 1, -1, 1), (11, 11), clip=3.0)
    assert grid.clipped.sum() > 1 and np.count_nonzero(np.hypot(grid.u, grid.v) == 0.0) == 1
    return grid, extract_defects(f), None


def _hand_built_case():
    # a sampled grid fills the cached text of its lattice; a grid built by hand on the same
    # bbox and resolution, with other points, must print its own
    f = charge_map(_seeded_state(53, 3))
    sampled = sample_grid(f, (-2, 2, -1.5, 2.5), (21, 19))
    render_svg(sampled), grid_to_csv(sampled)
    x, y = sampled.x + 0.01, sampled.y[::-1].copy()
    grid = FieldGrid(sampled.bbox, 21, 19, x, y, sampled.u, sampled.v, sampled.clipped)
    return grid, extract_defects(f), None


def _signed_zero_edge_case():
    # bboxes that differ only in the sign of a zero edge have different points and text
    f = charge_map(_seeded_state(52, 2))
    plus = sample_grid(f, (-1, 0.0, -1, 0.0), (5, 4))
    render_svg(plus), grid_to_csv(plus)
    grid = sample_grid(f, (-1, -0.0, -1, -0.0), (5, 4))
    assert np.signbit(grid.x[-1]) and np.signbit(grid.y[-1]) and not np.signbit(plus.x[-1])
    return grid, extract_defects(f), None


def _wide_case():
    grid, dset, report = _charge_case(3)
    render_svg(grid, dset)  # fills the lattice's frame at the default width first
    return grid, dset, report


def _empty_case():
    arrays = [np.array([])] * 4 + [np.array([], dtype=bool)]
    f = charge_map(make_basis_state(1, "0"), d=1)
    return FieldGrid((-1.0, 1.0, -1.0, 1.0), 0, 0, *arrays), extract_defects(f), None


WRITER_CASES = {
    "position-n2-halos": lambda: _position_case(2),
    "position-n3-halos": lambda: _position_case(3),
    "charge-n2": lambda: _charge_case(2),
    "charge-n3": lambda: _charge_case(3),
    "clipped-and-pole": _clipped_case,
    "empty": _empty_case,
    "charge-n3-wide": _wide_case,
    "hand-built-on-a-cached-lattice": _hand_built_case,
    "signed-zero-bbox-edge": _signed_zero_edge_case,
}
# At 9000 px about half the arrow coordinates pass the formatter's integer table (4096),
# so render_svg itself formats them through the scalar fallback.
WRITER_WIDTHS = {"charge-n3-wide": 9000}


def _clear_caches():
    for cache in (rendering._lattice, rendering._sphere_grid, rendering._north_probe):
        cache.cache_clear()


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writers_match_per_sample_reference(case):
    _clear_caches()
    grid, dset, report = WRITER_CASES[case]()
    width = WRITER_WIDTHS.get(case, 640)
    cold = render_svg(grid, dset, report, width=width), grid_to_csv(grid)
    # the second call reads the lattice's cached text
    assert (render_svg(grid, dset, report, width=width), grid_to_csv(grid)) == cold
    svg = cold[0].splitlines()
    arrows = _reference_arrows(grid, width)
    assert len(arrows) == np.count_nonzero(np.hypot(grid.u, grid.v))
    # Arrows follow the <svg> and background lines; markers and the scale bar follow them.
    assert svg[2 : 2 + len(arrows)] == arrows
    assert not any('fill="none" stroke-width="1"/>' in ln for ln in svg[2 + len(arrows) :])
    text = grid_to_csv(grid)
    # line lists, which pytest diffs quickly on failure
    assert text.split("\n") == _reference_csv(grid).split("\n")
    back = grid_from_csv(text)
    for got, want in zip(back, (grid.x, grid.y, grid.u, grid.v, grid.clipped)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_lattice_cache_stays_at_its_bound():
    _clear_caches()
    f = charge_map(_seeded_state(51, 2))
    first = sample_grid(f, (-1, 1, -1, 1), (3, 3))
    caches = rendering._lattice, rendering._sphere_grid, rendering._north_probe
    for k in range(rendering._CACHE_SIZE + 3):
        grid = sample_grid(f, (-1, 1, -1, 1), (4 + k, 3))
        render_svg(grid), grid_to_csv(grid)
        stereographic_project(f, (2, 3 + k)), north_pole_classify(f)
        assert all(c.cache_info().currsize <= rendering._CACHE_SIZE for c in caches)
    assert [c.cache_info().currsize for c in caches] == [rendering._CACHE_SIZE] * 2 + [1]
    # a lattice past the point bound is not kept, neither when sampled nor when printed
    held = rendering._lattice.cache_info()
    big = sample_grid(f, (-1, 1, -1, 1), (rendering._CACHE_POINTS // 256 + 1, 256))
    assert rendering._lattice_of(big).x is big.x
    assert rendering._lattice.cache_info() == held
    # a grid whose lattice has left the cache prints its own points
    assert grid_to_csv(first) == _reference_csv(first)
    assert render_svg(first).splitlines()[2:-3] == _reference_arrows(first)


def test_writers_agree_across_threads():
    # threads share the lattice cache; more resolutions and widths than it holds keep it turning over
    f = charge_map(_seeded_state(51, 2))
    jobs = [((4 + k % 10, 3), 640 + 10 * (k % 3)) for k in range(24)]

    def run(job):
        res, width = job
        grid = sample_grid(f, (-1, 1, -1, 1), res)
        return grid_to_csv(grid), render_svg(grid, width=width), repr(stereographic_project(f, (2, res[0])))

    want = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(run, jobs * 16, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 16


def test_csv_prints_repeated_and_signed_zero_coordinates_exactly():
    x = np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 1e-300, -0.0])
    y = np.array([-0.0, -0.0, -0.0, 0.1, 0.1, 0.1, 0.1, 0.0])
    u = np.array([-0.0, 0.0, 1.5, -0.0, 2.0, 0.1 + 0.2, -3.0, 0.0])
    v = np.array([0.0, -0.0, 0.0, 1e-17, -0.0, 7.0, 0.0, -0.0])
    clipped = np.array([0, 1, 0, 0, 1, 0, 0, 1], dtype=bool)
    grid = FieldGrid((-1.0, 1.0, -1.0, 1.0), 4, 2, x, y, u, v, clipped)
    text = grid_to_csv(grid)
    assert text == _reference_csv(grid)
    assert text.splitlines()[2] == "-0.0,-0.0,0.0,-0.0,1"
    back = grid_from_csv(text)
    for got, want in zip(back, (x, y, u, v, clipped)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_fmt_many_equals_fmt_on_every_entry():
    rng = np.random.default_rng(7)
    k = rng.integers(-8_000_000, 8_000_000, 50_000)
    ties = (k + 0.5) / 1e4  # exact binary ties where k + 0.5 has few significant bits
    values = np.concatenate([
        rng.uniform(-800.0, 800.0, 100_000),  # screen coordinates
        ties,
        ties + rng.uniform(-1e-7, 1e-7, ties.size),  # near ties
        rng.uniform(-1e5, 1e5, 1_000),  # past the integer table
        [0.03125, 1.03125, -0.03125, 0.0, -0.0, -1e-9, 1e-9, -4e-5, 4095.99994, 4095.99996,
         -4095.99996, 4096.0, 1e300, np.inf, -np.inf, np.nan],
    ])
    assert values.size > 200_000
    got = _fmt_many(values)
    want = [_fmt(v) for v in values.tolist()]
    assert [(v, g) for v, g, w in zip(values.tolist(), got, want) if g != w] == []
    assert _fmt_many(np.array([0.03125, 1.03125, -0.0, -1e-9, 1e-9])) == ["0.0312", "1.0312", "-0", "-0", "0"]
    assert _fmt_many(np.array([])) == []


def test_fmt_tables_equal_the_formatted_digits():
    ints, fracs = _fmt_tables()
    assert ints.tolist() == [str(k) for k in range(4096)] + [f"-{k}" for k in range(4096)]
    assert fracs.dtype == np.dtype("U5")
    assert fracs.tolist() == [""] + [f".{k:04d}".rstrip("0") for k in range(1, 10000)]


def test_csv_header_required():
    with pytest.raises(ValueError):
        grid_from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        grid_from_csv("x,y,u,v,clipped\n1,2,3\n")


def test_csv_errors_name_the_fault():
    with pytest.raises(ValueError, match="missing grid CSV header"):
        grid_from_csv("")
    with pytest.raises(ValueError, match="bad CSV row: '1,2,3'"):
        grid_from_csv("x,y,u,v,clipped\n1,2,3,4,0\n1,2,3\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        grid_from_csv("x,y,u,v,clipped\n1,a,3,4,0\n")
    for flag in ("yes", "2", "-1", "07", "10", " 1"):
        with pytest.raises(ValueError, match=f"bad CSV row: '1,2,3,4,{flag}'"):
            grid_from_csv(f"x,y,u,v,clipped\n1,2,3,4,0\n1,2,3,4,{flag}\n")


def test_svg_deterministic():
    f = charge_map(make_basis_state(1, "0"), d=1)
    grid = sample_grid(f, (-1, 1, -1, 1), (6, 6))
    dset = extract_defects(f)
    assert render_svg(grid, dset) == render_svg(grid, dset)


def test_svg_ground_state_markers():
    f = charge_map(make_basis_state(1, "0"), d=1)  # 1/z
    grid = sample_grid(f, (-1, 1, -1, 1), (6, 6))
    svg = render_svg(grid, extract_defects(f))
    assert svg.count("<circle") == 0
    assert svg.count('fill="white" stroke="black"') == 1  # one pole diamond


def test_svg_qft_halo_colors():
    cfg = make_position_config(3)
    f = position_map(qft(make_basis_state(3, "000")), cfg)
    dset = extract_defects(f)
    report = detect_halos(dset, cfg)
    grid = sample_grid(f, (-2.5, 2.5, -2.5, 2.5), (12, 12))
    svg = render_svg(grid, dset, report)
    assert svg.count("<circle") == 18
    for color in ("red", "green", "blue"):
        assert svg.count(f'fill="{color}"') == 6
    assert svg.count('fill="white" stroke="black"') == 3


def test_svg_handles_empty_grid():
    empty = FieldGrid(
        (-1.0, 1.0, -1.0, 1.0),
        0,
        0,
        np.array([]),
        np.array([]),
        np.array([]),
        np.array([]),
        np.array([], dtype=bool),
    )
    f = charge_map(make_basis_state(1, "0"), d=1)
    svg = render_svg(empty, extract_defects(f))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count('fill="white" stroke="black"') == 1


def test_sphere_tangent_south_pole():
    constant = LaurentField({0: 1.0})
    s = sphere_tangent(constant, np.pi, 0.0)
    assert np.allclose(s.point, [0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(s.tangent, [2.0, 0.0, 0.0], atol=1e-12)


def test_sphere_samples_are_tangent():
    cfg = make_position_config(2)
    f = position_map(make_named_state("bell00+", 2), cfg)
    samples = stereographic_project(f, (10, 12))
    assert samples
    for s in samples:
        assert abs(np.dot(s.point, s.tangent)) < 1e-9
        assert abs(np.dot(s.point, s.point) - 1.0) < 1e-12
        assert 0.0 < s.theta <= np.pi


def test_sphere_grid_excludes_north_pole_row():
    samples = stereographic_project(LaurentField({0: 1.0}), (5, 8))
    # Latitudes are k*pi/5 for k = 1..5: the pole row is dropped entirely.
    assert len(samples) == 5 * 8
    assert abs(min(s.theta for s in samples) - np.pi / 5) < 1e-12
    assert abs(max(s.theta for s in samples) - np.pi) < 1e-12


def test_north_pole_classification():
    low = charge_map(make_basis_state(2, "00"))  # z^-4
    rep = north_pole_classify(low)
    assert rep.degree == -4
    assert rep.category == "vanishes"
    assert abs(rep.fitted_exponent - 6.0) < 0.1
    high = charge_map(make_basis_state(2, "11"))  # z^4
    rep = north_pole_classify(high)
    assert rep.degree == 4
    assert rep.category == "diverges"
    assert abs(rep.fitted_exponent + 2.0) < 0.1
    flat = LaurentField({2: 1.0})
    rep = north_pole_classify(flat)
    assert rep.category == "bounded-discontinuous"
    assert abs(rep.fitted_exponent) < 0.1


def test_north_pole_position_ground_state():
    cfg = make_position_config(3)
    f = position_map(make_basis_state(3, "000"), cfg)
    rep = north_pole_classify(f)
    assert rep.degree == -9
    assert rep.category == "vanishes"


def test_north_pole_rejects_zero_field():
    with pytest.raises(ValueError):
        north_pole_classify(LaurentField({}))
