"""Grid sampling, CSV and SVG output, and projection onto the unit sphere.

The sphere projection pulls the planar velocity back through the inverse
stereographic map from the north pole: at a sphere point p = (x, y, z) the
tangent field is U(p) = M(p) V(g(p)) with g the projection to the plane and

    M = [[-x*x + 1 - z, -x*y],
         [-x*y, -y*y + 1 - z],
         [x*(1 - z), y*(1 - z)]]

which keeps U tangent to the sphere by construction.  M is 1 - z times an
isometry, the conformal factor of the projection, so |U| = (1 - z)|V|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .defects import DefectSet, HaloReport
from .fields import eval_many
from .polynomials import horner

POLE_KEEPOUT = 1e-9
HALO_COLORS = ("red", "green", "blue", "brown")

# Geometry that depends on a lattice and not on the field (points, their text, sphere nodes)
# is built once per lattice and kept by its builder's lru_cache: _CACHE_SIZE lattices and
# _CACHE_SIZE sphere grids.  A lattice of more than _CACHE_POINTS points is built by the
# uncached ``__wrapped__`` for its one call, so that its text is not held after the call.
_CACHE_SIZE = 8
_CACHE_POINTS = 1 << 16


def _near_pole(field, z: np.ndarray) -> np.ndarray:
    """Mask of the points within POLE_KEEPOUT of a pole of the field."""
    near = np.zeros(z.shape, dtype=bool)
    for a, _ in field.denominator_spec:
        near |= np.abs(z - a) < POLE_KEEPOUT
    return near


@dataclass(frozen=True)
class FieldGrid:
    """Velocity samples on a rectangular grid, row-major with x fastest."""

    bbox: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    nx: int
    ny: int
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    clipped: np.ndarray


def _grid_spec(bbox, resolution, clip: float):
    """The checked ((xmin, xmax, ymin, ymax), (nx, ny)) of a grid; ValueError if unusable."""
    xmin, xmax, ymin, ymax = (float(b) for b in bbox)
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 in each direction")
    if not all(map(math.isfinite, (xmin, xmax, ymin, ymax))):
        raise ValueError(f"bounding box must be finite, got {(xmin, xmax, ymin, ymax)}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounding box is degenerate")
    if not clip > 0:
        raise ValueError(f"clip length must be positive, got {clip}")
    return (xmin, xmax, ymin, ymax), (nx, ny)


class _Lattice:
    """The points of a sample grid and what the writers print of them, made on first use."""

    def __init__(self, bbox, nx, ny, x, y):
        self.bbox, self.nx, self.ny, self.x, self.y = bbox, nx, ny, x, y
        self._canvas = None

    @functools.cached_property
    def z(self) -> np.ndarray:
        return self.x + 1j * self.y

    @functools.cached_property
    def csv_rows(self) -> list[str]:
        """The ``x,y`` that starts each CSV row."""
        xs, ys = (map(repr, np.asarray(a, dtype=float).tolist()) for a in (self.x, self.y))
        return list(map(",".join, zip(xs, ys)))

    def canvas(self, width) -> _Canvas:
        """The SVG frame at ``width`` px; the last width asked for is kept."""
        canvas = self._canvas
        if canvas is None or canvas.width != width:
            canvas = self._canvas = _Canvas(self, width)
        return canvas


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _lattice(key: bytes, nx: int, ny: int) -> _Lattice:
    """The lattice of the bbox with float64 bytes ``key`` (by bit pattern, so that an edge at
    -0.0 does not share the points of 0.0), with read-only points that all its grids share."""
    bbox = tuple(np.frombuffer(key).tolist())
    xmin, xmax, ymin, ymax = bbox
    x = np.tile(np.linspace(xmin, xmax, nx), ny)
    y = np.repeat(np.linspace(ymin, ymax, ny), nx)
    for arr in (x, y):
        arr.setflags(write=False)
    return _Lattice(bbox, nx, ny, x, y)


def _lattice_of(grid: FieldGrid) -> _Lattice:
    """The cached lattice whose own arrays ``grid`` carries, else an uncached one over the grid's
    points, so that a hand-built grid never prints another grid's points.  Looking up a hand-built
    grid, or one whose lattice has left the cache, builds and caches its bbox's lattice again:
    only the points, since the text stays lazy."""
    if grid.nx * grid.ny <= _CACHE_POINTS:
        lattice = _lattice(np.array(grid.bbox, dtype=float).tobytes(), grid.nx, grid.ny)
        if lattice.x is grid.x and lattice.y is grid.y:
            return lattice
    return _Lattice(grid.bbox, grid.nx, grid.ny, grid.x, grid.y)


def sample_grid(field, bbox, resolution=(48, 48), clip: float = 10.0) -> FieldGrid:
    """Sample the velocity on an inclusive-endpoint grid.

    Points within 1e-9 of a pole get a zero vector and the clipped flag;
    vectors longer than ``clip`` are rescaled to that length, keeping their
    direction, and flagged as well.
    """
    bbox, (nx, ny) = _grid_spec(bbox, resolution, clip)
    build = _lattice if nx * ny <= _CACHE_POINTS else _lattice.__wrapped__
    lattice = build(np.array(bbox, dtype=float).tobytes(), nx, ny)
    z = lattice.z
    gc = _near_pole(field, z)
    vals = eval_many(field, z[~gc])
    gu, gv = np.zeros(z.size), np.zeros(z.size)
    gu[~gc], gv[~gc] = vals.real, -vals.imag
    mag = np.hypot(gu, gv)
    over = mag > clip
    scale = clip / mag[over]
    gu[over] *= scale
    gv[over] *= scale
    gc |= over
    for arr in (gu, gv, gc):
        arr.setflags(write=False)
    return FieldGrid(bbox, nx, ny, lattice.x, lattice.y, gu, gv, gc)


def grid_to_csv(grid: FieldGrid) -> str:
    """Columns x,y,u,v,clipped; floats printed with shortest round-trip repr."""
    flags = np.where(grid.clipped, "1", "0").tolist()
    rows = zip(_lattice_of(grid).csv_rows, map(repr, grid.u.tolist()), map(repr, grid.v.tolist()), flags)
    return "\n".join(["x,y,u,v,clipped", *map(",".join, rows)]) + "\n"


def grid_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse grid CSV back into (x, y, u, v, clipped) arrays."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "x,y,u,v,clipped":
        raise ValueError("missing grid CSV header")
    bad = [ln for ln in lines[1:] if ln.count(",") != 4 or ln[-2:] not in (",0", ",1")]
    if bad:
        raise ValueError(f"bad CSV row: {bad[0]!r}")
    cols = list(zip(*(ln.split(",") for ln in lines[1:]))) or [()] * 5
    x, y, u, v = (np.array([float(t) for t in col]) for col in cols[:4])
    return x, y, u, v, np.array([t == "1" for t in cols[4]], dtype=bool)


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


_FMT_INTS = 4096  # integer parts with a table entry, per sign


@functools.cache
def _fmt_tables() -> tuple[np.ndarray, np.ndarray]:
    """Integer parts ("0".."4095", then "-0".."-4095") and fractions ("", ".0001"..".9999")."""
    ints = np.arange(_FMT_INTS).astype("U4")
    # ".0000" strips to "", since its point goes with its zeros
    fracs = np.char.rstrip(np.char.add(".", np.char.zfill(np.arange(10000).astype("U4"), 4)), "0.")
    return np.concatenate([ints, np.char.add("-", ints)]), fracs


def _fmt_many(a: np.ndarray) -> list[str]:
    """``_fmt`` of every entry of a float array, built from table lookups.

    t = |a|·1e4 carries one rounding, at most 2**-28 < 4e-9 for |a| < 4096, so
    rounding t to the nearest integer rounds the exact decimal the same way
    unless t lies within 1e-6 of a half.  Those entries (exact binary ties such
    as 0.03125 among them), entries past the table and non-finite entries are
    formatted by ``_fmt`` itself.
    """
    t = np.abs(a) * 1e4
    inside = t < _FMT_INTS * 1e4 - 1.0  # False for inf and nan
    t = np.where(inside, t, 0.0)
    exact = inside & (np.abs(t - np.floor(t) - 0.5) > 1e-6)
    ip, fp = np.divmod(np.rint(t).astype(np.int64), 10000)
    ints, fracs = _fmt_tables()
    out = np.char.add(ints[ip + _FMT_INTS * np.signbit(a)], fracs[fp]).tolist()
    for i in np.flatnonzero(~exact).tolist():
        out[i] = _fmt(float(a[i]))
    return out


class _Canvas:
    """A lattice's SVG frame at one width: scale, height, and each arrow's start and its text."""

    def __init__(self, lattice: _Lattice, width):
        self.width = width
        self.xmin, xmax, self.ymin, ymax = lattice.bbox
        span_x, span_y = xmax - self.xmin, ymax - self.ymin
        self.margin = 0.05 * max(span_x, span_y)
        self.scale = (width - 20.0) / (span_x + 2 * self.margin)
        self.height = int(round((span_y + 2 * self.margin) * self.scale + 20))
        self.cell = min(span_x / max(lattice.nx - 1, 1), span_y / max(lattice.ny - 1, 1))
        self.x0, self.y0 = self.px(lattice.x), self.py(lattice.y)
        self.starts = [f'<path d="M {sx} {sy} L ' for sx, sy in zip(_fmt_many(self.x0), _fmt_many(self.y0))]

    def px(self, xv):
        return 10.0 + (xv - self.xmin + self.margin) * self.scale

    def py(self, yv):
        return self.height - 10.0 - (yv - self.ymin + self.margin) * self.scale


def render_svg(
    grid: FieldGrid,
    defect_set: DefectSet | None = None,
    halo_report: HaloReport | None = None,
    width: int = 640,
) -> str:
    """Deterministic SVG: arrow per sample, diamonds for poles, circles for zeros.

    Zeros claimed by a halo take that center's color (cycling red, green,
    blue, brown in center order); unclaimed zeros are purple, and zeros drawn
    without any halo report are black.  A unit scale bar sits bottom left.
    """
    canvas = _lattice_of(grid).canvas(width)
    px, py, scale, height, cell = canvas.px, canvas.py, canvas.scale, canvas.height, canvas.cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    mags = np.hypot(grid.u, grid.v)
    top = float(mags.max()) if mags.size else 0.0
    alen = 0.45 * cell * scale
    # one arrow per nonzero sample; each barb turns the screen direction (dx, dy) by -/+ 0.5 rad
    on = mags != 0.0
    dx, dy = grid.u[on] / mags[on], -grid.v[on] / mags[on]
    length = alen * mags[on] / top
    x1, y1 = canvas.x0[on] + dx * length, canvas.y0[on] + dy * length
    back, c, s = 0.35 * length, math.cos(0.5), math.sin(0.5)
    ends = (x1 - back * (dx * c + dy * s), y1 - back * (dy * c - dx * s),
            x1 - back * (dx * c - dy * s), y1 - back * (dy * c + dx * s))
    colors = ["#b0b0b0" if k else "#303030" for k in grid.clipped[on].tolist()]
    starts = canvas.starts if on.all() else compress(canvas.starts, on.tolist())
    cols = (_fmt_many(a) for a in (x1, y1, *ends))
    for start, tx, ty, hx1, hy1, hx2, hy2, color in zip(starts, *cols, colors):
        parts.append(
            f'{start}{tx} {ty} M {hx1} {hy1} L {tx} {ty} L {hx2} {hy2}" '
            f'stroke="{color}" fill="none" stroke-width="1"/>'
        )
    zero_color: dict[complex, str] = {}
    if halo_report is not None:
        for idx, halo in enumerate(halo_report.halos):
            color = HALO_COLORS[idx % len(HALO_COLORS)]
            for vertex in halo.vertices:
                zero_color[vertex] = color
    if defect_set is not None:
        r = max(3.0, 0.12 * cell * scale)
        for z, _m in defect_set.zeros:
            if halo_report is None:
                color = "black"
            else:
                color = zero_color.get(z, "purple")
            parts.append(
                f'<circle cx="{_fmt(px(z.real))}" cy="{_fmt(py(z.imag))}" r="{_fmt(r)}" '
                f'fill="{color}" stroke="black" stroke-width="0.8"/>'
            )
        for p, _m in defect_set.poles:
            cx, cy = px(p.real), py(p.imag)
            parts.append(
                f'<path d="M {_fmt(cx)} {_fmt(cy - 1.3 * r)} L {_fmt(cx + 1.3 * r)} {_fmt(cy)} '
                f'L {_fmt(cx)} {_fmt(cy + 1.3 * r)} L {_fmt(cx - 1.3 * r)} {_fmt(cy)} Z" '
                f'fill="white" stroke="black" stroke-width="1.2"/>'
            )
    bar_y = height - 6.0
    parts.append(
        f'<path d="M 12 {_fmt(bar_y)} L {_fmt(12 + scale)} {_fmt(bar_y)}" '
        f'stroke="black" stroke-width="2"/>'
    )
    parts.append(f'<text x="{_fmt(14 + scale)}" y="{_fmt(bar_y)}" font-size="10">1</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class SphereSample:
    """Tangent vector of the pulled-back field at one sphere point."""

    theta: float
    phi: float
    point: tuple[float, float, float]
    tangent: tuple[float, float, float]


class _SphereNodes:
    """Sphere points p = (x, y, zc) at arrays of angles, their planar images w, and the
    angles and points as the lists that samples carry."""

    def __init__(self, theta: np.ndarray, phi: np.ndarray):
        st = np.sin(theta)
        self.x, self.y, self.zc = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
        self.w = self.x / (1.0 - self.zc) + 1j * (self.y / (1.0 - self.zc))
        self.thetas, self.phis = theta.tolist(), phi.tolist()
        self.points = list(map(tuple, np.column_stack([self.x, self.y, self.zc]).tolist()))

    def samples(self, field, skip_poles: bool = False) -> list[SphereSample]:
        """The pulled-back tangents M(p) V(g(p)), without the nodes near a pole if ``skip_poles``."""
        x, y, zc, w = self.x, self.y, self.zc, self.w
        thetas, phis, points = self.thetas, self.phis, self.points
        if skip_poles:
            keep = ~_near_pole(field, w)
            if not keep.all():
                x, y, zc, w = (a[keep] for a in (x, y, zc, w))
                flags = keep.tolist()
                thetas, phis, points = (list(compress(a, flags)) for a in (thetas, phis, points))
        f = eval_many(field, w)
        u, v = f.real, -f.imag
        tangents = np.column_stack(
            [
                (-x * x + 1.0 - zc) * u - x * y * v,
                -x * y * u + (-y * y + 1.0 - zc) * v,
                x * (1.0 - zc) * u + y * (1.0 - zc) * v,
            ]
        )
        # filling each instance dict skips the frozen __init__, most of a sample's cost
        out = []
        new = object.__new__
        for t, p, pt, tg in zip(thetas, phis, points, map(tuple, tangents.tolist())):
            sample = new(SphereSample)
            d = sample.__dict__
            d["theta"], d["phi"], d["point"], d["tangent"] = t, p, pt, tg
            out.append(sample)
        return out


def sphere_tangent(field, theta: float, phi: float) -> SphereSample:
    """Pull the planar velocity back to the sphere at colatitude theta."""
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    return _SphereNodes(np.array([float(theta)]), np.array([float(phi)])).samples(field)[0]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sphere_grid(n_theta: int, n_phi: int) -> _SphereNodes:
    theta = np.repeat(math.pi * np.arange(1, n_theta + 1) / n_theta, n_phi)
    phi = np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi, n_theta)
    return _SphereNodes(theta, phi)


def stereographic_project(field, resolution=(24, 48)) -> list[SphereSample]:
    """Sample the pulled-back field on a latitude-longitude grid.

    The north pole row (theta = 0) is excluded as the projection point; grid
    nodes whose planar image lands within 1e-9 of a field pole are skipped.
    """
    n_theta, n_phi = int(resolution[0]), int(resolution[1])
    if n_theta < 1 or n_phi < 1:
        raise ValueError("resolution must be at least 1 in each direction")
    build = _sphere_grid if n_theta * n_phi <= _CACHE_POINTS else _sphere_grid.__wrapped__
    return build(n_theta, n_phi).samples(field, skip_poles=True)


@dataclass(frozen=True)
class NorthPoleReport:
    """Behavior of the pulled-back field approaching the projection point."""

    degree: int  # numerator degree minus denominator degree
    category: str  # "vanishes", "bounded-discontinuous", "diverges"
    fitted_exponent: float  # slope of log |U| against log theta


def north_pole_classify(field) -> NorthPoleReport:
    """Classify the north-pole limit from the field's degree at infinity.

    The tangent magnitude scales as theta**(2 - D) with D the degree at
    infinity, so D < 2 vanishes, D = 2 stays bounded but direction-dependent,
    and D > 2 diverges.  A small-theta fit of log |U| = log(1 - z) + log |f(w)|
    is reported alongside, with f(w) = w**D rev(1/w) / prod (1 - a/w)**m from
    the reversed numerator ``rev``, in logs so that no sample overflows.
    """
    if field.is_zero():
        raise ValueError("the zero field has no degree")
    degree = field.numerator.degree - sum(m for _, m in field.denominator_spec)
    if degree < 2:
        category = "vanishes"
    elif degree == 2:
        category = "bounded-discontinuous"
    else:
        category = "diverges"
    log_theta, w, inv_w, log_1mz, log_w = _north_probe()
    rev_abs = np.maximum(np.abs(horner(field.numerator.coeffs[::-1], inv_w)), 1e-300)
    den = sum(m * np.log(np.abs(1.0 - a / w)) for a, m in field.denominator_spec)
    log_mags = log_1mz + np.log(rev_abs) + degree * log_w - den
    slope = float(np.polyfit(log_theta, log_mags, 1)[0])
    return NorthPoleReport(degree, category, slope)


@functools.cache
def _north_probe() -> tuple[np.ndarray, ...]:
    """The fit's 25 points at phi = 0.7: log theta, w, 1/w, log(1 - z) and log|w|."""
    thetas = np.logspace(-3, -1, 25)
    st, zc = np.sin(thetas), np.cos(thetas)
    w = st * np.cos(0.7) / (1.0 - zc) + 1j * (st * np.sin(0.7) / (1.0 - zc))
    return np.log(thetas), w, 1.0 / w, np.log(1.0 - zc), np.log(np.abs(w))
