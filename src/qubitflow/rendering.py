"""Grid sampling, CSV and SVG output, and projection onto the unit sphere.

The sphere projection pulls the planar velocity back through the inverse
stereographic map from the north pole: at a sphere point p = (x, y, z) the
tangent field is U(p) = M(p) V(g(p)) with g the projection to the plane and

    M = [[-x*x + 1 - z, -x*y],
         [-x*y, -y*y + 1 - z],
         [x*(1 - z), y*(1 - z)]]

which keeps U tangent to the sphere by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defects import DefectSet, HaloReport
from .fields import eval_many

POLE_KEEPOUT = 1e-9
HALO_COLORS = ("red", "green", "blue", "brown")


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


def sample_grid(field, bbox, resolution=(48, 48), clip: float = 10.0) -> FieldGrid:
    """Sample the velocity on an inclusive-endpoint grid.

    Points within 1e-9 of a pole get a zero vector and the clipped flag;
    vectors longer than ``clip`` are rescaled to that length, keeping their
    direction, and flagged as well.
    """
    xmin, xmax, ymin, ymax = (float(b) for b in bbox)
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 in each direction")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounding box is degenerate")
    if clip <= 0:
        raise ValueError("clip length must be positive")
    gx = np.tile(np.linspace(xmin, xmax, nx), ny)
    gy = np.repeat(np.linspace(ymin, ymax, ny), nx)
    z = gx + 1j * gy
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
    for arr in (gx, gy, gu, gv, gc):
        arr.setflags(write=False)
    return FieldGrid((xmin, xmax, ymin, ymax), nx, ny, gx, gy, gu, gv, gc)


def grid_to_csv(grid: FieldGrid) -> str:
    """Columns x,y,u,v,clipped; floats printed with shortest round-trip repr."""
    lines = ["x,y,u,v,clipped"]
    for i in range(grid.x.size):
        lines.append(
            f"{float(grid.x[i])!r},{float(grid.y[i])!r},"
            f"{float(grid.u[i])!r},{float(grid.v[i])!r},{int(grid.clipped[i])}"
        )
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse grid CSV back into (x, y, u, v, clipped) arrays."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "x,y,u,v,clipped":
        raise ValueError("missing grid CSV header")
    cols = [[], [], [], [], []]
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad CSV row: {ln!r}")
        for c in range(4):
            cols[c].append(float(parts[c]))
        cols[4].append(bool(int(parts[4])))
    return (
        np.array(cols[0]),
        np.array(cols[1]),
        np.array(cols[2]),
        np.array(cols[3]),
        np.array(cols[4], dtype=bool),
    )


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


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
    xmin, xmax, ymin, ymax = grid.bbox
    span_x = xmax - xmin
    span_y = ymax - ymin
    margin = 0.05 * max(span_x, span_y)
    scale = (width - 20.0) / (span_x + 2 * margin)
    height = int(round((span_y + 2 * margin) * scale + 20))

    def px(xv: float) -> float:
        return 10.0 + (xv - xmin + margin) * scale

    def py(yv: float) -> float:
        return height - 10.0 - (yv - ymin + margin) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    mags = np.hypot(grid.u, grid.v)
    top = float(mags.max()) if mags.size else 0.0
    cell = min(span_x / max(grid.nx - 1, 1), span_y / max(grid.ny - 1, 1))
    alen = 0.45 * cell * scale
    for i in range(grid.x.size):
        if mags[i] == 0.0:
            continue
        dirx, diry = grid.u[i] / mags[i], grid.v[i] / mags[i]
        length = alen * mags[i] / top
        x0, y0 = px(grid.x[i]), py(grid.y[i])
        x1 = x0 + dirx * length
        y1 = y0 - diry * length
        ang = math.atan2(y1 - y0, x1 - x0)
        hx1 = x1 - 0.35 * length * math.cos(ang - 0.5)
        hy1 = y1 - 0.35 * length * math.sin(ang - 0.5)
        hx2 = x1 - 0.35 * length * math.cos(ang + 0.5)
        hy2 = y1 - 0.35 * length * math.sin(ang + 0.5)
        color = "#b0b0b0" if grid.clipped[i] else "#303030"
        parts.append(
            f'<path d="M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)} '
            f'M {_fmt(hx1)} {_fmt(hy1)} L {_fmt(x1)} {_fmt(y1)} L {_fmt(hx2)} {_fmt(hy2)}" '
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


def _pullback(field, theta: np.ndarray, phi: np.ndarray, skip_poles: bool = False):
    """(theta, phi, points, tangents M(p) V(g(p))) at arrays of angles, one row each.

    With ``skip_poles``, points whose planar image is near a pole are dropped.
    """
    st = np.sin(theta)
    x, y, zc = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
    w = x / (1.0 - zc) + 1j * (y / (1.0 - zc))
    if skip_poles:
        keep = ~_near_pole(field, w)
        theta, phi, x, y, zc, w = (a[keep] for a in (theta, phi, x, y, zc, w))
    f = eval_many(field, w)
    u, v = f.real, -f.imag
    tangents = np.column_stack(
        [
            (-x * x + 1.0 - zc) * u - x * y * v,
            -x * y * u + (-y * y + 1.0 - zc) * v,
            x * (1.0 - zc) * u + y * (1.0 - zc) * v,
        ]
    )
    return theta, phi, np.column_stack([x, y, zc]), tangents


def _samples(theta, phi, points, tangents) -> list[SphereSample]:
    return [
        SphereSample(t, p, tuple(pt), tuple(tg))
        for t, p, pt, tg in zip(theta.tolist(), phi.tolist(), points.tolist(), tangents.tolist())
    ]


def sphere_tangent(field, theta: float, phi: float) -> SphereSample:
    """Pull the planar velocity back to the sphere at colatitude theta."""
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    return _samples(*_pullback(field, np.array([float(theta)]), np.array([float(phi)])))[0]


def stereographic_project(field, resolution=(24, 48)) -> list[SphereSample]:
    """Sample the pulled-back field on a latitude-longitude grid.

    The north pole row (theta = 0) is excluded as the projection point; grid
    nodes whose planar image lands within 1e-9 of a field pole are skipped.
    """
    n_theta, n_phi = int(resolution[0]), int(resolution[1])
    if n_theta < 1 or n_phi < 1:
        raise ValueError("resolution must be at least 1 in each direction")
    theta = np.repeat(math.pi * np.arange(1, n_theta + 1) / n_theta, n_phi)
    phi = np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi, n_theta)
    return _samples(*_pullback(field, theta, phi, skip_poles=True))


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
    and D > 2 diverges.  A small-theta power-law fit is reported alongside.
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
    thetas = np.logspace(-3, -1, 25)
    tangents = _pullback(field, thetas, np.full(thetas.size, 0.7))[3]
    mags = np.maximum(np.hypot(np.hypot(tangents[:, 0], tangents[:, 1]), tangents[:, 2]), 1e-300)
    slope = float(np.polyfit(np.log(thetas), np.log(mags), 1)[0])
    return NorthPoleReport(degree, category, slope)
