"""Dense complex polynomial arithmetic, all-roots finding, and derivative evaluation.

The root finder is the Ehrlich-Aberth simultaneous iteration in Jacobi form
(Bini, Numer. Algorithms 13, 1996): each sweep evaluates p, p' and a running
roundoff bound at all approximations in one Horner pass of numpy array
operations, then corrects every unconverged approximation from the previous
sweep's positions.  Points outside the unit circle are evaluated on the
reversed polynomial at 1/z, so a sweep never overflows.  The starting points
come from the Newton polygon: each edge of the upper convex hull of
(i, log|c_i|) places its share of the roots on a circle of the matching
radius, at fixed angles so the output is deterministic.  Reaching the sweep
cap raises ``RootFindingError``.  The approximations are then merged by
greedy multiplicity clustering, and each cluster center of multiplicity m is
refined by Newton's method on the (m-1)-th derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleEvaluationError, RootFindingError

TRIM_REL_TOL = 1e-14
CLUSTER_REL_RADIUS = 1e-6
ABERTH_TOL = 1e-12
ABERTH_MAX_ITER = 500
START_ANGLE = 0.7  # Bini's offset of the starting circles, in radians

_EPS = np.finfo(float).eps


class Polynomial:
    """Polynomial with dense complex coefficients in ascending degree order.

    Trailing coefficients smaller than ``TRIM_REL_TOL * max|coeff|`` are
    dropped at construction, and a non-finite coefficient raises ``ValueError``.
    The zero polynomial is stored as a single zero coefficient and reports
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        scale = float(np.abs(c).max()) if c.size else 0.0
        if not math.isfinite(scale):
            raise ValueError(f"non-finite polynomial coefficient {c[~np.isfinite(c)][0]}")
        if scale > 0.0:
            keep = np.nonzero(np.abs(c) > TRIM_REL_TOL * scale)[0]
            c = c[: keep[-1] + 1].copy() if keep.size else np.zeros(1, dtype=complex)
        else:
            c = np.zeros(1, dtype=complex)
        c.setflags(write=False)
        self.coeffs = c

    @classmethod
    def from_linear_factors(cls, factors) -> "Polynomial":
        """Exact convolution of ``(z - root)`` factors, in the given order.

        ``factors`` is an iterable of ``(root, multiplicity)`` pairs.
        """
        c = np.array([1.0 + 0.0j])
        for root, mult in factors:
            lin = np.array([-root, 1.0], dtype=complex)
            for _ in range(int(mult)):
                c = np.convolve(c, lin)
        return cls(c)

    @property
    def degree(self) -> int:
        if self.coeffs.size == 1 and self.coeffs[0] == 0:
            return -1
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial([0.0])
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial(self.coeffs * factor)

    def derivative(self) -> "Polynomial":
        if self.coeffs.size == 1:
            return Polynomial([0.0])
        return Polynomial(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    def __call__(self, z: complex) -> complex:
        val = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            val = val * z + c
        return val

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


def _horner_with_bound(coeffs: np.ndarray, z):
    """Horner values of p and p' at ``z``, with a running bound on the roundoff in |p(z)|.

    ``z`` is a point or an array of points.  ``coeffs`` is in ascending degree
    order; a 2-D ``coeffs`` holds one column of coefficients per point.
    """
    b = coeffs[-1]
    d = b * 0
    err = abs(b)
    az = abs(z)
    for c in coeffs[-2::-1]:
        d = d * z + b
        b = b * z + c
        err = abs(b) + az * err
    return b, d, err * _EPS


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial, clustered into (location, multiplicity) pairs.

    ``iterations`` is the number of Aberth sweeps used.  ``converged`` is True
    for every set ``roots`` returns: a sweep that reaches its cap raises
    ``RootFindingError`` instead.  Neither field is part of ``to_dict``.
    """

    roots: tuple[tuple[complex, int], ...]
    residual: float
    iterations: int = 0
    converged: bool = True

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def to_dict(self) -> dict:
        return {"roots": [[r.real, r.imag, m] for r, m in self.roots]}


def _newton_polygon_starts(c: np.ndarray) -> np.ndarray:
    """Bini's starting points: one circle per edge of the upper hull of (i, log|c_i|).

    An edge from k0 to k1 carries k1 - k0 roots of modulus
    (|c_k0| / |c_k1|)^(1 / (k1 - k0)); they are spread evenly on that circle
    at a fixed angle offset, so the result is deterministic.
    """
    n = c.size - 1
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c))
    hull: list[int] = []
    for i in np.flatnonzero(c).tolist():
        # drop the last vertex while it lies on or below the chord to point i
        while len(hull) >= 2 and (logs[hull[-1]] - logs[hull[-2]]) * (i - hull[-2]) <= (
            logs[i] - logs[hull[-2]]
        ) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(i)
    k = np.array(hull)
    counts = np.diff(k)
    radius = np.exp(-np.diff(logs[k]) / counts)
    k0 = np.repeat(k[:-1], counts)
    m = np.repeat(counts, counts)
    angles = 2.0 * np.pi * ((np.arange(n) - k0) / m + k0 / n) + START_ANGLE
    return np.repeat(radius, counts) * np.exp(1j * angles)


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Aberth-Ehrlich iteration in Jacobi form on a monic coefficient array.

    Returns the approximations and the number of sweeps used.  Each sweep
    moves every active root from the previous sweep's positions.  A root
    stops when |p| is within 4x its roundoff bound or its step is below
    ``tol * (1 + |z|)``.  Points outside the unit circle are evaluated on the
    reversed polynomial at 1/z, so no sweep overflows.
    """
    n = c.size - 1
    if n == 1:
        return np.array([-c[0]]), 0
    z = _newton_polygon_starts(c)
    rev, fwd = c[::-1, None], c[:, None]
    eye = np.eye(n)
    active = np.ones(n, dtype=bool)
    # a zero derivative or a coincident pair makes non-finite values; those
    # roots are nudged instead of stepped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, max_iter + 1):
            az = np.abs(z)
            outside = az > 1.0
            x = np.where(outside, 1.0 / z, z)
            v, dv, bound = _horner_with_bound(np.where(outside, rev, fwd), x)
            # p/p' = z q / (n q - x q') for the reversal q(x) = x^n p(1/x)
            newton = np.where(outside, z * v, v) / np.where(outside, n * v - x * dv, dv)
            # the identity keeps each root's pairing with itself out of the
            # Aberth sum and out of the coincidence test
            diffs = z[:, None] - z + eye
            denom = 1.0 - newton * (1.0 / diffs - eye).sum(axis=1)
            w = np.where(denom == 0, newton, newton / denom)
            coincident = (diffs == 0).any(axis=1)
            stuck = ~np.isfinite(np.where(coincident, newton, w))
            nudge = 1e-6 * (1.0 + az)
            step = np.where(coincident, (-1.0 + 1.0j) * nudge, w)
            step = np.where(stuck, (-1.0 - 1.0j) * nudge, step)
            conv = np.abs(v) <= 4.0 * bound
            step[conv | ~active] = 0.0
            z = z - step
            small = np.abs(step) <= tol * (1.0 + np.abs(z))
            active &= ~(conv | (small & ~stuck & ~coincident))
            if not active.any():
                return z, sweep
    raise RootFindingError(
        f"{int(active.sum())} of {n} roots still moving after {max_iter} Aberth sweeps"
    )


def _cluster(points: np.ndarray) -> list[list[int]]:
    """Greedy union of approximations within CLUSTER_REL_RADIUS * (1 + |root|)."""
    points = points.tolist()
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1 :]:
            r = CLUSTER_REL_RADIUS * (1.0 + max(abs(points[i]), abs(points[j])))
            if abs(points[i] - points[j]) <= r:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: (points[g[0]].real, points[g[0]].imag))


def _refine_multiple(poly: Polynomial, center: complex, mult: int) -> complex:
    # an m-fold root of p is a simple root of the (m-1)-th derivative
    p = poly
    for _ in range(mult - 1):
        p = p.derivative()
    dp = p.derivative()
    z = center
    for _ in range(50):
        pv = p(z)
        dv = dp(z)
        if dv == 0:
            break
        step = pv / dv
        z_new = z - step
        if abs(z_new - center) > 10.0 * CLUSTER_REL_RADIUS * (1.0 + abs(center)):
            return center  # refinement wandered off; keep the cluster mean
        z = z_new
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def roots(poly: Polynomial, tol: float = ABERTH_TOL, max_iter: int = ABERTH_MAX_ITER) -> RootSet:
    """All complex roots of ``poly`` with multiplicities.

    Deterministic for a given input.  Raises ``ValueError`` for the zero
    polynomial or a nonzero constant, and ``RootFindingError`` if roots are
    still moving after ``max_iter`` sweeps or any reported root fails the
    backward-error residual check.
    """
    if poly.degree < 1:
        raise ValueError("roots are undefined for a constant or zero polynomial")
    coeffs = poly.coeffs
    origin_mult = 0
    while coeffs[0] == 0:
        origin_mult += 1
        coeffs = coeffs[1:]
    found: list[tuple[complex, int]] = []
    if origin_mult:
        found.append((0.0 + 0.0j, origin_mult))
    sweeps = 0
    if coeffs.size > 1:
        approx, sweeps = _aberth(coeffs / coeffs[-1], tol, max_iter)
        deflated = Polynomial(coeffs)
        for group in _cluster(approx):
            mult = len(group)
            center = complex(np.mean(approx[group]))
            if mult > 1:
                center = _refine_multiple(deflated, center, mult)
            found.append((center, mult))
    # |p(r)| <= 1e-8 * scale * (1 + |r|)**degree, compared in log space because
    # the bound overflows for large roots; a non-finite residual fails
    at = np.array([r for r, _ in found])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.abs(_horner_with_bound(poly.coeffs, at)[0])
        log_allowed = np.log10(1e-8 * np.max(np.abs(poly.coeffs))) + poly.degree * np.log10(
            1.0 + np.abs(at)
        )
        failed = ~(np.log10(values) <= log_allowed)
    if failed.any():
        i = int(np.argmax(failed))
        raise RootFindingError(
            f"root {at[i]} has residual {values[i]:.3e} above bound 10^{log_allowed[i]:.1f}"
        )
    ordered = tuple(sorted(found, key=lambda rm: (rm[0].real, rm[0].imag)))
    return RootSet(roots=ordered, residual=float(values.max()), iterations=sweeps)


def derivative_eval(field, alpha: complex, max_order: int) -> np.ndarray:
    """Complex derivatives ``[f(alpha), Df(alpha), ..., D^m f(alpha)]`` of a field.

    Exact, with no finite differences: the numerator's Taylor coefficients at
    alpha come from one Horner pass of repeated synthetic division, and are
    multiplied by the binomial series of every denominator factor,
    (alpha + h - a)**-m = sum_j C(m+j-1, j) (-h)**j (alpha - a)**(-m-j),
    truncated at ``max_order``.
    """
    alphac = complex(alpha)
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    # shifted[1 + j] holds the Taylor coefficient of order j, shifted[0] the
    # next numerator coefficient
    shifted = np.zeros(max_order + 2, dtype=complex)
    for c in field.numerator.coeffs[::-1]:
        shifted[0] = c
        shifted[1:] = shifted[1:] * alphac + shifted[:-1]
    series = shifted[1:]
    j = np.arange(1.0, max_order + 1)
    for a, m in field.denominator_spec:
        gap = alphac - a
        if gap == 0:
            raise PoleEvaluationError(a)
        factor = np.cumprod(np.concatenate(([gap**-m], (1.0 - m - j) / (j * gap))))
        series = np.convolve(series, factor)[: max_order + 1]
    return series * np.cumprod(np.concatenate(([1.0], j)))


def wronskian_matrix(fields, alpha: complex, order: int | None = None) -> np.ndarray:
    """Matrix B(alpha): column j holds derivatives of field j at orders 0..m-1."""
    if not fields:
        raise ValueError("need at least one field")
    m = len(fields) if order is None else int(order)
    cols = [derivative_eval(f, alpha, m - 1) for f in fields]
    return np.column_stack(cols)
