"""Dense complex polynomial arithmetic, all-roots finding, and derivative evaluation.

The root finder is the Ehrlich-Aberth simultaneous iteration in Jacobi form
(Bini, Numer. Algorithms 13, 1996): each sweep evaluates p, p' and a running
roundoff bound at all approximations in one Horner pass of numpy array
operations, then corrects every unconverged approximation from the previous
sweep's positions.  Points outside the unit circle are evaluated on the
reversed polynomial at 1/z, so a sweep never overflows.  Reaching the sweep
cap raises ``RootFindingError``.  Horner stays the evaluator, rather than a
product with a matrix of powers, because it yields the roundoff bound that
stops the sweep and keeps its accuracy near multiple roots.

Up to degree ``EIGVALS_MAX_DEGREE`` the sweep starts from the eigenvalues of
the companion matrix, one LAPACK call.  They are backward stable (Edelman and
Murakami, Math. Comp. 64, 1995), so the first sweep usually certifies every
root; their last digits depend on the host's LAPACK.  Above that degree the
O(n^3) eigenvalue solve costs more than the sweeps it saves, and there, or
when LAPACK fails or returns a non-finite value, the starts come from the
Newton polygon: each edge of the upper convex hull of (i, log|c_i|) places
its share of the roots on a circle of the matching radius, at fixed angles so
the output is deterministic.

Multiplicities come from one rule.  The last sweep's values and gaps give
every approximation its Weierstrass-Smith inclusion disc (Smith, JACM 17,
1970; Bini and Fiorentino, Numer. Algorithms 23, 2000): the union of the
discs holds every root, and a connected component of k discs holds exactly
k.  A component of k > 1 discs is one k-fold root at the point c that
Newton's method on the (k-1)-th derivative finds, once c passes the
certificate ``_order``: the first k Taylor coefficients of p at c lie within
their roundoff bounds and the k-th does not.  A component that fails it is
cut at the longest edge of its minimum spanning tree, and each part is
judged alike; single discs are simple roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PoleEvaluationError, RootFindingError

TRIM_REL_TOL = 1e-14
ABERTH_TOL = 1e-12
ABERTH_MAX_ITER = 500
REFINE_MAX_ITER = 50
START_ANGLE = 0.7  # Bini's offset of the starting circles, in radians
# companion-matrix eigenvalue starts up to this degree, Newton-polygon starts
# above: with OpenBLAS's LAPACK the eigenvalue solve doubles in time from
# degree 75 to 76, and eigenvalue starts lose from degree 80 on
EIGVALS_MAX_DEGREE = 64

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
        c = np.array(coeffs, dtype=complex, ndmin=1)  # a copy, never shared
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        size = _trimmed_size(c)
        if size == 0:
            c = np.zeros(1, dtype=complex)
        elif size < c.size:  # a second copy, so the trimmed tail is not kept alive
            c = c[:size].copy()
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
        """Value at ``z``, a point or an array, from the host-independent kernel ``horner``."""
        return horner(self.coeffs, z)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


def _trimmed_size(c: np.ndarray) -> int:
    """Length of ``c`` without its trailing coefficients below ``TRIM_REL_TOL * max|c|``.

    0 when every coefficient is zero.  A non-finite coefficient, or one whose
    modulus overflows, raises ``ValueError``.
    """
    mags = np.abs(c)
    scale = float(np.maximum.reduce(mags)) if c.size else 0.0
    if not math.isfinite(scale):
        if not np.isfinite(c).all():
            raise ValueError(f"non-finite polynomial coefficient {c[~np.isfinite(c)][0]}")
        raise ValueError(f"polynomial coefficient {c[~np.isfinite(mags)][0]} overflows in modulus")
    if scale == 0.0:
        return 0
    if mags[-1] > TRIM_REL_TOL * scale:  # the usual case: nothing to trim
        return c.size
    return int(np.flatnonzero(mags > TRIM_REL_TOL * scale)[-1]) + 1


def horner(coeffs: np.ndarray, z):
    """Values at ``z``, a point or an array, of the polynomial with ascending ``coeffs``."""
    # each product's cross term is exactly zero, so a fused multiply-add rounds it the same
    x, iy = z.real + 0j, 1j * z.imag
    b = np.full(np.shape(z), coeffs[-1])
    for c in coeffs[-2::-1]:
        b = b * x + b * iy + c
    return b[()]


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

    ``residual`` is the largest |p(r)| over the roots; it is ``inf`` when some
    |p(r)| exceeds the float range, and the check ran in log space.
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
        # drop the last vertex while it lies below, on or within roundoff (1e-12 in
        # log|c|) of the chord to point i, so no two edges of one radius share angles
        while len(hull) >= 2 and (logs[hull[-1]] - logs[hull[-2]]) * (i - hull[-2]) <= (
            logs[i] - logs[hull[-2]]
        ) * (hull[-1] - hull[-2]) + 1e-12 * (i - hull[-2]):
            hull.pop()
        hull.append(i)
    k = np.array(hull)
    counts = np.diff(k)
    radius = np.exp(-np.diff(logs[k]) / counts)
    k0 = np.repeat(k[:-1], counts)
    m = np.repeat(counts, counts)
    angles = 2.0 * np.pi * ((np.arange(n) - k0) / m + k0 / n) + START_ANGLE
    return np.repeat(radius, counts) * np.exp(1j * angles)


def _starts(c: np.ndarray) -> np.ndarray:
    """Sweep starts for a monic coefficient array of degree >= 2.

    The companion matrix's eigenvalues up to ``EIGVALS_MAX_DEGREE``; above
    it, or when LAPACK fails or returns a non-finite value, the Newton-polygon
    starts.
    """
    n = c.size - 1
    if n <= EIGVALS_MAX_DEGREE:
        companion = np.eye(n, k=-1, dtype=complex)
        companion[:, -1] = -c[:-1]
        try:
            z = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(z).all():
                return z
    return _newton_polygon_starts(c)


def _aberth(c: np.ndarray, z: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Aberth-Ehrlich iteration in Jacobi form on a monic coefficient array.

    Starts from the approximations ``z`` and returns them moved, with the
    radii of their inclusion discs and the number of sweeps used.  Each sweep
    moves every active root from the previous sweep's positions.  A root
    stops when |p| is within 4x its roundoff bound or its step is below
    ``tol * (1 + |z|)``.  Points outside the unit circle are evaluated on the
    reversed polynomial at 1/z, so no sweep overflows.

    Disc i is Smith's, about the point the last sweep evaluated: radius
    n (|p(z_i)| + its roundoff bound) / |prod_{j != i} (z_i - z_j)|, from that
    sweep's values and gaps, grown by the root's last step so that it is
    about the returned point.
    """
    n = c.size - 1
    rev, fwd = c[::-1, None], c[:, None]
    active = np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, max_iter + 1):
            az = np.abs(z)
            outside = az > 1.0
            x = np.where(outside, 1.0 / z, z)
            v, dv, bound = _horner_with_bound(np.where(outside, rev, fwd), x)
            # p/p' = z q / (n q - x q') for the reversal q(x) = x^n p(1/x)
            newton = np.where(outside, z * v, v) / np.where(outside, n * v - x * dv, dv)
            # an infinite diagonal keeps each root's pairing with itself out
            # of the Aberth sum and out of the coincidence test
            diffs = z[:, None] - z
            diffs.flat[:: n + 1] = np.inf
            denom = 1.0 - newton * (1.0 / diffs).sum(axis=1)
            step = newton / denom
            held = np.False_
            # a coincident pair makes its rows' denominators non-finite, a zero
            # derivative their steps; those roots are nudged instead of
            # stepped, each in its own direction so that coincident ones part
            if not (np.isfinite(denom).all() and np.isfinite(step).all()):
                held = (diffs == 0).any(axis=1)
                step = np.where(denom == 0, newton, step)
                held |= ~np.isfinite(step)
                step = np.where(held, 1e-6 * (1.0 + az) * np.exp(1j * np.arange(n)), step)
            conv = np.abs(v) <= 4.0 * bound
            step[conv | ~active] = 0.0
            z = z - step
            small = np.abs(step) <= tol * (1.0 + np.abs(z))
            active &= ~(conv | (small & ~held))
            if not active.any():
                break
        else:
            raise RootFindingError(
                f"{int(active.sum())} of {n} roots still moving after {max_iter} Aberth sweeps"
            )
        # in logs, as the product of gaps and |p| = |z|^n |v| outside the unit circle overflow
        gaps = np.abs(diffs)
        gaps.flat[:: n + 1] = 1.0
        log_radii = np.log(n * (np.abs(v) + bound)) + np.where(outside, n * np.log(az), 0.0)
        radii = np.exp(log_radii - np.log(gaps).sum(axis=1)) + np.abs(step)
    return z, radii, sweep


def _components(linked: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with boolean adjacency matrix ``linked``.

    Members are in index order, and groups in order of their first member.
    """
    parent = list(range(linked.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(linked, 1))):
        parent[find(int(i))] = find(int(j))
    groups: dict[int, list[int]] = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _order(coeffs: np.ndarray, c: complex, most: int) -> int:
    """How many leading Taylor coefficients of p at ``c`` lie within their roundoff bounds.

    The j-th coefficient t_j comes from j + 1 synthetic divisions by (z - c);
    its bound is 2 n eps T_j, with n the degree and T_j the same coefficient of
    the polynomial with coefficients |c_i| at |c|, which bounds every term of t_j.  A
    non-finite t_j or T_j is out of bounds.  The count stops at ``most + 1``.
    """
    b, mags = coeffs.tolist(), np.abs(coeffs).tolist()
    tol, ac = 2 * (len(b) - 1) * _EPS, abs(c)
    for j in range(most + 1):
        acc = mag = 0.0
        for i in range(len(b) - 1, -1, -1):
            acc = b[i] = b[i] + acc * c
            mag = mags[i] = mags[i] + mag * ac
        if not abs(acc) <= tol * mag < math.inf:
            return j
        del b[0], mags[0]  # the quotient
    return most + 1


def _refine_multiple(poly: Polynomial, center: complex, mult: int, reach: float) -> complex:
    """A simple root of the (mult-1)-th derivative, by Newton's method from ``center``.

    An m-fold root of p is one.  Newton stops when its step falls below
    1e-15 (1 + |z|) or stops shrinking, where roundoff holds it; a step that
    takes z farther than ``reach`` from ``center`` gives ``center`` back, and
    ``REFINE_MAX_ITER`` shrinking steps raise ``RootFindingError``.
    """
    p = poly
    for _ in range(mult - 1):
        p = p.derivative()
    dp = p.derivative()
    z, last = center, math.inf
    for _ in range(REFINE_MAX_ITER):
        dv = dp(z)
        if dv == 0:
            return z
        step = complex(p(z) / dv)
        if not abs(step) < last:
            return z
        z, last = z - step, abs(step)
        if abs(z - center) > reach:
            return center
        if last <= 1e-15 * (1.0 + abs(z)):
            return z
    raise RootFindingError(
        f"Newton refinement of a {mult}-fold root near {center} still moving after {REFINE_MAX_ITER} steps"
    )


def _bottleneck(gaps: np.ndarray) -> float:
    """Longest edge of a minimum spanning tree of the complete graph with weights ``gaps`` (Prim)."""
    reach, done, longest = gaps[0].copy(), np.zeros(len(gaps), dtype=bool), 0.0
    done[0] = True
    for _ in range(len(gaps) - 1):
        i = int(np.argmin(np.where(done, np.inf, reach)))
        longest, done[i] = max(longest, float(reach[i])), True
        reach = np.minimum(reach, gaps[i])
    return longest


def _multiple_roots(coeffs, approx, radii, group) -> list[tuple[complex, int]]:
    """The roots in one connected group of discs, as (location, multiplicity) pairs.

    A group of k > 1 discs is one k-fold root at the point c that
    ``_refine_multiple`` finds from the members' mean, within the group's
    radius, when ``_order`` certifies c as a k-fold zero.  Otherwise the
    group is cut at the longest edge of its minimum spanning tree, and each
    part is judged alike.
    """
    k = len(group)
    if k == 1:
        return [(complex(approx[group[0]]), 1)]
    points = approx[group]
    mean = complex(np.mean(points))
    reach = float(np.max(np.abs(points - mean) + radii[group]))
    # a cluster's mean is a zero within roundoff too; that cheap test spares the refinement
    if _order(coeffs, mean, 0):
        center = _refine_multiple(Polynomial(coeffs), mean, k, reach)
        if _order(coeffs, center, k) == k:
            return [(center, k)]
    gaps = np.abs(points[:, None] - points)
    parts = _components(gaps < _bottleneck(gaps))
    return [r for part in parts for r in _multiple_roots(coeffs, approx, radii, [group[i] for i in part])]


def roots(poly: Polynomial, tol: float = ABERTH_TOL, max_iter: int = ABERTH_MAX_ITER) -> RootSet:
    """All complex roots of ``poly`` with multiplicities.

    Deterministic for a given input.  Approximations whose inclusion discs
    form a connected component are one multiple root when ``_order``
    certifies it, as the module docstring sets out.  Raises ``ValueError``
    for the zero polynomial or a nonzero constant, and ``RootFindingError``
    if roots are still moving after ``max_iter`` sweeps, a multiple root's
    Newton refinement reaches its cap, or any reported root fails the
    backward-error residual check.  The check takes |p(r)| from ``horner``;
    where that overflows and |r| > 1 it takes log10|p(r)| from ``horner`` on
    the reversed polynomial at 1/r, the sweep's unit-disc rule.
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
    if coeffs.size == 2:
        found.append((complex(-coeffs[0] / coeffs[1]), 1))
    elif coeffs.size > 2:
        c = coeffs / coeffs[-1]
        approx, radii, sweeps = _aberth(c, _starts(c), tol, max_iter)
        linked = np.abs(approx[:, None] - approx) <= radii[:, None] + radii
        for group in _components(linked):
            found += _multiple_roots(coeffs, approx, radii, group)
    # |p(r)| <= 1e-8 * scale * (1 + |r|)**degree, compared in log space because
    # the bound overflows for large roots; a non-finite log fails
    at = np.array([r for r, _ in found])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.abs(horner(poly.coeffs, at))
        logs = np.log10(values)
        far = ~np.isfinite(values) & (np.abs(at) > 1.0)
        if far.any():
            values[far] = np.inf
            logs[far] = np.log10(np.abs(horner(poly.coeffs[::-1], 1.0 / at[far])))
            logs[far] += poly.degree * np.log10(np.abs(at[far]))
        log_allowed = np.log10(1e-8 * np.max(np.abs(poly.coeffs))) + poly.degree * np.log10(
            1.0 + np.abs(at)
        )
        failed = ~(logs <= log_allowed)
    if failed.any():
        i = int(np.argmax(failed))
        shown = f"10^{logs[i]:.1f}" if far[i] else f"{values[i]:.3e}"
        raise RootFindingError(
            f"root {at[i]} has residual {shown} above bound 10^{log_allowed[i]:.1f}"
        )
    ordered = tuple(sorted(found, key=lambda rm: (rm[0].real, rm[0].imag)))
    return RootSet(roots=ordered, residual=float(values.max()), iterations=sweeps)


def derivative_eval(field, alpha: complex, max_order: int) -> np.ndarray:
    """Complex derivatives ``[f(alpha), Df(alpha), ..., D^m f(alpha)]`` of a field.

    Exact, with no finite differences: the numerator's Taylor coefficients at
    alpha come from one Horner pass of repeated synthetic division, and are
    multiplied by the binomial series of every denominator factor,
    (alpha + h - a)**-m = sum_j C(m+j-1, j) (-h)**j (alpha - a)**(-m-j),
    truncated at ``max_order``.  A non-finite alpha raises ``ValueError``, and
    a pole factor (alpha - a)**-m beyond the float range ``PoleEvaluationError``.
    """
    alphac = complex(alpha)
    if not cmath.isfinite(alphac):
        raise ValueError(f"probe point {alphac} is not finite")
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
        try:
            lead = gap**-m
        except OverflowError:  # |gap|**-m is beyond the float range
            raise PoleEvaluationError(
                a, f"pole of order {m} at z = {a} overflows the float range at probe point {alphac}"
            ) from None
        pole = np.cumprod(np.concatenate(([lead], (1.0 - m - j) / (j * gap))))
        series = np.convolve(series, pole)
        series = series[: max_order + 1]
    return series * _factorials(max_order)


@lru_cache(maxsize=64)
def _factorials(max_order: int) -> np.ndarray:
    """[0!, 1!, ..., max_order!] as floats, read-only."""
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, max_order + 1))))
    fact.setflags(write=False)
    return fact


def wronskian_matrix(fields, alpha: complex, order: int | None = None) -> np.ndarray:
    """Matrix B(alpha): column j holds derivatives of field j at orders 0..m-1."""
    if not fields:
        raise ValueError("need at least one field")
    m = len(fields) if order is None else int(order)
    cols = [derivative_eval(f, alpha, m - 1) for f in fields]
    return np.column_stack(cols)
