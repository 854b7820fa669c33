"""Defect extraction and halo-based separability analysis of position fields.

A product state leaves a clean signature around every defect center: the
numerator zeros attached to qubit j form a regular 2d-gon centered on a_j
(zeros of alpha + beta*(z - a_j)**(2d)), or sit exactly on a_j with
multiplicity 2d when the qubit is |1> (collapsed), or are missing entirely
when the qubit is |0> (halo at infinity).  Entangled states break at least
one of these patterns.

Separability has one definition, in state terms: psi is separable when some
product state w has ||psi - lam w|| <= tau ||psi||, tau = ``FACTOR_SV_RTOL``.
The SVD oracle takes w from rank-1 factors of psi; the halo check reads w off
the halos and tests it on the state recovered from the numerator.  The halo
tolerances only propose which zeros form a halo or sit on a center: each
vertex of a trial polygon takes its nearest zero, and a trial that uses a zero
beyond its multiplicity fails (where a greedy search takes a farther zero).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import RationalField, RepresentationConfig, _basis, _poles, position_map
from .polynomials import _order, roots
from .states import FACTOR_SV_RTOL, QubitState, factor_out_qubit

CENTER_MATCH_RTOL = 1e-9
GROUP_RTOL = 1e-4


@dataclass(frozen=True)
class DefectSet:
    """Zeros and poles of a field with multiplicities, plus its order at infinity.

    ``infinity_charge`` is numerator degree minus denominator degree; positive
    means a pole at infinity.  Zeros and poles never share a location.
    """

    zeros: tuple[tuple[complex, int], ...]
    poles: tuple[tuple[complex, int], ...]
    infinity_charge: int

    def to_dict(self) -> dict:
        return {
            "zeros": [[z.real, z.imag, m] for z, m in self.zeros],
            "poles": [[p.real, p.imag, m] for p, m in self.poles],
            "infinity_charge": self.infinity_charge,
        }


def _center_of(loc: complex, centers) -> complex | None:
    """The first center within CENTER_MATCH_RTOL of ``loc``, or None."""
    return next((a for a in centers if abs(loc - a) <= CENTER_MATCH_RTOL * (1.0 + abs(a))), None)


def extract_defects(field) -> DefectSet:
    """Locate all zeros and poles of a field.  The zero field is rejected.

    The zeros are the roots of the whole numerator N.  A pole location a
    holds as many of them as ``_order`` counts there, the leading Taylor
    coefficients of N at a within their roundoff bounds: the rule that
    certifies a multiple root in ``roots``, read at the exact point a.  They
    are the roots nearest a, and they cancel against the pole order, so
    zeros and poles never share a location; both lists are in (re, im) order.
    """
    if field.is_zero():
        raise ValueError("the zero field has no defects")
    agg = _poles(field)
    numer = field.numerator
    found = list(roots(numer).roots) if numer.degree >= 1 else []
    center_mult = dict.fromkeys(agg, 0)
    for a in agg:
        k = _order(numer.coeffs, a, numer.degree)
        if k:
            found.sort(key=lambda rm: abs(rm[0] - a))
            while found and center_mult[a] < k:
                center_mult[a] += found.pop(0)[1]
    zeros = [(a, k - agg[a]) for a, k in center_mult.items() if k > agg[a]] + found
    poles = [(a, agg[a] - k) for a, k in center_mult.items() if k < agg[a]]
    return DefectSet(
        tuple(sorted(zeros, key=_plane_order)),
        tuple(sorted(poles, key=_plane_order)),
        numer.degree - sum(agg.values()),
    )


def _plane_order(loc_mult: tuple[complex, int]) -> tuple[float, float]:
    return loc_mult[0].real, loc_mult[0].imag


@dataclass(frozen=True)
class Halo:
    """Classification of the zeros attached to one defect center."""

    center: complex
    status: str  # "regular", "at-infinity", "collapsed", "absent"
    vertices: tuple[complex, ...]
    alpha: complex | None
    beta: complex | None
    radius: float | None
    phase: float | None

    def to_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "status": self.status,
            "zeros": [[v.real, v.imag] for v in self.vertices],
            "alpha": None if self.alpha is None else [self.alpha.real, self.alpha.imag],
            "beta": None if self.beta is None else [self.beta.real, self.beta.imag],
            "radius": self.radius,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class HaloReport:
    halos: tuple[Halo, ...]
    leftover_zeros: tuple[tuple[complex, int], ...]

    def all_accounted(self) -> bool:
        return not self.leftover_zeros and all(h.status != "absent" for h in self.halos)

    def to_dict(self) -> dict:
        return {
            "halos": [h.to_dict() for h in self.halos],
            "leftover": [[z.real, z.imag, m] for z, m in self.leftover_zeros],
        }


def _screen(centers: list, sites: list[list], k: int) -> list[list[bool]]:
    """keep[j][s]: whether site s, at z, may seed a k-gon around a = centers[j], from one array
    pass: whether a + (z - a) exp(2 pi i / k), the seed turned by 2 pi / k, lies within
    2 GROUP_RTOL (1 + |z - a|) of a site.  No power of z - a is formed, so any seed is judged."""
    locs = np.array([s[0] for s in sites], dtype=complex)
    a = np.array(centers, dtype=complex)[:, None]
    gaps = np.abs((a + (locs - a) * np.exp(2j * np.pi / k))[..., None] - locs).min(axis=-1)
    return (gaps <= 2 * GROUP_RTOL * (1.0 + np.abs(locs - a))).tolist()


def _match_polygon(center: complex, sites: list[list], skip: int, k: int, keep: list[bool]):
    """Find one regular k-gon of zeros around ``center``.

    Every candidate zero z seeds a trial.  With w = z - center and r = |w|, its ideal vertices
    are center + r exp(i (phase((w / r)**k) / k + 2 pi v / k)), v = 0..k-1: the k-th roots of
    w**k, from the one at an angle in (-pi / k, pi / k].  Only the unit power (w / r)**k is
    formed, so no trial overflows however far its seed lies.  Each vertex takes its nearest
    candidate, the last one on a tie, from one k x C array of gaps.  The first trial with every
    gap within tol = ``GROUP_RTOL * (1 + r)`` that uses no zero beyond its multiplicity is the
    halo.  A greedy search would instead give a vertex a farther, unused zero; the two differ
    only where adjacent vertices lie within 2 tol, so for r below 1e-4 / sin(pi / k).

    Only seeds that ``keep``, this center's row of ``_screen``, passes are tried, and that
    changes no result: a trial needs a candidate within tol of each ideal vertex, the seed
    turned by 2 pi / k is one of them up to roundoff (about eps (|center| + r), below tol),
    and the screen tests it on every site at 2 tol.

    Returns (site indices to consume, mean of (z - center)**k, radius, phase) or None.
    """
    cand = [i for i, s in enumerate(sites) if s[1] >= 1 and i != skip]
    # candidate locations, last first, so that argmin takes the last of a tie
    locs = np.array([sites[i][0] for i in cand[::-1]], dtype=complex)
    for seed in (i for i in cand if keep[i]):
        w = sites[seed][0] - center
        r = abs(w)
        if r == 0:
            continue
        turns = 2 * np.pi * np.arange(k) / k
        ideal = center + r * np.exp(1j * (np.angle((w / r) ** k) / k + turns))
        gaps = np.abs(ideal[:, None] - locs)
        fits = (gaps.min(axis=1) <= GROUP_RTOL * (1.0 + r)).all()
        chosen = [cand[-1 - j] for j in gaps.argmin(axis=1).tolist()]
        if fits and all(chosen.count(i) <= sites[i][1] for i in chosen):
            offsets = np.array([sites[i][0] for i in chosen], dtype=complex) - center
            vbar = complex(np.mean([(sites[i][0] - center) ** k for i in chosen]))
            phase = float(np.min(np.angle(offsets) % (2.0 * np.pi)))
            return chosen, vbar, float(np.mean(np.abs(offsets))), phase
    return None


def detect_halos(defect_set: DefectSet, cfg: RepresentationConfig) -> HaloReport:
    """Account for every numerator zero as part of a per-center halo.

    Each center is resolved in configuration order: a 2d-fold zero on the
    center is a collapsed halo, and a regular 2d-gon sharing one value of
    (z - a_j)**(2d) is a regular halo; failing both, the center is at-infinity
    if no zero sits on it, even with zeros left elsewhere (GHZ-4 has four),
    and absent if some do.  Zeros that no center claims are reported as leftovers.
    """
    if cfg.kind != "position":
        raise ValueError("halo detection needs a position configuration")
    d = cfg.d
    centers = list(cfg.defects)

    remaining: dict[complex, int] = {a: d for a in centers}
    off_center: list[list] = []
    for z, m in [(p, -m) for p, m in defect_set.poles] + sorted(defect_set.zeros, key=_plane_order):
        a = _center_of(z, centers)
        if a is not None:
            remaining[a] += m
        elif m < 0:
            raise ValueError(f"pole at {z} is not a configured defect center")
        else:
            off_center.append([z, m])
    sites = [[a, remaining[a]] for a in centers] + off_center

    keep = _screen(centers, sites, 2 * d)
    halos = []
    for j, a in enumerate(centers):
        if sites[j][1] >= 2 * d:
            sites[j][1] -= 2 * d
            halos.append(Halo(a, "collapsed", (a,), 0j, 1 + 0j, None, None))
            continue
        found = _match_polygon(a, sites, j, 2 * d, keep[j])
        if found is not None:
            chosen, vbar, radius, phase = found
            for i in chosen:
                sites[i][1] -= 1
            verts = tuple(sites[i][0] for i in chosen)
            halos.append(Halo(a, "regular", verts, -vbar, 1 + 0j, radius, phase))
        elif sites[j][1] == 0:
            halos.append(Halo(a, "at-infinity", (), 1 + 0j, 0j, None, None))
        else:
            halos.append(Halo(a, "absent", (), None, None, None, None))
    leftover = tuple((s[0], s[1]) for s in sites if s[1] > 0)
    return HaloReport(tuple(halos), leftover)


def _kron(factors) -> np.ndarray:
    return functools.reduce(lambda a, q: np.outer(a, q).ravel(), factors, np.ones(1, complex))


def _is_product(psi: np.ndarray, factors) -> bool:
    """The separability rule: min over lam of ||psi - lam w|| <= tau ||psi||, w = kron(factors)."""
    w = _kron(factors)
    resid = np.linalg.norm(psi - np.vdot(w, psi) / np.vdot(w, w) * w)
    return bool(resid <= FACTOR_SV_RTOL * np.linalg.norm(psi))


def _als_sweep(psi: np.ndarray, factors) -> list[np.ndarray]:
    """One alternating-least-squares sweep of the rank-1 fit of psi, factor by factor."""
    t = psi.reshape((2,) * len(factors))
    factors = list(factors)
    for j in range(len(factors)):
        others = _kron(factors[:j] + factors[j + 1 :])
        factors[j] = np.moveaxis(t, j, 0).reshape(2, -1) @ others.conj()
    return factors


def _halo_scaled(q: np.ndarray, halo_beta: complex) -> tuple[complex, complex]:
    """Scale as the halos do: beta (alpha if the halo's is 0) real positive, larger modulus 1."""
    k = int(halo_beta != 0)
    q = q * (abs(q[k]) / q[k])
    q[k] = abs(q[k])
    q = q / np.max(np.abs(q))
    return complex(q[0]), complex(q[1])


def field_separability(
    field: RationalField, cfg: RepresentationConfig, report: HaloReport | None = None
) -> tuple[bool, tuple[tuple[complex, complex], ...]]:
    """Halo-based separability of a position field, certified in state space.

    Certificate: one (alpha, beta) pair per qubit, read from the halos and
    refined by one alternating-least-squares sweep, whose product w passes
    ||psi - lam w|| <= tau ||psi||.  Pairs are scaled as the halos are: beta
    real positive (alpha if the halo's beta is 0), larger modulus 1.
    Recovery: psi = lam w + M^+ (N - lam M w), with M the basis numerators as
    columns and M^+ its pseudo-inverse (both cached per configuration, rank
    by ``RANK_RTOL``, as in the Gram fallback), N the field's numerator and
    lam the fit of M w to N; on a dependent basis this picks the state with
    this field nearest w.
    Miss: an empty witness (entangled) when a zero is left out of the halos,
    when N is outside the span of M (``_Basis.recover``'s rule), or when w fails.
    """
    if report is None:
        report = detect_halos(extract_defects(field), cfg)
    if not report.all_accounted():
        return False, ()
    basis = _basis(cfg)
    # N times the power of two that brings its largest part into [0.5, 1): exact, so the
    # scale-free rule below reads the same bits and no field's magnitude over- or underflows it
    parts = basis.align(field).view(float)
    numer, rec = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(complex), basis.recovery
    try:
        basis.recover(numer)  # only the span rule raises here
    except ValueError:
        return False, ()
    start = [np.array([h.alpha, h.beta]) for h in report.halos]
    w = _kron(start)
    mw = rec.matrix @ w
    lam = np.vdot(mw, numer) / np.vdot(mw, mw)
    psi = lam * w + rec.pinv @ (numer - lam * mw)
    factors = _als_sweep(psi, start)
    if not _is_product(psi, factors):
        return False, ()
    return True, tuple(_halo_scaled(q, h.beta) for q, h in zip(factors, report.halos))


def is_separable_geometric(
    state: QubitState, cfg: RepresentationConfig
) -> tuple[bool, tuple[tuple[complex, complex], ...]]:
    """Decide separability of a state from the halo structure of its field."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    return field_separability(position_map(state, cfg), cfg)


def is_separable_tensor(state: QubitState) -> bool:
    """SVD oracle: peel rank-1 factors one qubit at a time, then apply the one rule."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    factors, rest = [], state.amplitudes
    for _ in range(state.n - 1):
        u, s, vh = np.linalg.svd(rest.reshape(2, -1), full_matrices=False)
        factors.append(u[:, 0])
        rest = s[0] * vh[0]
    return _is_product(state.amplitudes, factors + [rest])


def factorizable_qubits(state: QubitState) -> tuple[int, ...]:
    """1-based positions that split off as unentangled tensor factors."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    if state.n == 1:
        return (1,)
    out = []
    for j in range(1, state.n + 1):
        try:
            factor_out_qubit(state, j)
            out.append(j)
        except ValueError:
            pass
    return tuple(out)
