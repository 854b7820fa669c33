"""Defect extraction and halo-based separability analysis of position fields.

A product state leaves a clean signature around every defect center: the
numerator zeros attached to qubit j form a regular 2d-gon centered on a_j
(zeros of alpha + beta*(z - a_j)**(2d)), or sit exactly on a_j with
multiplicity 2d when the qubit is |1> (collapsed), or are missing entirely
when the qubit is |0> (halo at infinity).  Entangled states break at least
one of these patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RationalField, RepresentationConfig, eval_many, position_map
from .polynomials import Polynomial, _horner_with_bound, roots
from .states import QubitState, factor_out_qubit

CENTER_MATCH_RTOL = 1e-9
POLYGON_RADIUS_RTOL = 1e-6
POLYGON_ANGLE_TOL = 1e-6
GROUP_RTOL = 1e-4
WITNESS_RTOL = 1e-8
DEFLATION_GUARD = 64.0


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


def _deflate_center(coeffs: np.ndarray, center: complex) -> tuple[np.ndarray, int]:
    """Divide out (z - center) while the remainder is at roundoff level."""
    count = 0
    while coeffs.size > 1:
        val, _, bound = _horner_with_bound(coeffs, center)
        if abs(val) > DEFLATION_GUARD * max(bound, 1e-300):
            break
        # synthetic division, discarding the negligible remainder
        quot = np.empty(coeffs.size - 1, dtype=complex)
        acc = 0.0 + 0.0j
        for i in range(coeffs.size - 1, 0, -1):
            acc = coeffs[i] + acc * center
            quot[i - 1] = acc
        coeffs = quot
        count += 1
    return coeffs, count


def extract_defects(field) -> DefectSet:
    """Locate all zeros and poles of a field.  The zero field is rejected.

    Numerator zeros on a pole location are divided out first, so zeros and
    poles never share a location; both lists are in (re, im) order.
    """
    if field.is_zero():
        raise ValueError("the zero field has no defects")
    agg: dict[complex, int] = {}
    for a, m in field.denominator_spec:
        agg[a] = agg.get(a, 0) + m
    coeffs = field.numerator.coeffs.copy()
    center_mult: dict[complex, int] = {}
    for a in agg:
        coeffs, center_mult[a] = _deflate_center(coeffs, a)
    rest = Polynomial(coeffs)
    off_center: list[tuple[complex, int]] = []
    for r, m in roots(rest).roots if rest.degree >= 1 else ():
        near = next((a for a in agg if abs(r - a) <= CENTER_MATCH_RTOL * (1.0 + abs(a))), None)
        if near is None:
            off_center.append((r, m))
        else:
            center_mult[near] += m
    zeros = [(a, k - agg[a]) for a, k in center_mult.items() if k > agg[a]] + off_center
    poles = [(a, agg[a] - k) for a, k in center_mult.items() if k < agg[a]]
    return DefectSet(
        tuple(sorted(zeros, key=_plane_order)),
        tuple(sorted(poles, key=_plane_order)),
        field.numerator.degree - sum(agg.values()),
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


def _polygon_check(center: complex, locs: list[complex], d: int) -> tuple[bool, float, float]:
    """Is ``locs`` a regular 2d-gon around ``center``?  Returns (ok, radius, phase)."""
    w = np.array(locs, dtype=complex) - center
    radii = np.abs(w)
    rbar = float(np.mean(radii))
    if rbar == 0 or np.max(np.abs(radii - rbar)) > POLYGON_RADIUS_RTOL * rbar:
        return False, 0.0, 0.0
    angles = np.sort(np.angle(w) % (2.0 * np.pi))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    if np.max(np.abs(gaps - np.pi / d)) > POLYGON_ANGLE_TOL:
        return False, 0.0, 0.0
    return True, rbar, float(angles[0])


def _match_polygon(center: complex, sites: list[list], skip: int, d: int):
    """Try to claim one regular 2d-gon of zeros around ``center``.

    Every candidate zero seeds a trial: its value of (z - center)**(2d) fixes
    an ideal polygon, each ideal vertex is matched to the nearest unclaimed
    zero, and the matched set must pass the radius and angle tolerances.
    Ideal-vertex matching keeps coincident vertices of different halos and
    multiple zeros on one spot from confusing the search.

    Returns (site indices to consume, mean value, radius, phase) or None.
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
        complete = True
        for k in range(2 * d):
            ideal = center + radius * np.exp(1j * (base + k * np.pi / d))
            pick = None
            dist = tol
            for i in cand:
                if sites[i][1] - taken.get(i, 0) < 1:
                    continue
                gap = abs(sites[i][0] - ideal)
                if gap <= dist:
                    pick, dist = i, gap
            if pick is None:
                complete = False
                break
            taken[pick] = taken.get(pick, 0) + 1
            chosen.append(pick)
        if not complete:
            continue
        locs = [sites[i][0] for i in chosen]
        ok, rbar, phase = _polygon_check(center, locs, d)
        if ok:
            vbar = complex(np.mean([(z - center) ** (2 * d) for z in locs]))
            return chosen, vbar, rbar, phase
    return None


def detect_halos(defect_set: DefectSet, cfg: RepresentationConfig) -> HaloReport:
    """Account for every numerator zero as part of a per-center halo.

    Each center is resolved in configuration order: a 2d-fold zero on the
    center is a collapsed halo, a regular 2d-gon sharing one value of
    (z - a_j)**(2d) is a regular halo, no zeros at all is a halo at infinity.
    Zeros that no center claims are reported as leftovers.
    """
    if cfg.kind != "position":
        raise ValueError("halo detection needs a position configuration")
    d = cfg.d
    centers = list(cfg.defects)

    def center_of(loc: complex):
        for a in centers:
            if abs(loc - a) <= CENTER_MATCH_RTOL * (1.0 + abs(a)):
                return a
        return None

    remaining: dict[complex, int] = {a: d for a in centers}
    for p, m in defect_set.poles:
        a = center_of(p)
        if a is None:
            raise ValueError(f"pole at {p} is not a configured defect center")
        remaining[a] -= m
    for z, m in defect_set.zeros:
        a = center_of(z)
        if a is not None:
            remaining[a] += m
    sites: list[list] = [[a, remaining[a]] for a in centers]
    for z, m in sorted(defect_set.zeros, key=_plane_order):
        if center_of(z) is None:
            sites.append([z, m])

    halos = []
    for j, a in enumerate(centers):
        if sites[j][1] >= 2 * d:
            sites[j][1] -= 2 * d
            halos.append(Halo(a, "collapsed", (a,), 0j, 1 + 0j, None, None))
            continue
        found = _match_polygon(a, sites, j, d)
        if found is not None:
            chosen, vbar, radius, phase = found
            for i in chosen:
                sites[i][1] -= 1
            halos.append(
                Halo(
                    a,
                    "regular",
                    tuple(sites[i][0] for i in chosen),
                    -vbar,
                    1 + 0j,
                    radius,
                    phase,
                )
            )
        elif sites[j][1] == 0:
            halos.append(Halo(a, "at-infinity", (), 1 + 0j, 0j, None, None))
        else:
            halos.append(Halo(a, "absent", (), None, None, None, None))
    leftover = tuple((s[0], s[1]) for s in sites if s[1] > 0)
    return HaloReport(tuple(halos), leftover)


def _witness_state(witness, n: int) -> QubitState:
    amps = np.array([1.0 + 0.0j])
    for alpha, beta in witness:
        amps = np.kron(amps, np.array([alpha, beta], dtype=complex))
    return QubitState(n, amps)


def _witness_matches(field: RationalField, witness, cfg: RepresentationConfig) -> bool:
    """Compare the witness product field with the original at circle samples."""
    wf = position_map(_witness_state(witness, cfg.n), cfg)
    radius = 2.0 * (1.0 + max(abs(a) for a in cfg.defects))
    for h_alpha, h_beta in witness:
        if h_beta != 0:
            radius = max(radius, 2.0 * abs(h_alpha / h_beta) ** (1.0 / (2 * cfg.d)))
    pts = radius * np.exp(1j * (2.0 * np.pi * np.arange(20) / 20.0 + 0.377))
    f_vals = eval_many(field, pts)
    w_vals = eval_many(wf, pts)
    denom = np.vdot(w_vals, w_vals)
    if denom == 0:
        return False
    lam = np.vdot(w_vals, f_vals) / denom
    err = float(np.max(np.abs(f_vals - lam * w_vals)))
    scale = float(np.max(np.abs(f_vals)))
    return scale > 0 and err <= WITNESS_RTOL * scale


def field_separability(
    field: RationalField, cfg: RepresentationConfig, report: HaloReport | None = None
) -> tuple[bool, tuple[tuple[complex, complex], ...]]:
    """Halo-based separability of a position field, with witness validation.

    The witness lists one (alpha, beta) pair per qubit, scaled so the larger
    component has modulus 1; its product field must match the input up to one
    overall factor at sample points, otherwise the state is declared
    entangled.  Empty witness means entangled.
    """
    if report is None:
        report = detect_halos(extract_defects(field), cfg)
    if not report.all_accounted():
        return False, ()
    witness = []
    for h in report.halos:
        s = max(abs(h.alpha), abs(h.beta))
        witness.append((h.alpha / s, h.beta / s))
    witness = tuple(witness)
    if not _witness_matches(field, witness, cfg):
        return False, ()
    return True, witness


def is_separable_geometric(
    state: QubitState, cfg: RepresentationConfig
) -> tuple[bool, tuple[tuple[complex, complex], ...]]:
    """Decide separability of a state from the halo structure of its field."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    return field_separability(position_map(state, cfg), cfg)


def is_separable_tensor(state: QubitState) -> bool:
    """Rank-based oracle: peel one qubit at a time with an SVD split."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    cur = state
    while cur.n > 1:
        try:
            cur, _ = factor_out_qubit(cur, 1)
        except ValueError:
            return False
    return True


def factorizable_qubits(state: QubitState) -> tuple[int, ...]:
    """1-based positions that split off as unentangled tensor factors."""
    if state.norm() == 0:
        raise ValueError("the zero vector has no separability")
    out = []
    for j in range(1, state.n + 1):
        if state.n == 1:
            out.append(j)
            continue
        try:
            factor_out_qubit(state, j)
            out.append(j)
        except ValueError:
            pass
    return tuple(out)
