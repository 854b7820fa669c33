"""Inner products between flow fields.

The Gram route evaluates each basis field and its first 2^n - 1 derivatives
at a probe point alpha, collects them as the columns of B(alpha), and uses
P = (B^-1)^dagger B^-1 so the basis fields come out orthonormal; where no
probe is conditioned, recovery B = M^+ M from the basis coefficient matrix M
takes the derivatives' place.  Either way a field in the basis' span is the
combination psi of the basis fields, and <f, g> = psi_f^dagger psi_g: each
field is read through its amplitudes psi, which the basis recovers by one
left inverse and its span rule.  The circle route is the exact coefficient
overlap of two Laurent fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .fields import LaurentField, RepresentationConfig, _basis
# derivative_eval is not called here; perfbench's tracer wraps it in every namespace that holds it
from .polynomials import _factorials, derivative_eval, wronskian_matrix  # noqa: F401

CONDITION_LIMIT = 1e8
CONDITION_TIE_RTOL = 1e-9
PROBE_RADII = (0.3, 0.7, 1.7, 2.9)
PROBE_ANGLES = 16
PROBE_KEEPOUT = 1e-3


@dataclass(frozen=True)
class GramContext:
    """Probe point (None for recovery), basis and weight matrices of one configuration.
    ``pi`` reads a field through its amplitudes psi alone: Pi(field) = B psi."""

    config: RepresentationConfig
    alpha: complex | None
    basis_matrix: np.ndarray  # B: column sigma holds Pi of basis field sigma
    weight: np.ndarray  # P = (B^-1)^dagger B^-1, Hermitian positive definite
    condition_estimate: float

    @property
    def order(self) -> int:
        return self.basis_matrix.shape[0]

    def pi(self, field) -> np.ndarray:
        return self.basis_matrix @ _basis(self.config).amplitudes(field)

    def to_dict(self) -> dict:
        return {
            "alpha": None if self.alpha is None else [self.alpha.real, self.alpha.imag],
            "condition_estimate": self.condition_estimate,
            "basis_matrix": [
                [[v.real, v.imag] for v in row] for row in self.basis_matrix
            ],
            "weight": [[[v.real, v.imag] for v in row] for row in self.weight],
        }


def build_gram(cfg: RepresentationConfig) -> GramContext:
    """Pick the best-conditioned probe point from a fixed candidate grid.

    One batched pass takes the 2-norm condition number at every candidate on
    four circles, and the first in scan order within CONDITION_TIE_RTOL of
    the smallest wins, so exact ties (every angle on a circle, for charge
    bases) do not hang on roundoff.  Where that value is within
    CONDITION_LIMIT, ``wronskian_matrix`` takes B once, at the pick, and its
    exact condition number decides.  Above CONDITION_LIMIT the probe is
    numerically useless, and amplitude recovery (alpha None, condition
    cond M) serves instead; where M fails too, a ConditioningError reports
    the pick (alpha None where no condition number is finite) and, for a
    dependent basis, its rank.
    """
    fields = _basis(cfg)
    alphas = _probe_points(fields)
    conds = _batched_conditions(fields, alphas)
    first = int(np.argmax(conds <= conds.min(initial=np.inf) * (1.0 + CONDITION_TIE_RTOL)))
    cond, alpha, b = float(conds[first]), complex(alphas[first]), None
    if cond <= CONDITION_LIMIT:
        b = wronskian_matrix(fields, alpha)
        cond = float(np.linalg.cond(b)) if _lapack_safe(b) else np.inf
    if cond > CONDITION_LIMIT:
        rec = fields.recovery
        if rec.condition > CONDITION_LIMIT:
            rank = (rec.rank, len(fields)) if rec.rank < len(fields) else None
            raise ConditioningError(alpha if np.isfinite(cond) else None, cond, rank)
        cond, alpha, b = rec.condition, None, rec.pinv @ rec.matrix
    b_inv = np.linalg.inv(b)
    weight = b_inv.conj().T @ b_inv
    weight = 0.5 * (weight + weight.conj().T)
    return GramContext(cfg, alpha, b, weight, cond)


def _probe_points(fields) -> np.ndarray:
    """The candidates in scan order, less those within PROBE_KEEPOUT of a pole."""
    circle = [np.exp(2j * np.pi * k / PROBE_ANGLES) for k in range(PROBE_ANGLES)]
    alphas = np.array([r * u for r in PROBE_RADII for u in circle])
    poles = np.array(list(fields.poles), dtype=complex)
    return alphas[np.abs(alphas[:, None] - poles).min(axis=1) >= PROBE_KEEPOUT]


def _batched_conditions(fields, alphas: np.ndarray) -> np.ndarray:
    """cond B(alpha) at every probe from one pass, inf where B is not finite.

    The basis numerators over their common denominator have the Taylor
    coefficients sum_i C(i, k) alpha**(i - k) c_i at alpha, summed over their
    nonzero columns only; each center's pole series then multiplies them as a
    lower-triangular Toeplitz matrix per probe.  The values agree with
    ``wronskian_matrix`` to roundoff, not to the bit, so they pick the probe
    and the exact B at the pick decides whether it serves.
    """
    order = len(fields)
    cols = np.flatnonzero(fields.rows.any(axis=0))
    t = np.arange(1, order)
    binom = np.cumprod(np.column_stack([np.ones(cols.size), (cols[:, None] - t + 1) / t]), axis=1)
    j = np.arange(1.0, order)
    lag = np.arange(order)[:, None] - np.arange(order)
    with np.errstate(all="ignore"):
        rising = np.broadcast_to(alphas[:, None], (alphas.size, cols[-1]))
        powers = np.cumprod(np.column_stack([np.ones(alphas.size), rising]), axis=1)
        vand = binom * powers[:, np.maximum(cols[:, None] - np.arange(order), 0)]
        stack = vand.transpose(0, 2, 1) @ fields.rows[:, cols].T
        for a, m in fields.poles.items():
            gap = alphas[:, None] - a
            pole = np.cumprod(np.column_stack([gap**-m, (1.0 - m - j) / (j * gap)]), axis=1)
            stack = np.where(lag >= 0, pole[:, np.maximum(lag, 0)], 0) @ stack
        stack *= _factorials(order - 1)[:, None]
        finite = _lapack_safe(stack)
    conds = np.full(alphas.size, np.inf)
    if finite.any():
        conds[finite] = np.linalg.cond(stack[finite])
    return conds


def _lapack_safe(b: np.ndarray):
    """Whether every entry's modulus is finite, per matrix of a stack; LAPACK prints and
    returns garbage on anything else."""
    return np.isfinite(np.abs(b)).all(axis=(-2, -1))


def inner(f1, f2, ctx: GramContext) -> complex:
    """<f1, f2> = Pi(f1)^dagger P Pi(f2) = psi_1^dagger psi_2, conjugate-linear in f1."""
    basis = _basis(ctx.config)
    return complex(np.vdot(basis.amplitudes(f1), basis.amplitudes(f2)))


def gram_norm(field, ctx: GramContext) -> float:
    psi = _basis(ctx.config).amplitudes(field)  # the same expression as inner(field, field, ctx)
    return float(np.sqrt(max(np.vdot(psi, psi).real, 0.0)))


def circle_inner_product(f1: LaurentField, f2: LaurentField, nodes: int | None = None) -> complex:
    """The coefficient overlap sum_c conj(a_c) b_c of two Laurent fields, over the terms they share.

    It equals the average of conj(f1) * f2 over ``nodes`` uniform points on
    the unit circle when they exceed twice the largest |exponent|; fewer are
    rejected.
    """
    if not isinstance(f1, LaurentField) or not isinstance(f2, LaurentField):
        raise ValueError("the circle inner product is defined for Laurent fields")
    if nodes is not None:
        max_exp = max(f1.max_abs_exponent(), f2.max_abs_exponent())
        if nodes < 2 * max_exp + 1:
            raise ValueError(f"need at least {2 * max_exp + 1} nodes for exponents up to {max_exp}")
    return complex(sum(a.conjugate() * f2.terms[c] for c, a in f1.terms.items() if c in f2.terms))
