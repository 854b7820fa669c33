"""Inner products between flow fields.

The Gram route evaluates each field and its first 2^n - 1 derivatives at a
probe point alpha, collects the basis images as columns of B(alpha), and uses
P = (B^-1)^dagger B^-1 so the basis fields come out orthonormal; where no
probe is conditioned, amplitude recovery M^+ N from the basis coefficient
matrix M takes the derivatives' place.  The circle route is the exact
coefficient overlap of two Laurent fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .fields import LaurentField, RepresentationConfig, _basis, _numerator_rows
from .polynomials import derivative_eval, wronskian_matrix

CONDITION_LIMIT = 1e8
CONDITION_TIE_RTOL = 1e-9
PROBE_RADII = (0.3, 0.7, 1.7, 2.9)
PROBE_ANGLES = 16
PROBE_KEEPOUT = 1e-3


@dataclass(frozen=True)
class GramContext:
    """Probe point (None for amplitude recovery), basis and weight matrices of one configuration."""

    config: RepresentationConfig
    alpha: complex | None
    basis_matrix: np.ndarray  # B: column sigma holds Pi of basis field sigma
    weight: np.ndarray  # P = (B^-1)^dagger B^-1, Hermitian positive definite
    condition_estimate: float

    @property
    def order(self) -> int:
        return self.basis_matrix.shape[0]

    def pi(self, field) -> np.ndarray:
        """The functional: derivatives at the probe point, or the amplitudes M^+ N."""
        if self.alpha is None:
            basis = _basis(self.config)
            return basis.recovery.pinv @ basis.align(field)
        return derivative_eval(field, self.alpha, self.order - 1)

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

    Candidates on four circles are scanned in a fixed order, and the first
    whose 2-norm condition number is within CONDITION_TIE_RTOL of the
    smallest wins, so exact ties (every angle on a circle, for charge bases)
    do not hang on roundoff.  Above CONDITION_LIMIT the probe is numerically
    useless, and amplitude recovery (alpha None, condition cond M) serves
    instead; ConditioningError reports the best probe when M fails too.
    """
    fields = _basis(cfg)
    keepout = {a for f in fields for a, _ in f.denominator_spec}
    scanned = []
    for r in PROBE_RADII:
        for k in range(PROBE_ANGLES):
            alpha = r * np.exp(2j * np.pi * k / PROBE_ANGLES)
            if min(abs(alpha - p) for p in keepout) < PROBE_KEEPOUT:
                continue
            b = wronskian_matrix(fields, alpha)
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


def inner(f1, f2, ctx: GramContext) -> complex:
    """<f1, f2> with the Gram weight; conjugate-linear in the first slot."""
    v1 = ctx.pi(f1)
    v2 = ctx.pi(f2)
    return complex(v1.conj() @ ctx.weight @ v2)


def gram_norm(field, ctx: GramContext) -> float:
    return float(np.sqrt(max(inner(field, field, ctx).real, 0.0)))


def circle_inner_product(f1: LaurentField, f2: LaurentField, nodes: int | None = None) -> complex:
    """The coefficient overlap sum_c conj(a_c) b_c of two Laurent fields.

    It equals the average of conj(f1) * f2 over ``nodes`` uniform points on
    the unit circle when they exceed twice the largest |exponent|; fewer are
    rejected.
    """
    if not isinstance(f1, LaurentField) or not isinstance(f2, LaurentField):
        raise ValueError("the circle inner product is defined for Laurent fields")
    max_exp = max(f1.max_abs_exponent(), f2.max_abs_exponent())
    required = 2 * max_exp + 1
    if nodes is not None and nodes < required:
        raise ValueError(f"need at least {required} nodes for exponents up to {max_exp}")
    rows = _numerator_rows([f1, f2])
    return complex(np.vdot(rows[0], rows[1]))
