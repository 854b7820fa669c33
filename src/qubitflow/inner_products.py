"""Inner products between flow fields.

The Gram route evaluates each field and its first 2^n - 1 derivatives at a
probe point alpha, collects the basis images as columns of B(alpha), and uses
P = (B^-1)^dagger B^-1 so the basis fields come out orthonormal.  The circle
route averages conj(f1) * f2 over uniform unit-circle nodes, which is exact
for Laurent fields once the node count beats the largest exponent spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .fields import LaurentField, RepresentationConfig, basis_fields
from .polynomials import derivative_eval, wronskian_matrix

CONDITION_LIMIT = 1e8
CONDITION_TIE_RTOL = 1e-9
PROBE_RADII = (0.3, 0.7, 1.7, 2.9)
PROBE_ANGLES = 16
PROBE_KEEPOUT = 1e-3


@dataclass(frozen=True)
class GramContext:
    """Probe point, basis matrix, and weight matrix for one configuration."""

    config: RepresentationConfig
    alpha: complex
    basis_matrix: np.ndarray  # B: column sigma holds derivatives 0..2^n-1
    weight: np.ndarray  # P = (B^-1)^dagger B^-1, Hermitian positive definite
    condition_estimate: float

    @property
    def order(self) -> int:
        return self.basis_matrix.shape[0]

    def pi(self, field) -> np.ndarray:
        """Evaluation functional: field and derivatives at the probe point."""
        return derivative_eval(field, self.alpha, self.order - 1)

    def to_dict(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
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
    do not hang on roundoff.  Anything above 1e8 is rejected as numerically
    useless.
    """
    fields = basis_fields(cfg)
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
    if not scanned:
        raise ConditioningError(None, float("inf"))
    tie = min(item[0] for item in scanned) * (1.0 + CONDITION_TIE_RTOL)
    cond, alpha, b = next(item for item in scanned if item[0] <= tie)
    if cond > CONDITION_LIMIT:
        raise ConditioningError(alpha, cond)
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
    """Average conj(f1) * f2 over uniform nodes on the unit circle.

    Exact (equal to the coefficient overlap sum) whenever the node count
    exceeds twice the largest absolute exponent of either field.
    """
    if not isinstance(f1, LaurentField) or not isinstance(f2, LaurentField):
        raise ValueError("the circle inner product is defined for Laurent fields")
    max_exp = max(f1.max_abs_exponent(), f2.max_abs_exponent())
    required = 2 * max_exp + 1
    if nodes is None:
        nodes = 2 * max_exp + 8
    if nodes < required:
        raise ValueError(f"need at least {required} nodes for exponents up to {max_exp}")
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)

    def values(f):
        out = np.zeros(nodes, dtype=complex)
        for c, a in f.terms.items():
            out += a * z**c
        return out

    return complex(np.mean(np.conj(values(f1)) * values(f2)))
