"""Mapping qubit states to planar flow fields.

Two representations are provided.  The charge map sends each basis state to a
single monomial ``z**c`` whose exponent encodes the bit string in a signed
base-d expansion, giving a sparse Laurent field.  The position map places one
defect per qubit at a chosen plane point ``a_j`` and sends a basis state to
``prod_j (z - a_j)**((2*sigma_j - 1) * d)``, stored as a rational field over
the fixed denominator ``prod_j (z - a_j)**d``.

Every consumer reads a field through one form: a ``numerator`` polynomial over
the poles ``denominator_spec``, ``(a, m)`` pairs meaning ``prod (z - a)**m``.
A Laurent field keeps its sparse terms for serialization and the circle
product, and derives that form on first use: the coefficients shifted by
``k = max(0, -min c)`` over a pole of order k at the origin.

The physical velocity is read from a field value ``f`` as ``(u, v) =
(Re f, -Im f)``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import PoleEvaluationError, QubitFlowError
from .polynomials import Polynomial
from .states import QubitState, bits_of_index, complex_from_pair, make_basis_state

RANK_RTOL = 1e-9

# Default defect placements and exponents for small registers; other register
# sizes need an explicit choice, which is then checked for independence.
_DEFAULT_DEFECTS: dict[int, tuple[complex, ...]] = {
    1: (0j,),
    2: (-1 + 0j, 1 + 0j),
    3: (-1 + 0j, 1j, 1 + 0j),
    4: (-1 + 0j, 1j, 1 + 0j, -1j),
}
_DEFAULT_POSITION_D = {1: 1, 2: 1, 3: 3, 4: 3}
DEFAULT_CHARGE_D = 3


@dataclass(frozen=True)
class RepresentationConfig:
    """How states are turned into fields: kind is 'charge' or 'position'."""

    kind: str
    n: int
    d: int
    defects: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.kind not in ("charge", "position"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        defs = tuple(complex(a) for a in self.defects)
        if self.kind == "position":
            if len(defs) != self.n:
                raise ValueError(f"position map needs {self.n} defect centers")
            for i in range(len(defs)):
                for j in range(i + 1, len(defs)):
                    if defs[i] == defs[j]:
                        raise ValueError("defect centers must be distinct")
        object.__setattr__(self, "defects", defs)


def make_charge_config(n: int, d: int | None = None) -> RepresentationConfig:
    return RepresentationConfig("charge", n, DEFAULT_CHARGE_D if d is None else d)


def make_position_config(n: int, d: int | None = None, defects=None) -> RepresentationConfig:
    if defects is None:
        if n in _DEFAULT_DEFECTS:
            defects = _DEFAULT_DEFECTS[n]
        else:
            # n-th roots of unity; fine as long as the independence check passes
            defects = tuple(np.exp(2j * np.pi * k / n) for k in range(n))
    if d is None:
        if n in _DEFAULT_POSITION_D:
            d = _DEFAULT_POSITION_D[n]
        else:
            raise ValueError(f"no default exponent for n={n}; pass d explicitly")
    cfg = RepresentationConfig("position", n, d, tuple(defects))
    if n not in _DEFAULT_POSITION_D:
        # no vetted default for this register size; insist the basis is usable
        ok, rank = check_linear_independence(position_basis_fields(cfg))
        if not ok:
            raise ValueError(
                f"basis fields for this configuration are dependent (rank {rank} of {2**n})"
            )
    return cfg


@dataclass
class LaurentField:
    """Sparse Laurent polynomial: exponent -> coefficient, zeros omitted.

    ``numerator`` and ``denominator_spec`` are the same field in rational
    form, computed on first use and cached, so ``terms`` must not change
    afterwards.
    """

    terms: dict[int, complex]

    def __post_init__(self):
        self.terms = {int(c): complex(a) for c, a in self.terms.items() if a != 0}
        for c, a in self.terms.items():
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite coefficient {a} of z**{c}")

    @cached_property
    def denominator_spec(self) -> tuple[tuple[complex, int], ...]:
        k = -min(self.terms, default=0)
        return ((0j, k),) if k > 0 else ()

    @cached_property
    def numerator(self) -> Polynomial:
        k = sum(m for _, m in self.denominator_spec)
        coeffs = np.zeros(max(self.terms, default=0) + k + 1, dtype=complex)
        coeffs[np.fromiter(self.terms, int, len(self.terms)) + k] = list(self.terms.values())
        return Polynomial(coeffs)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_exponent(self) -> int:
        return max((abs(c) for c in self.terms), default=0)

    def to_dict(self) -> dict:
        return {
            "type": "laurent",
            "terms": [[c, [a.real, a.imag]] for c, a in sorted(self.terms.items())],
        }


@dataclass
class RationalField:
    """Numerator polynomial over a fixed factored denominator prod (z-a)**m."""

    numerator: Polynomial
    denominator_spec: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        self.denominator_spec = tuple(
            (complex(a), int(m)) for a, m in self.denominator_spec
        )
        for _, m in self.denominator_spec:
            if m < 1:
                raise ValueError("denominator multiplicities must be >= 1")

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def to_dict(self) -> dict:
        ds = {m for _, m in self.denominator_spec}
        if len(ds) != 1:
            raise ValueError("only uniform denominator exponents serialize")
        return {
            "type": "rational",
            "numerator": [[c.real, c.imag] for c in self.numerator.coeffs],
            "defects": [[a.real, a.imag] for a, _ in self.denominator_spec],
            "d": ds.pop(),
        }


def field_from_dict(data: dict):
    kind = data.get("type")
    if kind == "laurent":
        return LaurentField({int(c): complex_from_pair(a) for c, a in data["terms"]})
    if kind == "rational":
        numer = Polynomial([complex_from_pair(c) for c in data["numerator"]])
        spec = tuple((complex_from_pair(a), int(data["d"])) for a in data["defects"])
        return RationalField(numer, spec)
    raise ValueError(f"unknown field type {kind!r}")


def exponent(bits: str, d: int, offset: int = 0) -> int:
    """Signed base-d charge of a bit string: sum_j (2*sigma_j - 1) * d**(j-1+offset)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty bit string, got {bits!r}")
    return sum((2 * int(b) - 1) * d ** (j + offset) for j, b in enumerate(bits))


def ternary_exponent(tau: str, d: int) -> int:
    """Charge of a variable-particle string over {0,1,2}; 1 means qubit absent."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not tau or any(t not in "012" for t in tau):
        raise ValueError(f"expected a nonempty ternary string, got {tau!r}")
    if set(tau) == {"1"}:
        raise ValueError("the all-absent string has no field")
    return sum((int(t) - 1) * d**j for j, t in enumerate(tau))


def charge_map(state: QubitState, d: int = DEFAULT_CHARGE_D) -> LaurentField:
    """Superpose the monomials z**c(sigma) with the state's amplitudes."""
    terms: dict[int, complex] = {}
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        c = exponent(bits_of_index(idx, state.n), d)
        terms[c] = terms.get(c, 0.0) + amp
    return LaurentField(terms)


def position_map(state: QubitState, cfg: RepresentationConfig) -> RationalField:
    """Numerator sum_sigma lambda_sigma prod_j (z - a_j)**(2*sigma_j*d)."""
    if cfg.kind != "position":
        raise ValueError("position_map needs a position configuration")
    if cfg.n != state.n:
        raise ValueError(f"configuration is for {cfg.n} qubits, state has {state.n}")
    total = Polynomial([0.0])
    for idx, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        bits = bits_of_index(idx, state.n)
        factors = [(cfg.defects[j], 2 * cfg.d) for j, b in enumerate(bits) if b == "1"]
        total = total + Polynomial.from_linear_factors(factors).scale(amp)
    return RationalField(total, tuple((a, cfg.d) for a in cfg.defects))


def charge_basis_fields(n: int, d: int) -> list[LaurentField]:
    return [
        LaurentField({exponent(bits_of_index(i, n), d): 1.0}) for i in range(2**n)
    ]


def position_basis_fields(cfg: RepresentationConfig) -> list[RationalField]:
    return [
        position_map(make_basis_state(cfg.n, bits_of_index(i, cfg.n)), cfg) for i in range(2**cfg.n)
    ]


def laurent_mul(f1: LaurentField, f2: LaurentField) -> LaurentField:
    terms: dict[int, complex] = {}
    for c1, a1 in f1.terms.items():
        for c2, a2 in f2.terms.items():
            c = c1 + c2
            terms[c] = terms.get(c, 0.0) + a1 * a2
    return LaurentField(terms)


def basis_fields(cfg: RepresentationConfig) -> list:
    """The 2**n basis fields of a configuration, in basis-index order."""
    if cfg.kind == "charge":
        return charge_basis_fields(cfg.n, cfg.d)
    return position_basis_fields(cfg)


def map_state(state: QubitState, cfg: RepresentationConfig):
    """The field of a state under either representation."""
    if cfg.kind == "charge":
        return charge_map(state, cfg.d)
    return position_map(state, cfg)


def eval_many(fld, z) -> np.ndarray:
    """Field values at an array of points, shaped like ``z``.

    Horner on the numerator, divided by the factored denominator.  A point
    exactly on a pole raises ``PoleEvaluationError``; a non-finite value
    anywhere else (overflow) raises ``QubitFlowError``.
    """
    z = np.asarray(z, dtype=complex)
    coeffs = fld.numerator.coeffs
    with np.errstate(all="ignore"):
        # Horner in real arithmetic: numpy's complex multiply may fuse
        # operations on some CPUs, so its roundoff would depend on the host
        x, y = z.real, z.imag
        re, im = np.full(z.shape, coeffs[-1].real), np.full(z.shape, coeffs[-1].imag)
        for c in coeffs[-2::-1]:
            re, im = re * x - im * y + c.real, re * y + im * x + c.imag
        num = re + 1j * im
        den = np.ones_like(z)
        for a, m in fld.denominator_spec:
            diff = z - a
            if np.any(diff == 0):
                raise PoleEvaluationError(a)
            den = den * diff**m
        val = num / den
    bad = ~np.isfinite(val)
    if bad.any():
        raise QubitFlowError(f"non-finite field value at z = {z[bad].flat[0]}")
    return val


def eval_field(fld, z: complex) -> tuple[complex, tuple[float, float]]:
    """Field value and velocity components (u, v) = (Re f, -Im f) at z."""
    val = complex(eval_many(fld, complex(z)))
    return val, (val.real, -val.imag)


def _common_numerators(fields) -> list[np.ndarray]:
    """Rewrite fields over one shared denominator; return numerator rows."""
    specs = []
    for f in fields:
        agg: dict[complex, int] = {}
        for a, m in f.denominator_spec:
            agg[a] = agg.get(a, 0) + m
        specs.append(agg)
    common: dict[complex, int] = {}
    for spec in specs:
        for a, m in spec.items():
            common[a] = max(common.get(a, 0), m)
    rows = []
    for f, spec in zip(fields, specs):
        numer = f.numerator.coeffs
        for a, m in common.items():
            k = m - spec.get(a, 0)
            if k and a == 0:
                numer = np.concatenate([np.zeros(k, dtype=complex), numer])  # times z**k
            elif k:
                numer = np.convolve(numer, Polynomial.from_linear_factors([(a, k)]).coeffs)
        rows.append(numer)
    return rows


def check_linear_independence(fields) -> tuple[bool, int]:
    """Numerical rank of a field list via singular values of a coefficient matrix.

    Fields are rewritten over a common denominator, stacked as coefficient
    rows, and the rank counts singular values above RANK_RTOL times the
    largest.
    """
    if not fields:
        raise ValueError("need at least one field")
    rows = _common_numerators(fields)
    width = max(r.size for r in rows)
    mat = np.zeros((len(rows), width), dtype=complex)
    for i, r in enumerate(rows):
        mat[i, : r.size] = r
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return False, 0
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return rank == len(fields), rank


def evaluation_matrix(cfg: RepresentationConfig, points) -> np.ndarray:
    """Field values of the basis family at chosen plane points, one row per point."""
    pts = np.asarray(points, dtype=complex)
    return np.column_stack([eval_many(f, pts) for f in basis_fields(cfg)])


def nonsingularity_gap(matrix: np.ndarray, sweeps: int = 50) -> float:
    """Smallest over largest singular value after row/column equilibration.

    Diagonal rescaling cannot change whether a matrix is singular, so the
    matrix is first balanced by alternately normalizing row and column norms;
    this makes the measure independent of the wild per-entry scale spread the
    raw basis values have.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    for _ in range(sweeps):
        rn = np.linalg.norm(m, axis=1, keepdims=True)
        if np.any(rn == 0):
            return 0.0
        m = m / rn
        cn = np.linalg.norm(m, axis=0, keepdims=True)
        if np.any(cn == 0):
            return 0.0
        m = m / cn
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1] / s[0])


def sufficient_charge_bound(n: int) -> int:
    """An exponent base large enough that all 3**n - 1 charges are distinct."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 14 ** (2**n) * n + 1


def necessary_charge_bound(n: int) -> int:
    """Smallest d with 2*k*d + 1 >= sum_{j<=k} C(n,j) for every k in 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    best = 1
    total = 0
    for k in range(1, n + 1):
        total += comb(n, k)
        # the j=0 term of the sum cancels the +1 on the left
        best = max(best, -(-total // (2 * k)))
    return best
