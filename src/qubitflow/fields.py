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
``k = max(0, -min c)`` over a pole of order k at the origin.  Beneath the
numerator lies one exact, read-only coefficient array ``_coeffs`` over the
same poles: a rational field's numerator coefficients, or a Laurent field's
terms placed at ``c + k`` with none trimmed, of which ``numerator`` is the
trimmed ``Polynomial``.  The Gram basis reads fields through ``_coeffs``.

The physical velocity is read from a field value ``f`` as ``(u, v) =
(Re f, -Im f)``.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .errors import PoleEvaluationError, QubitFlowError
from .polynomials import Polynomial, horner
from .states import FACTOR_SV_RTOL, QubitState, bits_of_index, checked_int, complex_from_pair

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
        n, d = checked_int(self.n, "n", 1), checked_int(self.d, "d", 1)
        defs = tuple(complex(a) for a in self.defects)
        for a in defs:
            if not cmath.isfinite(a):
                raise ValueError(f"defect center {a} is not finite")
        if self.kind == "position":
            if len(defs) != n:
                raise ValueError(f"position map needs {n} defect centers")
            if len(set(defs)) != len(defs):
                raise ValueError("defect centers must be distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "defects", defs)


def make_charge_config(n: int, d: int | None = None) -> RepresentationConfig:
    return RepresentationConfig("charge", n, DEFAULT_CHARGE_D if d is None else d)


def make_position_config(n: int, d: int | None = None, defects=None) -> RepresentationConfig:
    if defects is None:
        # other sizes get the n-th roots of unity, fine if the independence check passes
        defects = _DEFAULT_DEFECTS.get(n) or tuple(np.exp(2j * np.pi * k / n) for k in range(n))
    d = _DEFAULT_POSITION_D.get(n) if d is None else d
    if d is None:
        raise ValueError(f"no default exponent for n={n}; pass d explicitly")
    cfg = RepresentationConfig("position", n, d, tuple(defects))
    if n not in _DEFAULT_POSITION_D:
        # no vetted default for this register size; insist the basis is usable
        rank = _basis(cfg).recovery.rank
        if rank < 2**n:
            raise ValueError(
                f"basis fields for this configuration are dependent (rank {rank} of {2**n})"
            )
    return cfg


@dataclass(frozen=True)
class LaurentField:
    """Sparse Laurent polynomial: exponent -> coefficient, zeros omitted.

    ``terms`` is a read-only mapping.  ``numerator`` and ``denominator_spec``
    are the same field in rational form, computed on first use and cached.
    """

    terms: MappingProxyType

    def __post_init__(self):
        try:
            if bool in map(type, self.terms):  # operator.index would read True as 1
                raise TypeError
            pairs = zip(map(operator.index, self.terms), map(complex, self.terms.values()))
            terms = {c: a for c, a in pairs if a != 0}
        except TypeError:
            for c in self.terms:
                checked_int(c, "Laurent exponent")  # raises, naming the first exponent that is not an int
            raise
        object.__setattr__(self, "terms", MappingProxyType(terms))
        for c, a in terms.items():
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite coefficient {a} of z**{c}")

    def __reduce__(self):  # a mappingproxy does not pickle or copy
        return LaurentField, (dict(self.terms),)

    @cached_property
    def denominator_spec(self) -> tuple[tuple[complex, int], ...]:
        k = -min(self.terms, default=0)
        return ((0j, k),) if k > 0 else ()

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """The exact numerator, read-only: each term at c + k, none trimmed."""
        k = sum(m for _, m in self.denominator_spec)
        coeffs = np.zeros(max(self.terms, default=0) + k + 1, dtype=complex)
        coeffs[np.fromiter(self.terms, int, len(self.terms)) + k] = list(self.terms.values())
        coeffs.setflags(write=False)
        return coeffs

    @cached_property
    def numerator(self) -> Polynomial:
        return Polynomial(self._coeffs)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_exponent(self) -> int:
        return max((abs(c) for c in self.terms), default=0)

    def to_dict(self) -> dict:
        return {
            "type": "laurent",
            "terms": [[c, [a.real, a.imag]] for c, a in sorted(self.terms.items())],
        }


@dataclass(frozen=True)
class RationalField:
    """Numerator polynomial over a fixed factored denominator prod (z-a)**m."""

    numerator: Polynomial
    denominator_spec: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        spec = tuple((complex(a), checked_int(m, "pole order")) for a, m in self.denominator_spec)
        object.__setattr__(self, "denominator_spec", spec)
        for _, m in spec:
            if m < 1:
                raise ValueError("denominator multiplicities must be >= 1")

    @property
    def _coeffs(self) -> np.ndarray:
        return self.numerator.coeffs

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
        terms = {checked_int(c, "Laurent exponent"): complex_from_pair(a) for c, a in data["terms"]}
        if len(terms) < len(data["terms"]):
            raise ValueError("repeated Laurent exponent")
        return LaurentField(terms)
    if kind == "rational":
        numer = Polynomial([complex_from_pair(c) for c in data["numerator"]])
        d = checked_int(data["d"], "d")
        spec = tuple((complex_from_pair(a), d) for a in data["defects"])
        return RationalField(numer, spec)
    raise ValueError(f"unknown field type {kind!r}")


def exponent(bits: str, d: int, offset: int = 0) -> int:
    """Signed base-d charge of a bit string: sum_j (2*sigma_j - 1) * d**(j-1+offset)."""
    d, offset = checked_int(d, "d", 1), checked_int(offset, "offset")
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty bit string, got {bits!r}")
    return sum((2 * int(b) - 1) * d ** (j + offset) for j, b in enumerate(bits))


def ternary_exponent(tau: str, d: int) -> int:
    """Charge of a variable-particle string over {0,1,2}; 1 means qubit absent."""
    d = checked_int(d, "d", 1)
    if not tau or any(t not in "012" for t in tau):
        raise ValueError(f"expected a nonempty ternary string, got {tau!r}")
    if set(tau) == {"1"}:
        raise ValueError("the all-absent string has no field")
    return sum((int(t) - 1) * d**j for j, t in enumerate(tau))


def charge_map(state: QubitState, d: int = DEFAULT_CHARGE_D) -> LaurentField:
    """Superpose the monomials z**c(sigma) with the state's amplitudes."""
    terms: dict[int, complex] = {}
    for amp, c in zip(state.amplitudes.tolist(), _charge_basis(state.n, d).exponents):
        if amp != 0:
            terms[c] = terms.get(c, 0j) + amp
    return LaurentField(terms)


def position_map(state: QubitState, cfg: RepresentationConfig) -> RationalField:
    """Numerator sum_sigma lambda_sigma prod_j (z - a_j)**(2*sigma_j*d), as N = M psi.

    N is each cached basis row times its amplitude, summed down the rows in
    index order by numpy's own multiply and add, then trimmed once by
    ``Polynomial``.  Not ``@``: BLAS would make its last bits depend on the
    host.
    """
    if cfg.kind != "position":
        raise ValueError("position_map needs a position configuration")
    if cfg.n != state.n:
        raise ValueError(f"configuration is for {cfg.n} qubits, state has {state.n}")
    basis = _basis(cfg)
    numer = (basis.rows * state.amplitudes[:, None]).sum(axis=0)
    return RationalField(Polynomial(numer), basis[0].denominator_spec)


def _basis(cfg: RepresentationConfig) -> "_Basis":
    """The 2**n basis fields of ``cfg`` in index order, built once and shared: fields are values."""
    # keyed by the centers' bytes too: equal configs may differ in the sign of a zero
    return _build_basis(cfg, np.array(cfg.defects, dtype=complex).tobytes())


class _Basis(tuple):
    """Fields in index order.  ``rows``, built once, holds their numerators over the common
    denominator as zero-padded rows, so a position field is N = M psi, ``rows`` times psi summed
    down the rows; ``recovery`` holds M = rows.T and, from one SVD, its pinv, left inverse,
    condition and rank.  The other properties, also derived once, serve ``charge_map``,
    ``align`` and ``recover``."""

    @cached_property
    def rows(self) -> np.ndarray:
        rows = _numerator_rows(self)
        rows.setflags(write=False)
        return rows

    @cached_property
    def recovery(self) -> SimpleNamespace:
        m = self.rows.T
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        rank = _rank(s)
        pinv = (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T
        pinv.setflags(write=False)
        cond = float(s[0] / s[-1]) if rank == m.shape[1] else np.inf
        # G = (M^+ M)^-1 M^+ divides the roundoff of M^+ M back out; a dependent M has no left
        # inverse, and there G = M^+, with M G N still N's projection onto the span
        left = pinv if rank < m.shape[1] else np.linalg.solve(pinv @ m, pinv)
        left.setflags(write=False)
        return SimpleNamespace(matrix=m, pinv=pinv, left_inverse=left, condition=cond, rank=rank)

    def amplitudes(self, field) -> np.ndarray:
        """psi = ``recover(align(field))``, the state whose field this is."""
        return self.recover(self.align(field))

    def recover(self, numer: np.ndarray) -> np.ndarray:
        """psi = G N for an aligned numerator N; an N with ||N - M psi|| > FACTOR_SV_RTOL ||N||
        lies outside the span of M, is the field of no state, and raises ValueError."""
        rec = self.recovery
        psi = rec.left_inverse @ numer
        resid = numer - rec.matrix @ psi
        if np.vdot(resid, resid).real > FACTOR_SV_RTOL**2 * np.vdot(numer, numer).real:
            raise ValueError("field lies outside the span of the basis")
        return psi

    @cached_property
    def poles(self) -> dict[complex, int]:
        """M's denominator, {center: order}: basis state 0 has the deepest poles."""
        return _poles(self[0])

    @cached_property
    def width(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def exponents(self) -> list[int]:
        """Each Laurent field's one exponent, for a charge basis."""
        return [c for f in self for c in f.terms]

    def align(self, field) -> np.ndarray:
        """N: the field's exact coefficients over M's denominator, one entry per row of M,
        read-only, since a field already that wide is returned as it is."""
        numer = _over(field, self.poles)
        if numer.size > self.width:
            raise ValueError("field has a degree outside the span of the basis")
        if numer.size < self.width:
            numer = np.concatenate([numer, np.zeros(self.width - numer.size, dtype=complex)])
        numer.setflags(write=False)
        return numer


@lru_cache(maxsize=32)
def _build_basis(cfg: RepresentationConfig, centers_key: bytes) -> _Basis:
    rows = [bits_of_index(i, cfg.n) for i in range(2**cfg.n)]
    if cfg.kind == "charge":
        return _Basis(LaurentField({exponent(bits, cfg.d): 1.0}) for bits in rows)
    factors = ([(a, 2 * cfg.d) for a, b in zip(cfg.defects, bits) if b == "1"] for bits in rows)
    spec = tuple((a, cfg.d) for a in cfg.defects)
    return _Basis(RationalField(Polynomial.from_linear_factors(f), spec) for f in factors)


@lru_cache(maxsize=32, typed=True)  # typed: d = 3.0 or True must reach the config's check
def _charge_basis(n: int, d: int) -> _Basis:
    return _basis(make_charge_config(n, d))


def charge_basis_fields(n: int, d: int) -> list[LaurentField]:
    return list(_charge_basis(n, d))


def position_basis_fields(cfg: RepresentationConfig) -> list[RationalField]:
    if cfg.kind != "position":
        raise ValueError("position_basis_fields needs a position configuration")
    return list(_basis(cfg))


def laurent_mul(f1: LaurentField, f2: LaurentField) -> LaurentField:
    terms: dict[int, complex] = {}
    for c1, a1 in f1.terms.items():
        for c2, a2 in f2.terms.items():
            c = c1 + c2
            terms[c] = terms.get(c, 0.0) + a1 * a2
    return LaurentField(terms)


def basis_fields(cfg: RepresentationConfig) -> list:
    """The 2**n basis fields of a configuration, in basis-index order."""
    return list(_basis(cfg))


def map_state(state: QubitState, cfg: RepresentationConfig):
    """The field of a state under either representation."""
    if cfg.kind == "charge":
        return charge_map(state, cfg.d)
    return position_map(state, cfg)


def eval_many(fld, z) -> np.ndarray:
    """Field values at an array of points, shaped like ``z``.

    The numerator's ``horner`` values over the factored denominator.  Where
    such a value is non-finite and |z| > 1, the unit-disc rule gives it as
    z**(deg - sum m) * rev(1/z) / prod (1 - a/z)**m, with ``rev`` the reversed
    numerator; finite values keep their bits.  A point exactly on a pole
    raises ``PoleEvaluationError``; a value still non-finite (overflow) raises
    ``QubitFlowError``.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        num = fld.numerator(z)
        den = np.ones_like(z)
        for a, m in fld.denominator_spec:
            if np.any(z == a):
                raise PoleEvaluationError(a)
            den = den * (z - a) ** m
        val = np.asarray(num / den)
        big = ~np.isfinite(val) & (np.abs(z) > 1.0)
        if big.any():
            w, rev = 1.0 / z[big], fld.numerator.coeffs[::-1]
            k = rev.size - 1 - sum(m for _, m in fld.denominator_spec)
            far = horner(rev, w) * z[big] ** k
            for a, m in fld.denominator_spec:
                far = far / (1.0 - a * w) ** m
            val[big] = far
    bad = ~np.isfinite(val)
    if bad.any():
        raise QubitFlowError(f"non-finite field value at z = {z[bad].flat[0]}")
    return val[()]


def eval_field(fld, z: complex) -> tuple[complex, tuple[float, float]]:
    """Field value and velocity components (u, v) = (Re f, -Im f) at z."""
    val = complex(eval_many(fld, complex(z)))
    return val, (val.real, -val.imag)


def _poles(field) -> dict[complex, int]:
    agg: dict[complex, int] = {}
    for a, m in field.denominator_spec:
        agg[a] = agg.get(a, 0) + m
    return agg


def _over(field, common: dict[complex, int]) -> np.ndarray:
    """The exact coefficients of ``field`` over the denominator ``common`` ({center: order}),
    its own read-only array where its poles are ``common``: each missing pole order
    multiplies them by its factor, a shift for a pole at 0."""
    own = _poles(field)
    if own == common:
        return field._coeffs
    if any(m > common.get(a, 0) for a, m in own.items()):
        raise ValueError("field has a pole outside the shared denominator")
    numer = field._coeffs
    for a, m in common.items():
        k = m - own.get(a, 0)
        if k and a == 0:
            numer = np.concatenate([np.zeros(k, dtype=complex), numer])  # times z**k
        elif k:
            numer = np.convolve(numer, Polynomial.from_linear_factors([(a, k)]).coeffs)
    return numer


def _numerator_rows(fields, common=None) -> np.ndarray:
    """Numerators of ``fields`` over the denominator ``common`` ({center: order}; by default
    the least common one), as zero-padded coefficient rows."""
    if common is None:
        common = {}
        for f in fields:
            for a, m in _poles(f).items():
                common[a] = max(common.get(a, 0), m)
    rows = [_over(f, common) for f in fields]
    mat = np.zeros((len(rows), max(r.size for r in rows)), dtype=complex)
    for i, r in enumerate(rows):
        mat[i, : r.size] = r
    return mat


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values ``s``, largest first: those above RANK_RTOL·s[0]."""
    return int(np.sum(s > RANK_RTOL * s[0]))


def check_linear_independence(fields) -> tuple[bool, int]:
    """Numerical rank of a field list via singular values of a coefficient matrix.

    Fields are rewritten over a common denominator as the columns of M, and
    the rank counts singular values above RANK_RTOL times the largest.
    """
    if not fields:
        raise ValueError("need at least one field")
    rank = _rank(np.linalg.svd(_numerator_rows(fields).T, compute_uv=False))
    return rank == len(fields), rank


def evaluation_matrix(cfg: RepresentationConfig, points) -> np.ndarray:
    """Field values of the basis family at chosen plane points, one row per point."""
    pts = np.asarray(points, dtype=complex)
    return np.column_stack([eval_many(f, pts) for f in _basis(cfg)])


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
    for _ in range(checked_int(sweeps, "sweeps")):
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
    n = checked_int(n, "n", 1)
    return 14 ** (2**n) * n + 1


def necessary_charge_bound(n: int) -> int:
    """Smallest d with 2*k*d + 1 >= sum_{j<=k} C(n,j) for every k in 1..n."""
    n = checked_int(n, "n", 1)
    best = 1
    total = 0
    for k in range(1, n + 1):
        total += comb(n, k)
        # the j=0 term of the sum cancels the +1 on the left
        best = max(best, -(-total // (2 * k)))
    return best
