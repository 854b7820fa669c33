"""n-qubit state vectors, gate application, and the two small oracle circuits.

Basis ordering convention: amplitude index of a bit string is
``sum_j sigma_j * 2**(n-j)``, so the first qubit is the most significant bit
and ``amplitudes.reshape((2,)*n)`` puts qubit j on axis j-1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import gcd

import numpy as np

FACTOR_SV_RTOL = 1e-9
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """State vector on n qubits.  Unnormalized vectors are allowed, non-finite ones are not."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**self.n:
            raise ValueError(f"expected {2**self.n} amplitudes, got {amps.size}")
        if not np.all(np.isfinite(amps)):
            raise ValueError(f"non-finite amplitude {amps[~np.isfinite(amps)][0]}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QubitState":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return QubitState(self.n, self.amplitudes / nrm)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[index_of_bits(bits, self.n)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "amplitudes": [[a.real, a.imag] for a in self.amplitudes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QubitState":
        amps = [complex_from_pair(a) for a in data["amplitudes"]]
        return cls(int(data["n"]), np.array(amps))


def complex_from_pair(pair) -> complex:
    """A finite complex number from a JSON ``[re, im]`` pair of numbers."""
    re, im = pair
    if not (isinstance(re, (int, float)) and isinstance(im, (int, float))):
        raise ValueError(f"expected a pair of numbers, got {pair!r}")
    value = complex(re, im)
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    return value


def index_of_bits(bits: str, n: int) -> int:
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"expected a string of {n} bits, got {bits!r}")
    return int(bits, 2)


def bits_of_index(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def make_basis_state(n: int, bits: str) -> QubitState:
    amps = np.zeros(2**n, dtype=complex)
    amps[index_of_bits(bits, n)] = 1.0
    return QubitState(n, amps)


def make_named_state(name: str, n: int) -> QubitState:
    """Common entangled states by name: ghz, w, bell00/01 with +/- sign."""
    key = name.lower()
    if key == "ghz":
        if n < 2:
            raise ValueError("ghz needs n >= 2")
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
        return QubitState(n, amps)
    if key == "w":
        if n < 2:
            raise ValueError("w needs n >= 2")
        amps = np.zeros(2**n, dtype=complex)
        for j in range(n):
            amps[1 << j] = 1.0 / np.sqrt(n)
        return QubitState(n, amps)
    bell = {
        "bell00+": ("00", "11", 1.0),
        "bell00-": ("00", "11", -1.0),
        "bell01+": ("01", "10", 1.0),
        "bell01-": ("01", "10", -1.0),
    }
    if key in bell:
        if n != 2:
            raise ValueError("bell states need n = 2")
        hi, lo, sign = bell[key]
        amps = np.zeros(4, dtype=complex)
        amps[index_of_bits(hi, 2)] = 1.0 / np.sqrt(2.0)
        amps[index_of_bits(lo, 2)] = sign / np.sqrt(2.0)
        return QubitState(2, amps)
    raise ValueError(f"unknown state name {name!r}")


def tensor(a: QubitState, b: QubitState) -> QubitState:
    return QubitState(a.n + b.n, np.kron(a.amplitudes, b.amplitudes))


@dataclass(frozen=True)
class Gate:
    """Unitary on one or two qubits, stored as a dense matrix."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError("gate matrix must be 2x2 or 4x4")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > UNITARITY_TOL:
            raise ValueError(f"gate {self.label!r} is not unitary (deviation {dev:.2e})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2


_s2 = 1.0 / np.sqrt(2.0)

GATES: dict[str, Gate] = {
    "X": Gate("X", [[0, 1], [1, 0]]),
    "Y": Gate("Y", [[0, -1j], [1j, 0]]),
    "Z": Gate("Z", [[1, 0], [0, -1]]),
    "H": Gate("H", [[_s2, _s2], [_s2, -_s2]]),
    "S": Gate("S", [[1, 0], [0, 1j]]),
    "T": Gate("T", [[1, 0], [0, np.exp(1j * np.pi / 4)]]),
    "SX": Gate("SX", np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0),
    "CX": Gate("CX", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": Gate("CZ", np.diag([1, 1, 1, -1])),
    "SWAP": Gate("SWAP", [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def cphase(theta: float) -> Gate:
    return Gate(f"CP({theta:g})", np.diag([1, 1, 1, np.exp(1j * theta)]))


def apply_gate(state: QubitState, gate: Gate, targets) -> QubitState:
    """Apply ``gate`` to the 1-based qubit positions in ``targets``."""
    targets = list(targets)
    if len(targets) != gate.arity:
        raise ValueError(f"gate {gate.label!r} needs {gate.arity} targets, got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for t in targets:
        if not 1 <= t <= state.n:
            raise ValueError(f"target {t} out of range 1..{state.n}")
    axes = [t - 1 for t in targets]
    tensor_amps = state.amplitudes.reshape((2,) * state.n)
    op = gate.matrix.reshape((2,) * (2 * gate.arity))
    moved = np.tensordot(op, tensor_amps, axes=(range(gate.arity, 2 * gate.arity), axes))
    out = np.moveaxis(moved, range(gate.arity), axes)
    return QubitState(state.n, out.reshape(-1))


def qft(state: QubitState, inverse: bool = False) -> QubitState:
    """Quantum Fourier transform of the whole register."""
    size = 2**state.n
    sign = -1.0 if inverse else 1.0
    k = np.arange(size)
    f = np.exp(sign * 2j * np.pi * np.outer(k, k) / size) / np.sqrt(size)
    return QubitState(state.n, f @ state.amplitudes)


def _qft_prefix(state: QubitState, k: int) -> QubitState:
    """QFT restricted to the first k qubits."""
    block = state.amplitudes.reshape(2**k, -1)
    idx = np.arange(2**k)
    f = np.exp(2j * np.pi * np.outer(idx, idx) / 2**k) / np.sqrt(2**k)
    return QubitState(state.n, (f @ block).reshape(-1))


def factor_out_qubit(state: QubitState, target: int) -> tuple[QubitState, QubitState]:
    """Split a product state into (rest, single qubit at ``target``).

    Raises ``ValueError`` when the target qubit is entangled with the rest,
    judged by the second singular value of the 2 x 2^(n-1) reshape.
    """
    if state.n < 2:
        raise ValueError("need at least two qubits to factor")
    if not 1 <= target <= state.n:
        raise ValueError(f"target {target} out of range 1..{state.n}")
    tensor_amps = state.amplitudes.reshape((2,) * state.n)
    mat = np.moveaxis(tensor_amps, target - 1, 0).reshape(2, -1)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s[0] == 0:
        raise ValueError("cannot factor the zero vector")
    if s[1] > FACTOR_SV_RTOL * s[0]:
        raise ValueError(f"qubit {target} is entangled (ratio {s[1] / s[0]:.2e})")
    single = QubitState(1, u[:, 0] * np.sqrt(s[0]))
    rest = QubitState(state.n - 1, vh[0] * np.sqrt(s[0]))
    return rest, single


@dataclass(frozen=True)
class OracleTable:
    """Classical function table f: {0..2^in_bits - 1} -> {0..2^out_bits - 1}."""

    in_bits: int
    out_bits: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.in_bits < 1 or self.out_bits < 1:
            raise ValueError("in_bits and out_bits must be >= 1")
        vals = tuple(int(v) for v in self.values)
        if len(vals) != 2**self.in_bits:
            raise ValueError(f"expected {2**self.in_bits} table entries, got {len(vals)}")
        for v in vals:
            if not 0 <= v < 2**self.out_bits:
                raise ValueError(f"table value {v} exceeds {self.out_bits}-bit capacity")
        object.__setattr__(self, "values", vals)


def _apply_oracle(state: QubitState, table: OracleTable) -> QubitState:
    """|x>|y> -> |x>|y xor f(x)> with x on the leading qubits."""
    n_in, n_out = table.in_bits, table.out_bits
    if state.n != n_in + n_out:
        raise ValueError("register size does not match oracle table")
    amps = state.amplitudes.reshape(2**n_in, 2**n_out)
    out = np.empty_like(amps)
    y = np.arange(2**n_out)
    for x, fx in enumerate(table.values):
        out[x, y ^ fx] = amps[x, y]
    return QubitState(state.n, out.reshape(-1))


@dataclass(frozen=True)
class DeutschJozsaResult:
    stages: tuple[QubitState, ...]  # init, after H, after oracle, final
    post_oracle_inputs: QubitState
    final_inputs: QubitState
    input_distribution: np.ndarray

    @property
    def all_zero_probability(self) -> float:
        return float(self.input_distribution[0])


def deutsch_jozsa(values, in_bits: int = 3) -> DeutschJozsaResult:
    """Run the Deutsch-Jozsa circuit on a Boolean table over ``in_bits`` inputs.

    The register is ``in_bits`` input qubits plus one ancilla prepared in |1>.
    The ancilla stays unentangled throughout, so the input-register states
    before and after the final Hadamards are returned factored out.
    """
    table = OracleTable(in_bits, 1, tuple(values))
    n = in_bits + 1
    init = make_basis_state(n, "0" * in_bits + "1")
    state = init
    for q in range(1, n + 1):
        state = apply_gate(state, GATES["H"], [q])
    after_h = state
    after_oracle = _apply_oracle(after_h, table)
    state = after_oracle
    for q in range(1, in_bits + 1):
        state = apply_gate(state, GATES["H"], [q])
    final = state
    post_oracle_inputs, _ = factor_out_qubit(after_oracle, n)
    final_inputs, _ = factor_out_qubit(final, n)
    dist = final.probabilities().reshape(2**in_bits, 2).sum(axis=1)
    return DeutschJozsaResult(
        stages=(init, after_h, after_oracle, final),
        post_oracle_inputs=post_oracle_inputs.normalized(),
        final_inputs=final_inputs.normalized(),
        input_distribution=dist,
    )


@dataclass(frozen=True)
class ShorResult:
    stages: tuple[QubitState, ...]  # init, after H, after oracle, after QFT
    period: int
    measurement_distribution: np.ndarray  # over the input register


def shor_period_find(values, n_in: int = 2, n_anc: int = 2) -> ShorResult:
    """Order-finding core: H on inputs, oracle into ancillas, QFT on inputs.

    ``values`` must be periodic with a period dividing ``2**n_in`` and take
    distinct values within one period; ancillas hold f(x) in binary.
    """
    table = OracleTable(n_in, n_anc, tuple(values))
    size = 2**n_in
    period = size
    for r in range(1, size):
        if size % r == 0 and all(table.values[(x + r) % size] == table.values[x] for x in range(size)):
            period = r
            break
    if len(set(table.values[:period])) != period:
        raise ValueError("oracle values must be distinct within one period")
    n = n_in + n_anc
    init = make_basis_state(n, "0" * n)
    state = init
    for q in range(1, n_in + 1):
        state = apply_gate(state, GATES["H"], [q])
    after_h = state
    after_oracle = _apply_oracle(after_h, table)
    after_qft = _qft_prefix(after_oracle, n_in)
    dist = after_qft.probabilities().reshape(size, 2**n_anc).sum(axis=1)
    return ShorResult(
        stages=(init, after_h, after_oracle, after_qft),
        period=period,
        measurement_distribution=dist,
    )
