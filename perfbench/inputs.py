"""Seeded inputs for the qubitflow benchmark, with their references.

Everything here is plain numpy.  qubitflow only ever sees what these
functions produce (field JSON documents, circuit specs and state pairs), and
the references its outputs are checked against are computed here,
independently of the package.  The same seed gives the same pool.

A pool is a list of items, one per operation, in a fixed mix: each
workload's spec gives how many items of each kind a pool holds.  The
benchmark runs whole passes over the pool, so every run measures the same
mix.
"""

from __future__ import annotations

import numpy as np

# A state counts as a product when the largest Schmidt ratio over all
# single-qubit cuts is at most this (the same threshold qubitflow's SVD oracle
# ``is_separable_tensor`` applies).
SEPARABLE_RTOL = 1e-9

# The position configurations qubitflow uses by default; written into every
# field document, so the package reads them back from its input.
POSITION_DEFECTS = {
    1: (0j,),
    2: (-1 + 0j, 1 + 0j),
    3: (-1 + 0j, 1j, 1 + 0j),
    4: (-1 + 0j, 1j, 1 + 0j, -1j),
}
POSITION_D = {1: 1, 2: 1, 3: 3, 4: 3}
CHARGE_D = 3

NEAR_LOG10_EPS = (-12.0, -4.0)
SKEW_LOG10_RATIO = (-7.0, 7.0)

# analyze_mix: (representation, n, family, items per pool).  The timed mix
# holds only the product and generic families, on which no operation fails
# today.  Nearly three quarters of the ops are fast (position n=2 and charge
# n=2, ~5-7 ms) so that the median sits inside that mode rather than on the
# gap to the slow n>=3 mode (25-110 ms), while the n=4 share (20 of 128)
# keeps p90 inside the n=4 tail.
ANALYZE_POOL = (
    ("position", 2, "product", 30),
    ("position", 2, "generic", 30),
    ("charge", 2, "product", 16),
    ("charge", 2, "generic", 16),
    ("position", 3, "product", 4),
    ("position", 3, "generic", 4),
    ("position", 4, "product", 10),
    ("position", 4, "generic", 10),
    ("charge", 3, "product", 4),
    ("charge", 3, "generic", 4),
)

# Families on which qubitflow is known to fail today: halo and SVD verdicts
# disagree for near-product states with eps around 1e-9..1e-7, and skewed
# products at n>=3 sometimes lose a halo (at n=4 the root residual bound can
# also overflow).  They are left out of the timed mix; the traced run analyses
# this fixed set of them once, untimed, and reports how many fail.
HARD_POOL = (
    ("position", 2, "near", 8),
    ("position", 3, "near", 8),
    ("position", 4, "near", 8),
    ("position", 2, "skew", 8),
    ("position", 3, "skew", 8),
    ("position", 4, "skew", 8),
)

# circuit_frames: circuits on n=3, alternating position and charge, each an
# initial basis state, a QFT (so frame 1 is a product state with three
# regular halos in the position representation) and random further gates.
# Position circuits are longer, so that about 70% of frames are position
# frames (~90-150 ms) and the median stays clear of the faster charge frames
# (~60-110 ms).  16 circuits make 104 frames, enough for ten beyond p90.
CIRCUIT_N = 3
CIRCUITS = 16
CIRCUIT_RANDOM_GATES = {"position": 7, "charge": 2}
ONE_QUBIT_GATES = ("X", "Y", "Z", "H", "S", "T", "SX")
TWO_QUBIT_GATES = ("CX", "CZ", "SWAP", "CP")
CIRCUIT_GATES = ONE_QUBIT_GATES + TWO_QUBIT_GATES + ("QFT",)

# gram_inner: (kind, representation, n, items per pool).  Gram contexts for
# charge n>=3 and position n=4 raise ConditioningError today and are left
# out; charge n=3 and n=4 are covered by the circle product.  The weights put
# the median in the middle of the position n=1 ops (~0.4 ms; as many ops are
# faster as slower), clear of the gaps between configurations, and p90 inside
# the position n=3 ops (~2 ms).
GRAM_POOL = (
    ("gram", "position", 1, 200),
    ("gram", "position", 2, 25),
    ("gram", "position", 3, 80),
    ("gram", "charge", 1, 25),
    ("gram", "charge", 2, 25),
    ("circle", "charge", 2, 25),
    ("circle", "charge", 3, 25),
    ("circle", "charge", 4, 25),
)
INNER_ATOL = 1e-7

_S2 = 1.0 / np.sqrt(2.0)
GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2.0,
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


# ---------------------------------------------------------------- states


def _normalized(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generic_state(rng: np.random.Generator, n: int) -> np.ndarray:
    dim = 2**n
    return _normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def product_state(rng: np.random.Generator, n: int, log10_ratios=None) -> np.ndarray:
    """Random product state; with ``log10_ratios``, qubit j has |beta/alpha| = 10**r_j."""
    amps = np.array([1.0 + 0.0j])
    for j in range(n):
        if log10_ratios is None:
            qubit = generic_state(rng, 1)
        else:
            phase = np.exp(2j * np.pi * rng.random())
            qubit = _normalized(np.array([1.0, 10.0 ** log10_ratios[j] * phase]))
        amps = np.kron(amps, qubit)
    return amps


def stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(lo + (hi - lo) * u)


def family_states(rng: np.random.Generator, family: str, n: int, count: int) -> list[np.ndarray]:
    """``count`` states of one family; near and skew draws are stratified."""
    if family == "product":
        return [product_state(rng, n) for _ in range(count)]
    if family == "generic":
        return [generic_state(rng, n) for _ in range(count)]
    if family == "near":
        eps = 10.0 ** stratified(rng, *NEAR_LOG10_EPS, count)
        return [_normalized(product_state(rng, n) + e * generic_state(rng, n)) for e in eps]
    if family == "skew":
        # a Latin hypercube over the per-qubit ratios
        ratios = np.column_stack([stratified(rng, *SKEW_LOG10_RATIO, count) for _ in range(n)])
        return [product_state(rng, n, r) for r in ratios]
    raise ValueError(f"unknown state family {family!r}")


def is_product(amps: np.ndarray, n: int) -> bool:
    """Reference verdict: every single-qubit cut has Schmidt ratio <= SEPARABLE_RTOL."""
    tensor = amps.reshape((2,) * n)
    for axis in range(n):
        s = np.linalg.svd(np.moveaxis(tensor, axis, 0).reshape(2, -1), compute_uv=False)
        if s[1] > SEPARABLE_RTOL * s[0]:
            return False
    return True


# ---------------------------------------------------------------- fields


def _bits(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - j)) & 1 for j in range(n)]


def charge_exponent(index: int, n: int, d: int) -> int:
    return sum((2 * b - 1) * d**j for j, b in enumerate(_bits(index, n)))


def position_field(amps: np.ndarray, n: int) -> dict:
    """Field document of the position map: numerator sum_s amp_s prod_{j: s_j=1} (z-a_j)**(2d)."""
    defects, d = POSITION_DEFECTS[n], POSITION_D[n]
    numer = np.zeros(2 * d * n + 1, dtype=complex)
    for index, amp in enumerate(amps):
        coeffs = np.array([1.0 + 0.0j])
        for j, b in enumerate(_bits(index, n)):
            if b:
                for _ in range(2 * d):
                    coeffs = np.convolve(coeffs, [-defects[j], 1.0])
        numer[: coeffs.size] += amp * coeffs
    return {
        "type": "rational",
        "numerator": [[c.real, c.imag] for c in numer],
        "defects": [[a.real, a.imag] for a in defects],
        "d": d,
    }


def charge_field(amps: np.ndarray, n: int) -> dict:
    """Field document of the charge map: sum_s amp_s z**c(s)."""
    terms = sorted(
        (charge_exponent(i, n, CHARGE_D), complex(a)) for i, a in enumerate(amps) if a != 0
    )
    return {"type": "laurent", "terms": [[c, [a.real, a.imag]] for c, a in terms]}


# ---------------------------------------------------------------- circuits


def embed_gate(matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2**n unitary of a gate on 1-based ``targets``; the first target is its high bit."""
    k = len(targets)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = _bits(col, n)
        sub_in = sum(bits[t - 1] << (k - 1 - i) for i, t in enumerate(targets))
        for sub_out in range(2**k):
            out = list(bits)
            for i, t in enumerate(targets):
                out[t - 1] = (sub_out >> (k - 1 - i)) & 1
            row = int("".join(map(str, out)), 2)
            full[row, col] += matrix[sub_out, sub_in]
    return full


def qft_matrix(n: int) -> np.ndarray:
    size = 2**n
    k = np.arange(size)
    return np.exp(2j * np.pi * np.outer(k, k) / size) / np.sqrt(size)


def op_matrix(op: dict, n: int) -> np.ndarray:
    if op["gate"] == "QFT":
        return qft_matrix(n)
    if op["gate"] == "CP":
        gate = np.diag([1, 1, 1, np.exp(1j * op["theta"])])
    else:
        gate = GATE_MATRICES[op["gate"]]
    return embed_gate(gate, op["targets"], n)


def random_op(rng: np.random.Generator, n: int) -> dict:
    name = CIRCUIT_GATES[rng.integers(len(CIRCUIT_GATES))]
    if name == "QFT":
        return {"gate": "QFT"}
    arity = 1 if name in ONE_QUBIT_GATES else 2
    op = {"gate": name, "targets": [int(t) + 1 for t in rng.permutation(n)[:arity]]}
    if name == "CP":
        op["theta"] = float(2.0 * np.pi * rng.random())
    return op


# ---------------------------------------------------------------- pools


def _analyze_item(rep: str, n: int, family: str, amps: np.ndarray) -> dict:
    item = {"label": f"{rep} n={n} {family}"}
    if rep == "position":
        item["field"] = position_field(amps, n)
        item["separable"] = is_product(amps, n)
    else:
        item["field"] = charge_field(amps, n)
        exps = [c for c, _ in item["field"]["terms"]]
        item["zeros"] = max(exps) - min(min(exps), 0)
        item["poles"] = max(0, -min(exps))
    return item


def _mixed(rng: np.random.Generator, spec, make) -> list[dict]:
    """The items of ``spec`` rows, whose last entry is a count, in shuffled order."""
    items = [item for row in spec for item in make(row[:-1], row[-1])]
    return [items[i] for i in rng.permutation(len(items))]


def _analyze_pool(seed: int, stream: int, spec) -> list[dict]:
    rng = np.random.default_rng([seed, stream])

    def make(key, count):
        rep, n, family = key
        return [_analyze_item(rep, n, family, a) for a in family_states(rng, family, n, count)]

    return _mixed(rng, spec, make)


def analyze_pool(seed: int) -> list[dict]:
    return _analyze_pool(seed, 1, ANALYZE_POOL)


def hard_pool(seed: int) -> list[dict]:
    """The known-hard analyze items (``HARD_POOL``), checked once in the traced run."""
    return _analyze_pool(seed, 4, HARD_POOL)


def circuit_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    n = CIRCUIT_N
    pool = []
    for c in range(CIRCUITS):
        rep = "position" if c % 2 == 0 else "charge"
        init = "".join(str(b) for b in rng.integers(0, 2, size=n))
        ops = [{"gate": "QFT"}] + [random_op(rng, n) for _ in range(CIRCUIT_RANDOM_GATES[rep])]
        amps = np.zeros(2**n, dtype=complex)
        amps[int(init, 2)] = 1.0
        pool.append({"label": f"{rep} frame", "rep": rep, "n": n, "step": 0,
                     "init": init, "amps": amps, "qft_of_basis": False})
        for k, op in enumerate(ops, start=1):
            prev, amps = amps, op_matrix(op, n) @ amps
            pool.append({"label": f"{rep} frame", "rep": rep, "n": n, "step": k,
                         "op": op, "prev": prev, "amps": amps, "qft_of_basis": k == 1})
    return pool


def gram_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])

    def make(key, count):
        kind, rep, n = key
        items = []
        for _ in range(count):
            a, b = generic_state(rng, n), generic_state(rng, n)
            items.append({"label": f"{kind} {rep} n={n}", "kind": kind, "rep": rep, "n": n,
                          "a": a, "b": b, "expect": complex(np.vdot(a, b))})
        return items

    return _mixed(rng, GRAM_POOL, make)


POOLS = {"analyze_mix": analyze_pool, "circuit_frames": circuit_pool, "gram_inner": gram_pool}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded operation pool of one workload."""
    return POOLS[workload](seed)
