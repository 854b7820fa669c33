"""Tests of the benchmark itself.  Run with: python3 -m pytest -q perfbench"""

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import qubitflow  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _canonical(pool) -> str:
    def encode(obj):
        if isinstance(obj, np.ndarray):
            return [encode(complex(v)) for v in obj]
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        raise TypeError(type(obj))

    return json.dumps(pool, default=encode, sort_keys=True)


GENERATORS = {name: functools.partial(inputs.generate, name) for name in run.WORKLOAD_NAMES}
GENERATORS["hard"] = inputs.hard_pool


@pytest.mark.parametrize("name", GENERATORS)
def test_generator_is_deterministic_per_seed(name):
    generate = GENERATORS[name]
    first = _canonical(generate(5))
    assert _canonical(generate(5)) == first
    assert _canonical(generate(6)) != first


def test_generated_fields_and_verdicts_match_the_package():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        cfg = qubitflow.make_position_config(n)
        for family in ("product", "generic"):
            for amps in inputs.family_states(rng, family, n, 3):
                st = qubitflow.QubitState(n, amps)
                doc = inputs.position_field(amps, n)
                ours = qubitflow.field_from_dict(doc).numerator.coeffs
                theirs = qubitflow.position_map(st, cfg).numerator.coeffs
                assert np.allclose(ours, theirs, rtol=0, atol=1e-12)
                assert inputs.is_product(amps, n) == qubitflow.is_separable_tensor(st)
                charge = qubitflow.field_from_dict(inputs.charge_field(amps, n))
                assert charge == qubitflow.charge_map(st, inputs.CHARGE_D)


def test_reference_simulator_matches_named_circuit():
    # QFT then H on qubit 2 then CX(1 -> 3), by hand in the 8-dim space
    ops = [{"gate": "QFT"}, {"gate": "H", "targets": [2]}, {"gate": "CX", "targets": [1, 3]}]
    amps = np.zeros(8, dtype=complex)
    amps[5] = 1.0
    st = qubitflow.make_basis_state(3, "101")
    for op in ops:
        amps = inputs.op_matrix(op, 3) @ amps
    st = qubitflow.qft(st)
    st = qubitflow.apply_gate(st, qubitflow.GATES["H"], [2])
    st = qubitflow.apply_gate(st, qubitflow.GATES["CX"], [1, 3])
    assert np.allclose(st.amplitudes, amps, atol=1e-12)


def _namespaces() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qubitflow" or name.startswith("qubitflow.")
        for attr, value in vars(module).items()
    }


def test_tracing_restores_every_wrapped_function():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        assert qubitflow.defects.roots is not before[("qubitflow.polynomials", "roots")]
        assert qubitflow.defects.roots is qubitflow.polynomials.roots is qubitflow.roots
        assert qubitflow.inner_products.derivative_eval is qubitflow.polynomials.derivative_eval
        for name in TRACED:
            mod, fn = name.split(".")
            assert getattr(sys.modules[f"qubitflow.{mod}"], fn) is not before[(f"qubitflow.{mod}", fn)]
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_self_times_sum_within_traced_wall(workload, tmp_path):
    pool = inputs.generate(workload, 3)[:12]
    wl = workloads.WORKLOADS[workload](str(tmp_path))
    wl.setup()
    wl.prepare(pool)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        with tracer.op("setup"):
            wl.setup()
        result = run.measure(wl, pool, 0.0, tracer)
        wall_ms = (perf_counter() - t0) * 1e3
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert result.ops == len(pool)
    assert sum(row["self_ms"] for row in summary.values()) <= wall_ms
    assert all(own >= -1e-9 for own in tracer.self_times())
    assert sum(row["calls"] for row in summary.values()) > 0
    ops = {s.op for s in tracer.spans if s.name != "op"}
    assert ops <= set(range(len(pool))) | {"setup"}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
