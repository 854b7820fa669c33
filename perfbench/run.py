#!/usr/bin/env python3
"""qubitflow benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Workloads (their mixes are defined in ``inputs.py``):

- ``analyze_mix``: in-process ``qubitflow analyze`` on position fields
  (n=2,3,4; product and generic states) and charge fields (n=2,3): the
  separability path.
- ``circuit_frames``: frames of random 3-qubit circuits, alternating position
  and charge: gate step, map, 48x48 grid, defects and halos, SVG, CSV,
  24x48 sphere pullback, north-pole class and field JSON.
- ``gram_inner``: Gram inner products (position n=1,2,3; charge n=1,2) and
  circle products (charge n=2,3,4) of seeded state pairs.

One process drives qubitflow in a closed loop with one client: the next
operation starts when the previous one has returned.  The loop makes whole
passes over the seeded pool (at least 100 distinct operations) until the
operations have taken ``--seconds``; the clock runs only inside operations.
Each operation's time is the median of its repeats in the run.  CPU speed
on a shared machine drifts by tens of percent, for seconds and for minutes
(1.7x has been seen on a 2-vCPU cloud VM), so these times are scaled to a
reference speed: a fixed kernel of Python and small numpy calls that does
not use qubitflow (``calibration_s``) is timed between operations throughout
the run, and times are multiplied by ``CAL_REF_S`` over its median time.  A
slower qubitflow shows in full; a slower host mostly does not.
``latency_p50_ms`` and ``latency_p90_ms`` are percentiles of the scaled times
over the pool, and ``ops_per_s`` is the pool size over their sum.  The plain
wall-clock figures are printed as comments.
Each output is checked against its reference after every repeat, outside
the timed region.  ``setup_s`` is the median over ``SETUP_PROBES`` fresh
interpreters of the time from before ``import qubitflow`` to the first
operation; it is not scaled, because importing does not slow down with the
host the way the kernel does.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then one traced pass over the pool (after a traced set-up),
and reports per-layer metrics: calls, self time and errors of each traced
qubitflow function, plus the tracing overhead.  On ``analyze_mix`` it also
analyses the known-hard fields (``inputs.HARD_POOL``) once, untimed and
untraced, and reports how many of them fail as ``cli.main.hard_failed``.
Spans are written to ``perfbench/out``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import EXTRAS, TRACED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("analyze_mix", "circuit_frames", "gram_inner")
SETUP_PROBES = 7
MIN_POOL = 100  # so that p90 has at least ten operations beyond it
WARMUP_OPS = 30
CAL_REF_S = 0.005  # reference (median) time of the calibration kernel
CAL_EVERY_S = 0.25  # time inside operations between two calibrations
CAL_COEFFS = [complex(k, -0.5 * k) for k in range(24)]
CAL_POINTS = np.linspace(-1.0, 1.0, 64) + 0.5j

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {"cli.import_ms": "ms"}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.errors"] = "count"
        if name in EXTRAS:
            metric, unit = EXTRAS[name][:2]
            units[f"{name}.{metric}"] = unit
    units["cli.main.hard_failed"] = "count"
    units["inner_products.inner.max_abs_err"] = "abs"
    units["trace.wall_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of Horner steps, small numpy calls and formatting."""
    t0 = perf_counter()
    for k in range(60):
        z = complex(0.3, 0.4 + 1e-3 * k)
        v = 0j
        for c in CAL_COEFFS:
            v = v * z + c
        vals = np.polyval(CAL_COEFFS, CAL_POINTS * z)
        ",".join(f"{x:.6g}" for x in vals.real[:16])
    return perf_counter() - t0


@dataclass
class LoopResult:
    times: list  # per pool item, the seconds each of its repeats took
    passes: int = 0
    ops: int = 0
    busy_s: float = 0.0
    failures: Counter = field(default_factory=Counter)
    cal: list = field(default_factory=list)  # calibration times, one per CAL_EVERY_S inside operations

    @property
    def typical(self) -> list:
        """Per pool item, the median of its repeats."""
        return [statistics.median(t) for t in self.times]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure(wl, pool, seconds: float, tracer=None) -> LoopResult:
    """Closed loop of whole passes over ``pool`` until ``seconds`` have been spent inside operations."""
    from workloads import ERROR, MISMATCH, OK

    res = LoopResult(times=[[] for _ in pool])
    reported = set()
    while True:
        for i, item in enumerate(pool):
            if res.busy_s >= len(res.cal) * CAL_EVERY_S:
                res.cal.append(calibration_s())
            wl.before(item)
            span = tracer.op(i) if tracer is not None else nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    out = wl.op(item)
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                dt = perf_counter() - t0
                status, detail = ERROR, type(exc).__name__
                if (item["label"], detail) not in reported:
                    reported.add((item["label"], detail))
                    print(f"op {i} ({item['label']}) raised:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                dt = perf_counter() - t0
                try:
                    status = detail = wl.check(item, out)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    status, detail = MISMATCH, f"malformed output ({type(exc).__name__})"
            res.times[i].append(dt)
            res.ops += 1
            res.busy_s += dt
            if status != OK:
                res.failures[(item["label"], detail)] += 1
        res.passes += 1
        if res.busy_s >= seconds:
            return res


def hard_failures(workdir: str, seed: int) -> int:
    """Analyse the known-hard fields once, untimed; print and return how many fail."""
    import workloads

    pool = inputs.hard_pool(seed)
    wl = workloads.AnalyzeMix(workdir)
    wl.prepare(pool)
    res = measure(wl, pool, 0.0)
    for (label, detail), count in sorted(res.failures.items()):
        print(f"#   known-hard failed: {label}: {count} x {detail}")
    return res.failed


def probe_setup(name: str) -> dict:
    """One fresh-interpreter set-up of workload ``name``; waits for the child to exit."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    if SRC not in Path(data["module"]).resolve().parents:
        raise RuntimeError(f"set-up probe imported qubitflow from {data['module']}")
    return data


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    pool = inputs.generate(name, seed)
    if len(pool) < MIN_POOL:
        raise RuntimeError(f"pool of {len(pool)} operations; p90 needs {MIN_POOL}")
    probes = [probe_setup(name) for _ in range(SETUP_PROBES)]

    import qubitflow
    import workloads

    if SRC not in Path(qubitflow.__file__).resolve().parents:
        raise RuntimeError(f"imported qubitflow from {qubitflow.__file__}, not from {SRC}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[name](workdir)
        wl.setup()
        wl.prepare(pool)
        measure(wl, pool[:WARMUP_OPS], 0.0)
        loop = measure(wl, pool, seconds)
        traced = tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                t0 = perf_counter()
                with tracer.op("setup"):
                    wl.setup()
                traced = measure(wl, pool, 0.0, tracer)
                trace_wall = perf_counter() - t0
            finally:
                tracer.restore()
            hard_failed = 0
            if name == "analyze_mix":
                os.mkdir(os.path.join(workdir, "hard"))
                hard_failed = hard_failures(os.path.join(workdir, "hard"), seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cal_s = statistics.median(loop.cal)
    scale = CAL_REF_S / cal_s
    typical = np.array(loop.typical)
    scaled = typical * scale
    wall_ops_per_s = loop.ops / loop.busy_s
    print(f"# workload {name} seed {seed}: closed loop, 1 client, {loop.passes} passes over "
          f"a pool of {len(pool)}, {loop.ops} ops, {loop.busy_s:.2f} s inside ops")
    print(f"# env {json.dumps(env)}")
    print(f"# calibration: median {cal_s * 1e3!r} ms of {len(loop.cal)}; times are scaled by {scale!r}")
    print(f"# wall clock, unscaled: {wall_ops_per_s!r} ops/s over every repeat, "
          f"p50 {float(np.median(typical)) * 1e3!r} ms, p90 {float(np.percentile(typical, 90)) * 1e3!r} ms")
    print(f"failed_ratio {loop.failed / loop.ops!r} ratio ({loop.failed} of {loop.ops} ops failed)")
    for (label, detail), count in sorted(loop.failures.items()):
        print(f"#   failed: {label}: {count} x {detail}")
    labels = sorted({item["label"] for item in pool})
    by_label = {}
    for label in labels:
        times = scaled[[item["label"] == label for item in pool]]
        by_label[label] = [len(times)] + [float(np.percentile(times, q)) * 1e3 for q in (25, 50, 75)]
        count, q1, q2, q3 = by_label[label]
        print(f"#   {label}: {count} ops, median of {loop.passes}, scaled, p25/p50/p75 {q1:.3f}/{q2:.3f}/{q3:.3f} ms")
    p90 = float(np.percentile(scaled, 90))
    print(f"# latency: {len(scaled)} operations, {int(np.sum(scaled > p90))} beyond p90")

    values = {
        "ops_per_s": len(scaled) / float(scaled.sum()),
        "latency_p50_ms": float(np.median(scaled)) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record = {"workload": name, "seed": seed, "seconds": seconds, "env": env,
              "end_to_end": metrics, "setup_probes": probes, "passes": loop.passes,
              "calibration_s": cal_s, "scale": scale, "times_ms": [[t * 1e3 for t in ts] for ts in loop.times],
              "cal_ms": [t * 1e3 for t in loop.cal],
              "wall_ops_per_s": wall_ops_per_s, "by_label_ops_p25_p50_p75_ms": by_label,
              "failures": [[*k, v] for k, v in sorted(loop.failures.items())]}

    if trace:
        units = per_layer_units()
        layer = dict.fromkeys(units, 0.0)
        for fname, row in tracer.summary().items():
            for key, value in row.items():
                layer[f"{fname}.{key}"] = value
        layer["cli.import_ms"] = statistics.median(p["import_s"] for p in probes) * 1e3
        layer["cli.main.hard_failed"] = hard_failed
        layer["inner_products.inner.max_abs_err"] = getattr(wl, "max_inner_err", 0.0)
        layer["trace.wall_ms"] = trace_wall * 1e3
        traced_ops_per_s = traced.ops / traced.busy_s
        layer["trace.overhead_pct"] = (wall_ops_per_s - traced_ops_per_s) / wall_ops_per_s * 100.0
        print(f"# traced pass: {traced.ops} ops, {traced_ops_per_s!r} ops/s traced "
              f"vs {wall_ops_per_s!r} untraced (wall clock)")
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"# spans written to {spans_path.relative_to(HERE.parent)}")
        per_layer = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        _print_metrics(metrics)
        _print_metrics(per_layer)
        record["per_layer"] = per_layer
        metrics = per_layer
    else:
        _print_metrics(metrics)

    failed = loop.failed + (traced.failed if trace else 0)
    attempted = loop.ops + (traced.ops if trace else 0)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qubitflow" / "__init__.py").is_file():
        print(f"error: no qubitflow sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
