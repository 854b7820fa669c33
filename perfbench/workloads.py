"""The benchmark's workloads: set-up, one timed operation, and its check.

``op`` is the call into qubitflow that the benchmark times.  ``check`` runs
afterwards, outside the timed region, and compares the output with the
reference that ``inputs`` computed for the item.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from qubitflow import cli, defects, fields, inner_products, rendering, states

import inputs

OK, MISMATCH, ERROR = "ok", "mismatch", "error"


class Workload:
    """``setup`` is timed as set-up; ``prepare`` writes inputs; ``before`` runs untimed before each op."""

    def __init__(self, workdir: str | None):
        self.workdir = workdir

    def prepare(self, pool: list[dict]) -> None:
        pass

    def before(self, item: dict) -> None:
        pass


class AnalyzeMix(Workload):
    """One op is one in-process ``qubitflow analyze`` on a pre-written field file."""

    name = "analyze_mix"

    def setup(self) -> None:
        """Nothing beyond importing qubitflow and its CLI: ``analyze`` reads its config from the field."""

    def prepare(self, pool: list[dict]) -> None:
        self.out = os.path.join(self.workdir, "analysis.json")
        for i, item in enumerate(pool):
            item["path"] = os.path.join(self.workdir, f"field_{i:04d}.json")
            with open(item["path"], "w", encoding="utf-8") as fh:
                json.dump(item["field"], fh)

    def before(self, item: dict) -> None:
        # a failed op must not be judged by the previous op's output
        if os.path.exists(self.out):
            os.remove(self.out)

    def op(self, item: dict):
        return cli.main(["analyze", "--in", item["path"], "--out", self.out])

    def check(self, item: dict, code) -> str:
        if code != 0:
            return ERROR
        with open(self.out, encoding="utf-8") as fh:
            out = json.load(fh)
        if "separable" in item:
            return OK if out.get("separable") == item["separable"] else MISMATCH
        zeros = sum(m for _, _, m in out["defects"]["zeros"])
        poles = sum(m for _, _, m in out["defects"]["poles"])
        return OK if (zeros, poles) == (item["zeros"], item["poles"]) else MISMATCH


@dataclass
class Frame:
    state: object
    grid: object
    halos: object
    svg: str
    csv: str
    sphere: list
    north: object
    field_json: str


class CircuitFrames(Workload):
    """One op is one rendered frame: gate step, map, grid, defects, SVG/CSV, sphere, JSON."""

    name = "circuit_frames"
    BBOX = (-2.5, 2.5, -2.5, 2.5)
    GRID = (48, 48)
    SPHERE = (24, 48)
    NORTH_CATEGORIES = ("vanishes", "bounded-discontinuous", "diverges")

    def setup(self) -> None:
        n = inputs.CIRCUIT_N
        self.configs = {
            "position": fields.make_position_config(n, inputs.POSITION_D[n]),
            "charge": fields.make_charge_config(n, inputs.CHARGE_D),
        }

    def op(self, item: dict) -> Frame:
        n = item["n"]
        if item["step"] == 0:
            st = states.make_basis_state(n, item["init"])
        else:
            st = states.QubitState(n, item["prev"])
            step = item["op"]
            if step["gate"] == "QFT":
                st = states.qft(st)
            elif step["gate"] == "CP":
                st = states.apply_gate(st, states.cphase(step["theta"]), step["targets"])
            else:
                st = states.apply_gate(st, states.GATES[step["gate"]], step["targets"])
        cfg = self.configs[item["rep"]]
        if cfg.kind == "position":
            field = fields.position_map(st, cfg)
        else:
            field = fields.charge_map(st, cfg.d)
        grid = rendering.sample_grid(field, self.BBOX, self.GRID)
        dset = defects.extract_defects(field)
        halos = defects.detect_halos(dset, cfg) if cfg.kind == "position" else None
        svg = rendering.render_svg(grid, dset, halos)
        csv = rendering.grid_to_csv(grid)
        sphere = rendering.stereographic_project(field, self.SPHERE)
        north = rendering.north_pole_classify(field)
        field_json = json.dumps(field.to_dict())
        return Frame(st, grid, halos, svg, csv, sphere, north, field_json)

    def check(self, item: dict, frame: Frame) -> str:
        good = (
            np.allclose(frame.state.amplitudes, item["amps"], rtol=0.0, atol=1e-10)
            and frame.grid.x.size == self.GRID[0] * self.GRID[1]
            and bool(np.all(np.isfinite(frame.grid.u)) and np.all(np.isfinite(frame.grid.v)))
            and frame.csv.startswith("x,y,u,v,clipped\n")
            and frame.csv.count("\n") == frame.grid.x.size + 1
            and len(frame.sphere) > 0
            and all(math.isfinite(t) for s in frame.sphere for t in s.tangent)
            and frame.north.category in self.NORTH_CATEGORIES
            and math.isfinite(frame.north.fitted_exponent)
            and json.loads(frame.field_json)["type"] == ("rational" if item["rep"] == "position" else "laurent")
        )
        try:
            good = good and ET.fromstring(frame.svg).tag.endswith("svg")
        except ET.ParseError:
            good = False
        if good and item["qft_of_basis"] and frame.halos is not None:
            good = sum(h.status == "regular" for h in frame.halos.halos) == item["n"]
        return OK if good else MISMATCH


class GramInner(Workload):
    """One op maps two states to fields and takes their Gram or circle inner product."""

    name = "gram_inner"

    def setup(self) -> None:
        self.max_inner_err = 0.0  # largest |inner - vdot| checked since set-up
        keys = {(rep, n) for _, rep, n, _ in inputs.GRAM_POOL}
        self.configs = {
            (rep, n): fields.make_position_config(n, inputs.POSITION_D[n])
            if rep == "position"
            else fields.make_charge_config(n, inputs.CHARGE_D)
            for rep, n in keys
        }
        self.contexts = {
            (rep, n): inner_products.build_gram(self.configs[(rep, n)])
            for kind, rep, n, _ in inputs.GRAM_POOL
            if kind == "gram"
        }

    def op(self, item: dict) -> complex:
        key = (item["rep"], item["n"])
        cfg = self.configs[key]
        a = states.QubitState(cfg.n, item["a"])
        b = states.QubitState(cfg.n, item["b"])
        if cfg.kind == "position":
            f1, f2 = fields.position_map(a, cfg), fields.position_map(b, cfg)
        else:
            f1, f2 = fields.charge_map(a, cfg.d), fields.charge_map(b, cfg.d)
        if item["kind"] == "gram":
            return inner_products.inner(f1, f2, self.contexts[key])
        return inner_products.circle_inner_product(f1, f2)

    def check(self, item: dict, value: complex) -> str:
        err = abs(value - item["expect"])
        if item["kind"] == "gram":
            self.max_inner_err = max(self.max_inner_err, err)
        return OK if err <= inputs.INNER_ATOL else MISMATCH


WORKLOADS = {w.name: w for w in (AnalyzeMix, CircuitFrames, GramInner)}
