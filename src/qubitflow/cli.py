"""Command line front end.

Subcommands cover the whole pipeline: build states, map them to fields,
extract defects and halos, build Gram contexts, run circuits, render grids to
CSV or SVG, project onto the sphere, and print charge bounds.  Exit code 0 on
success, 2 on validation problems, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import defects as defects_mod
from . import fields as fields_mod
from . import inner_products, rendering, states
from .errors import QubitFlowError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(path: str | None, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _parse_complex_list(tokens) -> tuple[complex, ...]:
    return tuple(complex(t) for t in tokens)


def _config_from_args(args, n: int) -> fields_mod.RepresentationConfig:
    if args.rep == "charge":
        return fields_mod.make_charge_config(n, args.d)
    defects = _parse_complex_list(args.defects) if args.defects else None
    return fields_mod.make_position_config(n, args.d, defects)


def _config_from_field(field) -> fields_mod.RepresentationConfig:
    ds = {m for _, m in field.denominator_spec}
    if len(ds) != 1:
        raise ValueError("field does not have a uniform defect exponent")
    centers = tuple(a for a, _ in field.denominator_spec)
    return fields_mod.RepresentationConfig("position", len(centers), ds.pop(), centers)


def _grid_from_args(args) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The --bbox and --res of a grid, checked with --clip the way sample_grid checks them."""
    bbox = tuple(float(t) for t in args.bbox.split(","))
    if len(bbox) != 4:
        raise ValueError("--bbox needs xmin,xmax,ymin,ymax")
    res = tuple(int(t) for t in args.res.split(","))
    if len(res) != 2:
        raise ValueError("--res needs nx,ny")
    return rendering._grid_spec(bbox, res, args.clip)


def _svg_frame(field, grid) -> str:
    """SVG of a sampled field with its defects, and its halos for a position field."""
    dset = defects_mod.extract_defects(field)
    report = None
    if isinstance(field, fields_mod.RationalField):
        report = defects_mod.detect_halos(dset, _config_from_field(field))
    return rendering.render_svg(grid, dset, report)


def cmd_state(args) -> int:
    if args.basis is not None:
        n = args.n if args.n is not None else len(args.basis)
        st = states.make_basis_state(n, args.basis)
    elif args.name is not None:
        if args.n is None:
            raise ValueError("--name needs --n")
        st = states.make_named_state(args.name, args.n)
    elif args.amplitudes is not None:
        amps = _parse_complex_list(args.amplitudes.split())
        n = max(1, (len(amps) - 1).bit_length())
        st = states.QubitState(n, np.array(amps))
    else:
        raise ValueError("give one of --basis, --name, --amplitudes")
    _emit_json(args.out, st.to_dict())
    return 0


def cmd_map(args) -> int:
    st = states.QubitState.from_dict(json.loads(_read_text(args.infile)))
    with np.errstate(over="ignore", invalid="ignore"):  # Polynomial rejects an overflowing term
        field = fields_mod.map_state(st, _config_from_args(args, st.n))
    _emit_json(args.out, field.to_dict())
    return 0


def cmd_analyze(args) -> int:
    field = fields_mod.field_from_dict(json.loads(_read_text(args.infile)))
    dset = defects_mod.extract_defects(field)
    out = {"defects": dset.to_dict()}
    if isinstance(field, fields_mod.RationalField):
        cfg = _config_from_field(field)
        report = defects_mod.detect_halos(dset, cfg)
        separable, witness = defects_mod.field_separability(field, cfg, report)
        out["halos"] = report.to_dict()
        out["separable"] = separable
        out["witness"] = [[[a.real, a.imag], [b.real, b.imag]] for a, b in witness]
    _emit_json(args.out, out)
    return 0


def cmd_gram(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    cfg = _config_from_args(args, args.n)
    ctx = inner_products.build_gram(cfg)
    _emit_json(args.out, ctx.to_dict())
    return 0


def cmd_circuit(args) -> int:
    spec = json.loads(_read_text(args.infile))
    n = states.checked_int(spec["n"], "n")
    if args.render is not None:
        if args.rep is None:
            raise ValueError("--render needs --rep")
        bbox, res = _grid_from_args(args)  # before any gate runs or DIR exists
    st = states.make_basis_state(n, spec.get("init", "0" * n))
    history = [("init", (), st)]
    for op in spec["ops"]:
        name = op["gate"].upper()
        targets = tuple(states.checked_int(t, "target") for t in op.get("targets", ()))
        if name == "QFT":
            st = states.qft(st)
        elif name == "IQFT":
            st = states.qft(st, inverse=True)
        elif name == "CP":
            st = states.apply_gate(st, states.cphase(float(op["theta"])), targets)
        elif name in states.GATES:
            st = states.apply_gate(st, states.GATES[name], targets)
        else:
            raise ValueError(f"unknown gate {op['gate']!r}")
        history.append((name, targets, st))

    cfg = _config_from_args(args, n) if args.rep is not None else None
    if args.render is not None:
        os.makedirs(args.render, exist_ok=True)

    steps = []
    for k, (name, targets, step_state) in enumerate(history):
        entry = {"op": name, "targets": list(targets), "state": step_state.to_dict()}
        if cfg is not None:
            field = fields_mod.map_state(step_state, cfg)
            entry["field"] = field.to_dict()
            if args.render is not None:
                grid = rendering.sample_grid(field, bbox, res, args.clip)
                entry["svg"] = os.path.join(args.render, f"step_{k:02d}.svg")
                _write_text(entry["svg"], _svg_frame(field, grid))
        steps.append(entry)
    _emit_json(args.out, {"n": n, "steps": steps, "final": st.to_dict()})
    return 0


def cmd_render(args) -> int:
    field = fields_mod.field_from_dict(json.loads(_read_text(args.infile)))
    grid = rendering.sample_grid(field, *_grid_from_args(args), args.clip)
    if args.csv:
        _write_text(args.csv, rendering.grid_to_csv(grid))
    if args.svg:
        _write_text(args.svg, _svg_frame(field, grid))
    if not args.csv and not args.svg:
        _write_text(None, rendering.grid_to_csv(grid))
    return 0


def cmd_sphere(args) -> int:
    field = fields_mod.field_from_dict(json.loads(_read_text(args.infile)))
    res = tuple(int(t) for t in args.res.split(","))
    if len(res) != 2:
        raise ValueError("--res needs ntheta,nphi")
    samples = rendering.stereographic_project(field, res)
    report = rendering.north_pole_classify(field)
    out = {
        "north_pole": {
            "degree": report.degree,
            "category": report.category,
            "fitted_exponent": report.fitted_exponent,
        },
        "samples": [
            {
                "theta": s.theta,
                "phi": s.phi,
                "point": list(s.point),
                "tangent": list(s.tangent),
            }
            for s in samples
        ],
    }
    _emit_json(args.out, out)
    return 0


def cmd_bounds(args) -> int:
    # 14**(2**n) * n + 1 has floor(2**n log10(14) + log10(n)) + 1 digits, 2349 at n = 11 and 4696 at
    # 12; past 4300 CPython 3.11+ prints no int (3.10 prints any), so such an n is refused up front
    if args.n > 0 and 2.0 ** min(args.n, 64) * np.log10(14) + np.log10(args.n) >= 4300:
        raise ValueError(f"--n {args.n}: the sufficient bound would have more than 4300 digits")
    out = {
        "n": args.n,
        "sufficient": fields_mod.sufficient_charge_bound(args.n),
        "necessary": fields_mod.necessary_charge_bound(args.n),
    }
    _emit_json(args.out, out)
    return 0


def cmd_checkli(args) -> int:
    if args.infile is not None:
        data = json.loads(_read_text(args.infile))
        flds = [fields_mod.field_from_dict(d) for d in data["fields"]]
    else:
        if args.n is None:
            raise ValueError("give --in or --n")
        flds = fields_mod.basis_fields(_config_from_args(args, args.n))
    ok, rank = fields_mod.check_linear_independence(flds)
    _emit_json(args.out, {"independent": ok, "rank": rank, "count": len(flds)})
    return 0


def _add_rep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rep", choices=("charge", "position"), default="position")
    p.add_argument("--d", type=int, default=None, help="defect exponent")
    p.add_argument("--defects", nargs="*", default=None, help="centers as complex literals, e.g. -1 1j")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nine-subcommand parser, built once and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(prog="qubitflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="write a state vector as JSON")
    p.add_argument("--basis", help="bit string, e.g. 010")
    p.add_argument("--name", help="named state: ghz, w, bell00+, bell00-, bell01+, bell01-")
    p.add_argument("--amplitudes", help="whitespace-separated complex literals")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("map", help="map a state JSON to a field JSON")
    p.add_argument("--in", dest="infile", required=True)
    _add_rep_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("analyze", help="defects, halos, and separability of a field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gram", help="build a Gram context for a basis")
    p.add_argument("--n", type=int, required=True)
    _add_rep_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("circuit", help="run a gate list and emit per-step states")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rep", choices=("charge", "position"), default=None,
                   help="also map every step to a field")
    p.add_argument("--d", type=int, default=None, help="defect exponent")
    p.add_argument("--defects", nargs="*", default=None)
    p.add_argument("--render", default=None, metavar="DIR",
                   help="write one SVG frame per step into DIR")
    p.add_argument("--bbox", default="-2.5,2.5,-2.5,2.5")
    p.add_argument("--res", default="32,32")
    p.add_argument("--clip", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("render", help="sample a field on a grid; CSV and/or SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bbox", default="-2,2,-2,2")
    p.add_argument("--res", default="48,48")
    p.add_argument("--clip", type=float, default=10.0)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("sphere", help="pull the field back to the unit sphere")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--res", default="24,48")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("bounds", help="charge-exponent bounds for n qubits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("checkli", help="linear independence of a field family")
    p.add_argument("--in", dest="infile", default=None, help="JSON with a 'fields' list")
    p.add_argument("--n", type=int, default=None)
    _add_rep_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_checkli)

    # argparse takes -1j or -1-1j for an option: its negative-number pattern has no complex literals
    number = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(rf"^-{number}(j|[+-]{number}j)?$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QubitFlowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)  # str of a KeyError is its key's repr
        return 2
    except (ValueError, TypeError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
