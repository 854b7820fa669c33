"""End-to-end checks of the command line interface and its exit codes."""

import json

import numpy as np
import pytest

from qubitflow import GATES, QubitState, defects, make_basis_state, qft, roots
from qubitflow.cli import build_parser, main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_state_map_analyze_pipeline(tmp_path):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    report_path = tmp_path / "report.json"
    assert main(["state", "--basis", "00", "--out", str(state_path)]) == 0
    # Superpose qubit 1 by hand to get a separable non-basis state.
    data = json.loads(state_path.read_text())
    data["amplitudes"] = [[0.7071, 0.0], [0.0, 0.0], [0.7071, 0.0], [0.0, 0.0]]
    state_path.write_text(json.dumps(data))
    assert main(["map", "--in", str(state_path), "--rep", "position", "--out", str(field_path)]) == 0
    field = json.loads(field_path.read_text())
    assert field["type"] == "rational"
    assert field["d"] == 1
    assert main(["analyze", "--in", str(field_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["separable"] is True
    statuses = {h["status"] for h in report["halos"]["halos"]}
    assert "regular" in statuses
    assert report["defects"]["infinity_charge"] == 0


def test_state_named_and_amplitudes(tmp_path):
    out = tmp_path / "ghz.json"
    assert main(["state", "--name", "ghz", "--n", "3", "--out", str(out)]) == 0
    st = QubitState.from_dict(json.loads(out.read_text()))
    assert abs(st.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12
    out2 = tmp_path / "amp.json"
    assert main(["state", "--amplitudes", "1 0 0 1j", "--out", str(out2)]) == 0
    st2 = QubitState.from_dict(json.loads(out2.read_text()))
    assert st2.n == 2 and st2.amplitudes[3] == 1j
    assert main(["state"]) == 2  # no selector given


def test_map_charge(tmp_path):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    assert main(["state", "--basis", "01", "--out", str(state_path)]) == 0
    assert main(
        ["map", "--in", str(state_path), "--rep", "charge", "--d", "3", "--out", str(field_path)]
    ) == 0
    field = json.loads(field_path.read_text())
    assert field["type"] == "laurent"
    assert field["terms"] == [[2, [1.0, 0.0]]]


def test_analyze_entangled(tmp_path):
    state_path = tmp_path / "bell.json"
    field_path = tmp_path / "bell_field.json"
    out = tmp_path / "bell_report.json"
    assert main(["state", "--name", "bell00+", "--n", "2", "--out", str(state_path)]) == 0
    assert main(["map", "--in", str(state_path), "--out", str(field_path)]) == 0
    assert main(["analyze", "--in", str(field_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["separable"] is False
    assert report["halos"]["leftover"]


def test_gram_subcommand(tmp_path, capsys):
    out = tmp_path / "gram.json"
    assert main(["gram", "--n", "2", "--rep", "position", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["condition_estimate"] < 1e8
    # The degenerate three-qubit d=1 family fails conditioning: exit code 3, naming the rank.
    capsys.readouterr()
    assert main(["gram", "--n", "3", "--rep", "position", "--d", "1"]) == 3
    assert capsys.readouterr().err.endswith("; the basis fields are dependent (rank 6 of 8)\n")
    # No probe point conditions three-qubit charge; amplitude recovery answers.
    assert main(["gram", "--n", "3", "--rep", "charge", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["alpha"] is None and data["condition_estimate"] == pytest.approx(1.0)
    assert len(data["weight"]) == 8


def test_gram_where_every_probe_overflows_answers_by_recovery(capfd):
    # each probe's pole factor z**-781 overflows; no LAPACK text or warning may leak out
    assert main(["gram", "--n", "5", "--rep", "charge", "--d", "5"]) == 0
    out, err = capfd.readouterr()
    data = json.loads(out)
    assert data["alpha"] is None and data["condition_estimate"] == pytest.approx(1.0)
    assert err == ""


@pytest.mark.parametrize("command", ["checkli", "gram"])
def test_defects_take_complex_literals_that_start_with_a_dash(capsys, command):
    assert main([command, "--n", "4"]) == 0
    default = capsys.readouterr().out
    assert main([command, "--n", "4", "--defects", "-1", "1j", "1", "-1j"]) == 0
    assert capsys.readouterr().out == default
    assert main([command, "--n", "2", "--defects", "-1-1j", "-.5e1+2j"]) == 0
    written = capsys.readouterr().out
    assert main([command, "--n", "2", "--defects", "(-1-1j)", "(-5+2j)"]) == 0
    assert capsys.readouterr().out == written


def test_circuit_steps_and_fields(tmp_path):
    circuit = tmp_path / "bell.json"
    out = tmp_path / "steps.json"
    circuit.write_text(
        json.dumps(
            {
                "n": 2,
                "ops": [
                    {"gate": "H", "targets": [1]},
                    {"gate": "CX", "targets": [1, 2]},
                ],
            }
        )
    )
    assert main(["circuit", "--in", str(circuit), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [s["op"] for s in data["steps"]] == ["init", "H", "CX"]
    final = QubitState.from_dict(data["final"])
    assert np.allclose(final.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert "field" not in data["steps"][0]

    frames = tmp_path / "frames"
    assert main(
        [
            "circuit", "--in", str(circuit), "--rep", "position",
            "--render", str(frames), "--res", "8,8", "--out", str(out),
        ]
    ) == 0
    data = json.loads(out.read_text())
    assert all("field" in s for s in data["steps"])
    svgs = sorted(p.name for p in frames.iterdir())
    assert svgs == ["step_00.svg", "step_01.svg", "step_02.svg"]


def test_circuit_qft_frames(tmp_path):
    circuit = tmp_path / "qft.json"
    out = tmp_path / "steps.json"
    circuit.write_text(json.dumps({"n": 3, "init": "010", "ops": [{"gate": "QFT"}]}))
    assert main(["circuit", "--in", str(circuit), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    final = QubitState.from_dict(data["final"])
    want = qft(make_basis_state(3, "010"))
    assert np.allclose(final.amplitudes, want.amplitudes, atol=1e-12)


def test_circuit_unknown_gate(tmp_path):
    circuit = tmp_path / "bad.json"
    circuit.write_text(json.dumps({"n": 1, "ops": [{"gate": "WARP", "targets": [1]}]}))
    assert main(["circuit", "--in", str(circuit)]) == 2


@pytest.mark.parametrize("spec", [{"n": 2.0, "ops": []}, {"n": 2, "ops": [{"gate": "X", "targets": [True]}]}])
def test_circuit_rejects_a_count_or_target_that_is_not_an_integer(tmp_path, capsys, spec):
    circuit = tmp_path / "bad.json"
    circuit.write_text(json.dumps(spec))
    assert main(["circuit", "--in", str(circuit)]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["state", "circuit"])
def test_a_register_of_no_qubits_exits_2_with_one_line(tmp_path, capsys, command):
    circuit = tmp_path / "empty.json"
    circuit.write_text(json.dumps({"n": 0, "ops": []}))
    argv = {"state": ["state", "--basis", ""], "circuit": ["circuit", "--in", str(circuit)]}[command]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: need at least one qubit\n"


@pytest.mark.parametrize("command, document, key", [
    ("circuit", {"n": 2, "ops": [{"gate": "CP", "targets": [1, 2]}]}, "theta"),
    ("circuit", {"ops": []}, "n"),
    ("analyze", {"type": "rational", "defects": [[0, 0]], "d": 1}, "numerator"),
    ("map", {"n": 1}, "amplitudes"),
], ids=["circuit-theta", "circuit-n", "analyze-numerator", "map-amplitudes"])
def test_a_missing_json_key_names_itself(tmp_path, capsys, command, document, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert main([command, "--in", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: missing key '{key}'\n"


def test_render_csv_svg(tmp_path):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "grid.svg"
    assert main(["state", "--basis", "00", "--out", str(state_path)]) == 0
    assert main(["map", "--in", str(state_path), "--out", str(field_path)]) == 0
    assert main(
        [
            "render", "--in", str(field_path), "--bbox=-2,2,-2,2",
            "--res", "6,6", "--csv", str(csv_path), "--svg", str(svg_path),
        ]
    ) == 0
    assert csv_path.read_text().splitlines()[0] == "x,y,u,v,clipped"
    assert svg_path.read_text().startswith("<svg")
    assert main(["render", "--in", str(field_path), "--bbox", "1,1,0,2"]) == 2


def test_sphere_subcommand(tmp_path):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    out = tmp_path / "sphere.json"
    assert main(["state", "--basis", "00", "--out", str(state_path)]) == 0
    assert main(["map", "--in", str(state_path), "--rep", "charge", "--out", str(field_path)]) == 0
    assert main(["sphere", "--in", str(field_path), "--res", "6,8", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["north_pole"]["degree"] == -4
    assert data["north_pole"]["category"] == "vanishes"
    for s in data["samples"]:
        p, t = np.array(s["point"]), np.array(s["tangent"])
        assert abs(np.dot(p, t)) < 1e-9


def test_bounds_subcommand(capsys):
    assert main(["bounds", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["necessary"] == 2
    assert data["sufficient"] == 14**8 * 3 + 1


def test_bounds_refuses_a_bound_past_4300_digits_on_every_python(capsys):
    # the n = 11 bound has 2349 digits and prints; n = 12 has 4696, which only Python 3.10 prints
    assert main(["bounds", "--n", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["sufficient"] == 14**2048 * 11 + 1
    for n in ("12", "1000000"):  # refused before 14**(2**n) is computed
        assert main(["bounds", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: --n {n}: ") and "4300 digits" in err
        assert err.count("\n") == 1


def test_checkli_subcommand(tmp_path, capsys):
    assert main(["checkli", "--n", "2", "--rep", "charge", "--d", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"independent": True, "rank": 4, "count": 4}
    assert main(["checkli", "--n", "2", "--rep", "charge", "--d", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["independent"] is False and data["rank"] == 3
    fields_path = tmp_path / "fields.json"
    fields_path.write_text(
        json.dumps(
            {
                "fields": [
                    {"type": "laurent", "terms": [[1, [1.0, 0.0]]]},
                    {"type": "laurent", "terms": [[1, [2.0, 0.0]]]},
                ]
            }
        )
    )
    assert main(["checkli", "--in", str(fields_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["independent"] is False and data["rank"] == 1


def test_validation_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["map", "--in", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["analyze", "--in", str(garbled)]) == 2


def test_analyze_large_root_and_root_failure(tmp_path, monkeypatch, capsys):
    # numerator (z - 1e13)(z^23 - 0.5^23): its residual bound exceeds the float range
    terms = [[0, [1e13 * 0.5**23, 0.0]], [1, [-(0.5**23), 0.0]], [23, [-1e13, 0.0]], [24, [1.0, 0.0]]]
    field = tmp_path / "wide.json"
    field.write_text(json.dumps({"type": "laurent", "terms": terms}))
    out = tmp_path / "wide_report.json"
    assert main(["analyze", "--in", str(field), "--out", str(out)]) == 0
    zeros = json.loads(out.read_text())["defects"]["zeros"]
    assert sum(m for _, _, m in zeros) == 24
    assert max(abs(complex(re, im)) for re, im, _ in zeros) == pytest.approx(1e13, rel=1e-9)
    # a root finder stopped at its sweep cap is a numerical failure, not a crash
    monkeypatch.setattr(defects, "roots", lambda p: roots(p, max_iter=1))
    assert main(["analyze", "--in", str(field), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err


NON_FINITE_FIELDS = {
    "laurent-nan": ('{"type": "laurent", "terms": [[1, [NaN, 0]]]}', "non-finite"),
    "numerator-nan": (
        '{"type": "rational", "numerator": [[NaN, 0], [1, 0]], "defects": [[0, 0]], "d": 1}',
        "non-finite",
    ),
    "string-nan": ('{"type": "laurent", "terms": [[1, ["nan", 0]]]}', "'nan'"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_FIELDS))
def test_analyze_rejects_non_finite_fields(tmp_path, capsys, name):
    text, message = NON_FINITE_FIELDS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    assert main(["analyze", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_map_rejects_non_finite_amplitudes(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"n": 2, "amplitudes": [[1, 0], [NaN, 0], [0, 0], [0, 0]]}')
    assert main(["map", "--in", str(path), "--rep", "position"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


def test_sphere_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the north-pole fit works in logs: the uniform charge n=5 field (degree 121) classifies
    for n, degree in ((4, 40), (5, 121)):
        state_path = tmp_path / f"uniform{n}.json"
        field_path = tmp_path / f"charge{n}.json"
        state_path.write_text(json.dumps(QubitState(n, np.full(2**n, 2 ** (-n / 2))).to_dict()))
        assert main(["map", "--in", str(state_path), "--rep", "charge", "--d", "3", "--out", str(field_path)]) == 0
        out = tmp_path / f"sphere{n}.json"
        assert main(["sphere", "--in", str(field_path), "--res", "4,8", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["north_pole"]["degree"] == degree
    # z**300 overflows on the default sample grid itself (|w| = cot(pi/48), about 15.3)
    monomial = tmp_path / "z300.json"
    monomial.write_text(json.dumps({"type": "laurent", "terms": [[300, [1.0, 0.0]]]}))
    assert main(["sphere", "--in", str(monomial), "--out", str(tmp_path / "z300_sphere.json")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_render_charge_ghz5_on_a_wide_box(tmp_path):
    # the origin-shifted numerator overflows at the corners of the box, the field does not
    state, field, csv = tmp_path / "ghz5.json", tmp_path / "ghz5_charge.json", tmp_path / "ghz5.csv"
    assert main(["state", "--name", "ghz", "--n", "5", "--out", str(state)]) == 0
    assert main(["map", "--in", str(state), "--rep", "charge", "--out", str(field)]) == 0
    argv = ["render", "--in", str(field), "--bbox=-20,20,-20,20", "--res", "8,8", "--csv", str(csv)]
    assert main(argv) == 0
    rows = [row.split(",") for row in csv.read_text().splitlines()[1:]]
    assert len(rows) == 64 and all(np.isfinite(float(t)) for row in rows for t in row)


def test_parser_is_built_once_without_leaking_defaults(tmp_path, capsys):
    assert build_parser() is build_parser()
    charge, default = tmp_path / "charge.json", tmp_path / "default.json"
    assert main(["gram", "--n", "2", "--rep", "charge", "--out", str(charge)]) == 0
    assert main(["gram", "--n", "2", "--out", str(default)]) == 0
    # position n=2 probes at 0.7i, charge n=2 at 1.7
    assert json.loads(default.read_text())["alpha"] == pytest.approx([0.0, 0.7], abs=1e-12)
    assert json.loads(charge.read_text())["alpha"] == pytest.approx([1.7, 0.0], abs=1e-12)
    assert main(["checkli", "--n", "2", "--rep", "charge", "--d", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 3
    assert main(["checkli", "--n", "2", "--rep", "charge"]) == 0
    assert json.loads(capsys.readouterr().out) == {"independent": True, "rank": 4, "count": 4}


@pytest.mark.parametrize("flag, value, message", [
    ("--res", "32", "--res needs nx,ny"),
    ("--bbox", "-1,1,-1", "--bbox needs xmin,xmax,ymin,ymax"),
])
@pytest.mark.parametrize("command", ["render", "circuit"])
def test_grid_arguments_are_validated(tmp_path, capsys, command, flag, value, message):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    circuit = tmp_path / "qft.json"
    assert main(["state", "--basis", "01", "--out", str(state_path)]) == 0
    assert main(["map", "--in", str(state_path), "--out", str(field_path)]) == 0
    circuit.write_text(json.dumps({"n": 2, "ops": [{"gate": "QFT"}]}))
    capsys.readouterr()
    if command == "render":
        argv = ["render", "--in", str(field_path), "--svg", str(tmp_path / "f.svg")]
    else:
        argv = ["circuit", "--in", str(circuit), "--rep", "position", "--render", str(tmp_path / "frames")]
    assert main(argv + [f"{flag}={value}"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("rep", ["position", "charge"])
def test_circuit_frame_equals_render_svg(tmp_path, rep):
    circuit = tmp_path / "qft.json"
    circuit.write_text(json.dumps({"n": 3, "init": "010", "ops": [{"gate": "QFT"}, {"gate": "H", "targets": [2]}]}))
    grid = ["--bbox=-2,2,-1.5,2.5", "--res", "12,9", "--clip", "4"]
    out = tmp_path / "steps.json"
    assert main(["circuit", "--in", str(circuit), "--rep", rep, "--render", str(tmp_path / "frames"),
                 "--out", str(out), *grid]) == 0
    steps = json.loads(out.read_text())["steps"]
    for k, step in enumerate(steps):
        field_path = tmp_path / f"field_{k}.json"
        field_path.write_text(json.dumps(step["field"]))
        svg = tmp_path / f"render_{k}.svg"
        assert main(["render", "--in", str(field_path), "--svg", str(svg), *grid]) == 0
        assert svg.read_bytes() == (tmp_path / "frames" / f"step_{k:02d}.svg").read_bytes()


@pytest.mark.parametrize("flag, message", [
    ("--clip=nan", "error: clip length must be positive, got nan"),
    ("--bbox=-inf,inf,-2,2", "error: bounding box must be finite, got (-inf, inf, -2.0, 2.0)"),
])
@pytest.mark.parametrize("command", ["render", "circuit"])
def test_non_finite_grid_arguments_are_rejected(tmp_path, capsys, command, flag, message):
    state_path = tmp_path / "state.json"
    field_path = tmp_path / "field.json"
    circuit = tmp_path / "qft.json"
    assert main(["state", "--basis", "01", "--out", str(state_path)]) == 0
    assert main(["map", "--in", str(state_path), "--out", str(field_path)]) == 0
    circuit.write_text(json.dumps({"n": 2, "ops": [{"gate": "QFT"}]}))
    capsys.readouterr()
    if command == "render":
        argv = ["render", "--in", str(field_path), "--csv", str(tmp_path / "f.csv")]
    else:
        argv = ["circuit", "--in", str(circuit), "--rep", "position", "--render", str(tmp_path / "frames")]
    assert main(argv + [flag]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--clip=nan", "error: clip length must be positive, got nan"),
    ("--bbox=-inf,1,-1,1", "error: bounding box must be finite, got (-inf, 1.0, -1.0, 1.0)"),
])
def test_circuit_render_checks_the_grid_before_any_gate_or_directory(tmp_path, capsys, flag, message):
    circuit = tmp_path / "qft.json"
    # the unknown gate would fail first if the gates ran before the grid check
    circuit.write_text(json.dumps({"n": 2, "ops": [{"gate": "QFT"}, {"gate": "NOPE"}]}))
    frames = tmp_path / "frames"
    assert main(["circuit", "--in", str(circuit), "--rep", "position", "--render", str(frames), flag]) == 2
    assert message in capsys.readouterr().err
    assert not frames.exists()


@pytest.mark.parametrize("theta", [float("nan"), float("inf")])
def test_circuit_rejects_non_finite_gate_angle(tmp_path, capsys, theta):
    circuit = tmp_path / "cp.json"
    # json.dumps writes NaN/Infinity, which json.loads accepts
    circuit.write_text(json.dumps({"n": 2, "ops": [{"gate": "CP", "targets": [1, 2], "theta": theta}]}))
    assert main(["circuit", "--in", str(circuit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: gate 'CP({theta:g})' has a non-finite entry")


def test_analyze_equal_modulus_charge_field(tmp_path):
    # init 101, QFT, Z then H on qubit 1 in the charge representation with d = 3:
    # 24 simple zeros on the unit circle, which the root finder once failed to separate
    ops = [{"gate": "QFT"}, {"gate": "Z", "targets": [1]}, {"gate": "H", "targets": [1]}]
    spec = {"n": 3, "init": "101", "ops": ops}
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(spec))
    steps = tmp_path / "steps.json"
    assert main(["circuit", "--in", str(circuit), "--rep", "charge", "--d", "3", "--out", str(steps)]) == 0
    field = tmp_path / "field.json"
    field.write_text(json.dumps(json.loads(steps.read_text())["steps"][-1]["field"]))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--in", str(field), "--out", str(out)]) == 0
    zeros = json.loads(out.read_text())["defects"]["zeros"]
    assert len(zeros) == 24 and all(m == 1 for _, _, m in zeros)
    assert all(abs(abs(complex(re, im)) - 1.0) <= 1e-12 for re, im, _ in zeros)


def _scaled(rng, size, low, high):
    """``size`` complex normal values, all times one 10**U(low, high)."""
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(low, high)


def _far(rng, size):
    """``size`` complex normal values, each times its own 10**U(0, 300)."""
    return [complex(_scaled(rng, 1, 0, 300)[0]) for _ in range(size)]


def _pairs(values):
    return [[v.real, v.imag] for v in np.asarray(values, dtype=complex).tolist()]


def _gate(rng, n):
    """A random circuit op; a two-qubit gate on one qubit gets one target, which is an input error."""
    name = str(rng.choice(["QFT", "IQFT", "CP", *GATES]))
    op = {"gate": name, "targets": (rng.permutation(n)[: 2 if name in ("CP", "CX", "CZ", "SWAP") else 1] + 1).tolist()}
    if name == "CP":
        op["theta"] = _scaled(rng, 1, -300, 300)[0].real
    return op


def _extreme_inputs(rng, tmp_path):
    """One seeded draw of each input family.

    Returns field documents (rational: coefficients times 10**U(-300, 300), each centre times its
    own 10**U(0, 300); Laurent: exponents up to +-400), the argument list of a ``map`` of scaled
    amplitudes, and those of ``gram --defects`` with far centres and of ``circuit --render``.
    """
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    rational = {"type": "rational", "numerator": _pairs(_scaled(rng, int(rng.integers(1, 9)), -300, 300)),
                "defects": _pairs(_far(rng, int(rng.integers(1, 4)))), "d": d}
    exps = rng.choice(np.arange(-400, 401), size=int(rng.integers(1, 7)), replace=False).tolist()
    laurent = {"type": "laurent", "terms": [list(t) for t in zip(exps, _pairs(_scaled(rng, len(exps), -300, 300)))]}
    state, spec = tmp_path / "state.json", tmp_path / "circuit.json"
    state.write_text(json.dumps({"n": n, "amplitudes": _pairs(_scaled(rng, 2**n, -300, 300))}))
    ops = [_gate(rng, n) for _ in range(int(rng.integers(1, 4)))]
    spec.write_text(json.dumps({"n": n, "init": "".join(rng.choice(["0", "1"], size=n)), "ops": ops}))
    rep = ["--rep", "charge", "--d", d]
    if rng.uniform() >= 0.5:
        rep = ["--rep", "position", "--d", d, "--defects", *_far(rng, n)]
    return (
        [rational, laurent],
        ["map", "--in", state, *rep],
        [["gram", "--n", n, "--d", d, "--defects", *_far(rng, n)],
         ["circuit", "--in", spec, *rep, "--render", tmp_path / "frames", "--res", "6,6", "--out", tmp_path / "c.json"]],
    )


FIELD_COMMANDS = (["analyze"], ["render", "--res", "6,6", "--svg", "-"], ["sphere", "--res", "4,4"])


def _contract_run(capsys, argv) -> int:
    """Run the CLI; the exit code must be 0, 2 or 3, with stderr empty on 0 and one message line otherwise."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.count("\n") == 1 and err.startswith(("error:", "numerical failure:")), (argv, err)
    return code


def run_extreme_inputs(capsys, tmp_path, rng, draws) -> list[int]:
    """The exit codes of ``draws`` draws of ``_extreme_inputs`` through the CLI; more seeds and
    draws make a longer run of the test below."""
    field, codes = tmp_path / "field.json", []

    def field_runs():
        return [_contract_run(capsys, [cmd, "--in", field, *rest]) for cmd, *rest in FIELD_COMMANDS]

    for _ in range(draws):
        docs, mapping, others = _extreme_inputs(rng, tmp_path)
        for doc in docs:
            field.write_text(json.dumps(doc))
            codes += field_runs()
        codes.append(_contract_run(capsys, [*mapping, "--out", field]))
        if codes[-1] == 0:
            codes += field_runs()
        codes += [_contract_run(capsys, argv) for argv in others]
    return codes


def test_extreme_inputs_exit_0_2_or_3_with_one_message_line(tmp_path, capsys):
    # a zero far from a halo centre once raised OverflowError out of analyze and render (exit 1)
    codes = run_extreme_inputs(capsys, tmp_path, np.random.default_rng(21), 12)
    assert len(codes) > 100 and {0, 2, 3} <= set(codes)
