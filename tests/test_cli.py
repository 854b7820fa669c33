"""End-to-end checks of the command line interface and its exit codes."""

import json

import numpy as np
import pytest

from qubitflow import QubitState, defects, make_basis_state, qft, roots
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


def test_gram_subcommand(tmp_path):
    out = tmp_path / "gram.json"
    assert main(["gram", "--n", "2", "--rep", "position", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["condition_estimate"] < 1e8
    # The degenerate three-qubit d=1 family fails conditioning: exit code 3.
    assert main(["gram", "--n", "3", "--rep", "position", "--d", "1"]) == 3


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
    for n, code in ((4, 0), (5, 3)):
        state_path = tmp_path / f"uniform{n}.json"
        field_path = tmp_path / f"charge{n}.json"
        state_path.write_text(json.dumps(QubitState(n, np.full(2**n, 2 ** (-n / 2))).to_dict()))
        assert main(["map", "--in", str(state_path), "--rep", "charge", "--d", "3", "--out", str(field_path)]) == 0
        out = tmp_path / f"sphere{n}.json"
        assert main(["sphere", "--in", str(field_path), "--res", "4,8", "--out", str(out)]) == code
    assert json.loads((tmp_path / "sphere4.json").read_text())["north_pole"]["degree"] == 40
    assert "numerical failure" in capsys.readouterr().err


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
