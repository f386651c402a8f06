from __future__ import annotations

import json
import math

import numpy as np
import pytest

from tribell import cli, ghz_state, pure_density, w_state
from tribell.cli import main

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_w_l1(capsys):
    code, out, _ = run_cli(capsys, "eval", "--state", "w", "--settings", "example1", "--kind", "l1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "l1"
    assert abs(payload["value"] - (25.0 + 16.0 * SQRT2) / 3.0) <= 1e-9
    assert payload["bound"] == 14.0
    assert payload["violated"] is True
    assert payload["state"] == "w"
    assert payload["settings"] == "example1"


def test_eval_ghz_rel_ent(capsys):
    code, out, _ = run_cli(capsys, "eval", "--state", "ghz", "--settings", "example1", "--kind", "rel-ent")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 8.0) <= 1e-9
    assert payload["violated"] is True


def test_eval_w_skew_under_both_settings(capsys):
    """Settings attribution check: 10 belongs to example1; example2 goes negative."""
    code, out, _ = run_cli(capsys, "eval", "--state", "w", "--settings", "example1", "--kind", "skew")
    assert code == 0
    assert abs(json.loads(out)["value"] - 10.0) <= 1e-9

    code, out, _ = run_cli(capsys, "eval", "--state", "w", "--settings", "example2", "--kind", "skew")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 10.0 * (1.0 - 2.0 * SQRT3) / 9.0) <= 1e-9
    assert payload["violated"] is False


def test_eval_parametrized_state_specs(capsys):
    theta = math.asin(1.0 / math.sqrt(3.0))
    spec = f"w-pure:{theta!r},{math.pi / 4.0!r}"
    code, out, _ = run_cli(capsys, "eval", "--state", spec, "--settings", "example1", "--kind", "l1")
    assert code == 0
    assert abs(json.loads(out)["value"] - (25.0 + 16.0 * SQRT2) / 3.0) <= 1e-9

    code, out, _ = run_cli(capsys, "eval", "--state", "ghz-werner:0.5", "--settings", "example1", "--kind", "l1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 10.0) <= 1e-9


def test_eval_angles_settings(capsys):
    angles = ",".join(str(v) for v in [0.0, 0.0, math.pi / 2.0, 0.0] * 3)
    code, out, _ = run_cli(capsys, "eval", "--state", "ghz", "--settings", f"angles:{angles}", "--kind", "mabk")
    assert code == 0
    payload = json.loads(out)
    assert payload["settings"].startswith("angles:")


def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys, "eval", "--state", "nope", "--settings", "example1", "--kind", "l1")[0] == 2
    assert run_cli(capsys, "eval", "--state", "w", "--settings", "nope", "--kind", "l1")[0] == 2
    assert run_cli(capsys, "eval", "--state", "w", "--settings", "example1", "--kind", "wrong")[0] == 2
    assert run_cli(capsys, "eval", "--state", "w", "--settings", "example1")[0] == 2
    assert run_cli(capsys, "eval", "--state", "w-pure:0.1", "--settings", "example1", "--kind", "l1")[0] == 2
    assert run_cli(capsys, "scan", "--state", "w", "--kind", "l1", "--grid", "11")[0] == 2
    assert run_cli(capsys, "scan", "--state", "ghz-werner", "--kind", "l1", "--grid", "1")[0] == 2
    assert run_cli(capsys, "scan", "--state", "ghz-werner", "--kind", "l1", "--grid", "0:1:x")[0] == 2
    assert run_cli(capsys, "threshold", "--state", "ghz-werner", "--kind", "l1", "--bracket", "0.5")[0] == 2
    assert run_cli(capsys, "threshold", "--state", "w-pure", "--kind", "l1", "--bracket", "0:1")[0] == 2
    assert run_cli(capsys, "threshold", "--state", "ghz-werner", "--kind", "l1", "--bracket", "0.9:0.1")[0] == 2


def test_out_of_range_state_param_exits_3(capsys):
    code, _, err = run_cli(capsys, "eval", "--state", "w-werner:1.5", "--settings", "example1", "--kind", "l1")
    assert code == 3
    assert "outside" in err


def test_non_finite_inputs_exit_with_their_documented_codes(capsys):
    nan_angles = ",".join(["nan"] + ["0.5"] * 11)
    inf_angles = ",".join(["0.5"] * 11 + ["inf"])
    for spec in (f"angles:{nan_angles}", f"angles:{inf_angles}"):
        code, _, err = run_cli(capsys, "eval", "--state", "ghz", "--settings", spec, "--kind", "l1")
        assert code == 2
        assert "non-finite" in err
    code, _, err = run_cli(capsys, "eval", "--state", "w-werner:nan", "--settings", "example1", "--kind", "l1")
    assert code == 3
    assert "outside" in err


def test_optimize_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "optimize", "--state", "ghz", "--kind", "l1", "--seed", "-1")
    assert code == 2
    assert "seed" in err


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def _write_state_file(path, matrix):
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(matrix, dtype=complex).ravel()]
    path.write_text(json.dumps({"dim": matrix.shape[0], "entries": entries}))


def test_eval_from_state_file(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    _write_state_file(path, pure_density(ghz_state()).matrix)
    code, out, _ = run_cli(capsys, "eval", "--state", f"file:{path}", "--settings", "example1", "--kind", "l1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 20.0) <= 1e-9


def test_state_file_errors_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "eval", "--state", f"file:{missing}", "--settings", "example1", "--kind", "l1")[0] == 3

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli(capsys, "eval", "--state", f"file:{bad_json}", "--settings", "example1", "--kind", "l1")[0] == 3

    bad_trace = tmp_path / "trace.json"
    _write_state_file(bad_trace, np.eye(8))
    assert run_cli(capsys, "eval", "--state", f"file:{bad_trace}", "--settings", "example1", "--kind", "l1")[0] == 3

    single_qubit = tmp_path / "qubit.json"
    _write_state_file(single_qubit, np.eye(2) / 2.0)
    assert run_cli(capsys, "eval", "--state", f"file:{single_qubit}", "--settings", "example1", "--kind", "l1")[0] == 3


def test_malformed_state_files_exit_3_without_traceback(tmp_path, capsys):
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b"\xff" + json.dumps({"dim": 2, "entries": []}).encode())
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 200000)
    non_finite = tmp_path / "nan.json"
    _write_state_file(non_finite, np.diag([math.nan, 0.5, 0.5, 0, 0, 0, 0, 0]))
    non_psd = tmp_path / "negative.json"
    _write_state_file(non_psd, np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]))
    too_large = tmp_path / "overflow.json"
    too_large.write_text('{"dim": 2, "entries": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [0, 0]]}')
    too_many_digits = tmp_path / "digits.json"
    too_many_digits.write_text('{"dim": 2, "entries": [[' + "1" * 5000 + ', 0], [0, 0], [0, 0], [0, 0]]}')
    trace_off = tmp_path / "trace_off.json"
    _write_state_file(trace_off, np.diag([0.5 + 2e-10, 0.5, 0, 0, 0, 0, 0, 0]))
    for path in (not_utf8, too_deep, non_finite, non_psd, too_large, too_many_digits, trace_off):
        code, out, err = run_cli(capsys, "eval", "--state", f"file:{path}", "--settings", "example1", "--kind", "l1")
        assert (code, out) == (3, "")
        assert "Traceback" not in err


def test_scan_csv_values_and_determinism(tmp_path, capsys):
    args = ["scan", "--state", "ghz-werner", "--kind", "l1", "--settings", "example1", "--grid", "0:1:11"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().strip().splitlines()
    assert lines[0] == "param1,param2,value,bound,violated"
    assert len(lines) == 12
    for line in lines[1:]:
        p1, p2, value, bound, violated = line.split(",")
        p = float(p1)
        assert p2 == ""
        assert abs(float(value) - 20.0 * (1.0 - p)) <= 1e-9
        assert float(bound) == 14.0
        assert violated == ("true" if 20.0 * (1.0 - p) > 14.0 + 1e-9 else "false")
    # 17 significant digits survive the round trip exactly
    from tribell import Family, FamilyCurve, FunctionalKind, evaluate_family, example1_settings

    curve = FamilyCurve(Family.GHZ_WERNER, FunctionalKind.L1, example1_settings())
    row_values = [float(line.split(",")[2]) for line in lines[1:]]
    assert row_values[1] == evaluate_family(curve, 0.1)


def test_scan_two_parameter_grid(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--state", "w-pure", "--kind", "rel-ent", "--settings", "example1",
        "--grid", "0.2:1.4:5,0.3:1.2:7", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 35
    assert rows[0]["param2"] is not None
    assert rows[0]["bound"] == 6.0


def test_scan_nxm_grid_shorthand(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--state", "w-pure", "--kind", "l1", "--grid", "4x3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 12
    assert rows[0]["param1"] == 0.0
    assert abs(rows[-1]["param1"] - math.pi) <= 1e-15
    assert abs(rows[-1]["param2"] - 2.0 * math.pi) <= 1e-15


def test_scan_json_matches_csv(tmp_path, capsys):
    base = ["scan", "--state", "w-werner", "--kind", "skew", "--settings", "example1", "--grid", "0:1:5"]
    code, out, _ = run_cli(capsys, *base, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    csv_path = tmp_path / "scan.csv"
    assert main(base + ["--format", "csv", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()[1:]
    assert len(lines) == len(rows) == 5
    for row, line in zip(rows, lines):
        assert float(line.split(",")[2]) == row["value"]


def test_scan_write_failure_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--state", "ghz-werner", "--kind", "l1", "--grid", "3",
        "--out", "/dev/null/nope.csv",
    )
    assert code == 4
    assert "error" in err


def test_threshold_w_werner_l1(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--state", "w-werner", "--kind", "l1", "--settings", "example1",
        "--bracket", "0:1",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p_star", "value_at_p_star"}
    want = (16.0 * SQRT2 - 17.0) / (25.0 + 16.0 * SQRT2)
    assert abs(payload["p_star"] - want) <= 1e-6
    assert abs(payload["value_at_p_star"] - 14.0) <= 1e-6


def test_threshold_bracket_failures_exit_5(capsys):
    code, _, err = run_cli(
        capsys, "threshold", "--state", "ghz-pure", "--kind", "rel-ent", "--settings", "example1",
        "--bracket", "0.1:0.7",
    )
    assert code == 5
    assert "no crossing" in err
    code, _, err = run_cli(
        capsys, "threshold", "--state", "ghz-pure", "--kind", "l1", "--settings", "example1",
        "--bracket", "0.2:0.9",
    )
    assert code == 5
    assert "monotone" in err


def test_threshold_w_werner_rel_ent_has_a_crossing(capsys):
    """The rel-ent noise curve drops through its bound almost immediately."""
    code, out, _ = run_cli(
        capsys, "threshold", "--state", "w-werner", "--kind", "rel-ent", "--settings", "example1",
        "--bracket", "0:1",
    )
    assert code == 0
    assert abs(json.loads(out)["p_star"] - 0.026020307) <= 1e-6


def test_optimize_ghz(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--state", "ghz", "--kind", "l1",
        "--restarts", "2", "--iterations", "40", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 14.0
    assert payload["violated"] is True
    assert len(payload["angles"]) == 12
    assert payload["seed"] == 0


def test_optimize_rejects_bad_budget(capsys):
    code, _, _ = run_cli(capsys, "optimize", "--state", "ghz", "--kind", "l1", "--restarts", "0")
    assert code == 2


def test_state_file_loader_round_trip(tmp_path):
    path = tmp_path / "w.json"
    _write_state_file(path, pure_density(w_state()).matrix)
    rho = cli.load_state_file(str(path))
    np.testing.assert_allclose(rho.matrix, pure_density(w_state()).matrix, atol=1e-12)


@pytest.mark.parametrize("excess, violated", [(5e-10, False), (2e-9, True)])
def test_violation_flag_sits_at_the_margin(capsys, monkeypatch, excess, violated):
    """VIOLATION_MARGIN is 1e-9: bound + 5e-10 is not a violation, bound + 2e-9 is."""
    bound = 14.0
    monkeypatch.setattr(cli, "evaluate", lambda kind, rho, settings: bound + excess)
    code, out, _ = run_cli(capsys, "eval", "--state", "w", "--settings", "example1", "--kind", "l1")
    assert code == 0
    assert json.loads(out)["violated"] is violated

    monkeypatch.setattr(cli, "evaluate_family", lambda curve, point: bound + excess)
    code, out, _ = run_cli(capsys, "scan", "--state", "w-werner", "--kind", "l1", "--grid", "3", "--format", "json")
    assert code == 0
    assert [row["violated"] for row in json.loads(out)["rows"]] == [violated] * 3
