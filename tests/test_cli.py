"""End-to-end tests of the command-line interface."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import qpd3
from qpd3 import cli, game, verify
from qpd3.cli import main, parse_angle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_shorthands():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("0") == 0.0
    assert parse_angle("1.25") == 1.25
    with pytest.raises(Exception):
        parse_angle("two pies")


def test_payoff_classical_all_defect(capsys):
    code, out, _ = run_cli(
        capsys, "payoff", "--gamma", "0", "--delta", "0", "--p", "0", "--mu", "0",
        "--strategy", "A:pi,0,0", "--strategy", "B:pi,0,0", "--strategy", "C:pi,0,0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["payoff_A"] == pytest.approx(1.0, abs=1e-12)
    assert data["payoff_B"] == pytest.approx(1.0, abs=1e-12)
    assert data["payoff_C"] == pytest.approx(1.0, abs=1e-12)
    assert len(data["outcome_probabilities"]) == 8
    assert data["closed_form"]["max_abs_discrepancy"] <= 1e-9


def test_payoff_entangled_all_cooperate(capsys):
    code, out, _ = run_cli(capsys, "payoff", "--gamma", "pi/2", "--delta", "pi/2")
    assert code == 0
    data = json.loads(out)
    assert data["payoff_A"] == pytest.approx(3.0, abs=1e-12)


def test_payoff_in_unit_range_with_noise(capsys):
    code, out, _ = run_cli(
        capsys, "payoff", "--p", "0.4", "--mu", "1",
        "--strategy", "A:pi/2,0,0", "--strategy", "B:pi/2,0,0",
        "--strategy", "C:pi/2,pi/2,pi/2",
    )
    assert code == 0
    data = json.loads(out)
    for key in ("payoff_A", "payoff_B", "payoff_C"):
        assert 0.0 <= data[key] <= 5.0


def test_payoff_runs_the_validated_pipeline_once(capsys, monkeypatch):
    calls = []
    original = game.outcome_probabilities

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # cli calls it directly; any call through game.pipeline_payoffs is counted too
    monkeypatch.setattr(cli, "outcome_probabilities", counting)
    monkeypatch.setattr(game, "outcome_probabilities", counting)
    code, out, _ = run_cli(
        capsys, "payoff", "--gamma", "1.1", "--delta", "0.7", "--p", "0.3", "--mu", "0.6",
        "--strategy", "A:1,0.5,-0.2", "--strategy", "C:pi/2,pi/2,0",
    )
    assert code == 0
    assert len(calls) == 1
    data = json.loads(out)
    pipeline = [data[key] for key in ("payoff_A", "payoff_B", "payoff_C")]
    closed = data["closed_form"]
    assert closed["max_abs_discrepancy"] == max(
        abs(v - w) for v, w in zip(closed["values"], pipeline)
    )


def test_unknown_flag_is_an_error(capsys):
    code, _, _ = run_cli(capsys, "payoff", "--bogus", "1")
    assert code == 2


def test_invalid_value_is_an_error(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "payoff", "--p", "1.5")
    assert code == 2
    # a second strategy for the same player is refused, not silently kept
    code, out, err = run_cli(capsys, "payoff", "--strategy", "A:1,0,0", "--strategy", "A:2,0,0")
    assert code == 2 and out == "" and err.startswith("error: --strategy A:")
    # a negative seed is refused while parsing, before any check runs or the report is opened
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--report", str(report))
    assert code == 2 and out == "" and "argument --seed: expected a non-negative integer" in err
    assert not report.exists()
    code, _, _ = run_cli(capsys, "payoff", "--gamma", "pi")  # gamma max is pi/2
    assert code == 2
    code, _, _ = run_cli(capsys, "payoff", "--strategy", "Z:0,0,0")
    assert code == 2
    code, _, err = run_cli(capsys, "payoff", "--gamma", "pi/0")
    assert code == 2 and "division by zero" in err
    code, _, err = run_cli(capsys, "payoff", "--strategy", "A:pi/0,0,0")
    assert code == 2 and "division by zero" in err
    for grid in ("0:inf:3", "0:inf:2", "1e308:-1e308:3"):
        code, out, err = run_cli(capsys, "sweep", "--var", "p", "--grid", grid)
        assert code == 2 and out == ""
        assert f"bad grid {grid!r}" in err and "does not have a finite width" in err
    # malformed values are refused while parsing, each with its own message
    for argv, message in (
        (["sweep", "--var", "p", "--grid", "0:1"], "grid must be start:stop:count"),
        (["payoff", "--strategy", "A:1,2"], "strategy must be theta,alpha,beta"),
        (["best-response", "--player", "alice", "--claimed", "4,0,0"],
         "theta must be in [0, pi]"),
        (["verify", "--seed", "abc", "--report", str(report)], "invalid int value: 'abc'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv
    assert not report.exists()


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--var", "p", "--p", "0.3"], "--p"),
    (["sweep", "--var", "p", "--p2", "0.3"], "--p2"),
    (["sweep", "--var", "mu", "--mu", "0.3"], "--mu"),
    (["sweep", "--var", "mu", "--mu2", "0.3"], "--mu2"),
    (["sweep", "--preset", "fig2", "--p", "0.3"], "--p"),
    (["sweep", "--preset", "fig3", "--mu2", "0.3"], "--mu2"),
    (["best-response", "--player", "bob", "--claimed", "0,0,0", "--res", "3",
      "--strategy", "B:pi,0,0"], "--strategy B"),
], ids=["p-sweep-p", "p-sweep-p2", "mu-sweep-mu", "mu-sweep-mu2", "fig2-p", "fig3-mu2",
        "best-response-strategy"])
def test_flag_without_effect_is_an_error(capsys, argv, flag):
    # a value the command would overwrite is refused, not silently ignored
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}")


@pytest.mark.parametrize("bad", ["passage1", "passage2"])
def test_invariant_violation_exits_3(capsys, monkeypatch, bad):
    # Diagonal 1 keeps the trace, off-diagonal 2 breaks positivity: the
    # validated path must catch it after either channel passage.
    bad_mask = np.full((8, 8), 2.0)
    np.fill_diagonal(bad_mask, 1.0)
    # ChannelParams compare by identity, so the passage is matched by its (p, mu)
    bad_point = {"passage1": (0.2, 0.0), "passage2": (0.4, 0.0)}[bad]
    original = game.dephasing_mask
    monkeypatch.setattr(
        game, "dephasing_mask",
        lambda params: bad_mask if (params.p, params.mu) == bad_point else original(params),
    )
    code, out, err = run_cli(capsys, "payoff", "--p", "0.2", "--p2", "0.4")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical invariant violation")


def test_sweep_grid_contract(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--var", "p", "--grid", "0:1:2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,payoff_A,payoff_B,payoff_C"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "1"


def test_sweep_preset_profile(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig2", "--mu", "0",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 22  # header + 21 grid points
    for line in lines[1:]:
        _, a, b, c = (float(v) for v in line.split(","))
        assert a == pytest.approx(b, abs=1e-12)
        assert c >= a - 1e-12


def test_sweep_requires_var_without_preset(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2
    assert "--var" in err


SWEEP_STRATEGIES = [(1.1, 0.4, -0.7), (2.0, -1.2, 0.3), (0.5, 2.5, 1.0)]


@pytest.mark.parametrize("var,fixed,second", [("mu", "--p", "--p2"), ("p", "--mu", "--mu2")],
                         ids=["mu-sweep-p2", "p-sweep-mu2"])
def test_sweep_keeps_the_second_passage(capsys, var, fixed, second):
    # the swept value enters both passages; each keeps its own other parameter
    flags = [f"{k}:{t},{a},{b}" for k, (t, a, b) in zip("ABC", SWEEP_STRATEGIES)]
    code, out, _ = run_cli(
        capsys, "sweep", "--var", var, fixed, "0.3", second, "0.8", "--gamma", "1.1",
        "--delta", "0.7", "--grid", "0:1:11", *(x for f in flags for x in ("--strategy", f)),
    )
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 11
    for x, *got in rows:
        noise = (x, 0.3, x, 0.8) if var == "p" else (0.3, x, 0.8, x)
        want = oracle.payoffs(1.1, 0.7, *noise, SWEEP_STRATEGIES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_sweep_csv_bytes_are_reproducible(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--var", "mu", "--p", "0.3", "--grid", "0:1:11"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()


def test_surface_grid_contract(capsys):
    code, out, _ = run_cli(capsys, "surface", "--res", "2", "--p", "0.3", "--mu", "0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha1,theta1,payoff_A"
    assert len(lines) == 5


def test_surface_preset_claimed_point_is_max(capsys):
    code, out, _ = run_cli(capsys, "surface", "--preset", "fig4", "--res", "5")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 25
    rows = [tuple(float(v) for v in line.split(",")) for line in lines]
    best = max(r[2] for r in rows)
    claimed = [r for r in rows if abs(r[0] - math.pi / 2) < 1e-9 and abs(r[1] - math.pi / 2) < 1e-9]
    assert claimed and claimed[0][2] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("res", ["-2000", "0"])
def test_surface_refuses_a_non_positive_resolution(capsys, res):
    code, out, err = run_cli(capsys, "surface", "--res", res)
    assert code == 2
    assert out == ""
    assert err == f"error: resolution must be >= 1, got {res}\n"


@pytest.mark.parametrize("cmd,default", [
    ("surface", "all play pi/2,0,0"),
    ("sweep", "all cooperate, i.e. 0,0,0; with --preset, A and B play pi/2,0,0 "
              "and C plays pi/2,pi/2,pi/2"),
    ("payoff", "all cooperate, i.e. 0,0,0"),
    ("best-response", "all cooperate, i.e. 0,0,0"),
    ("nash-check", "all cooperate, i.e. 0,0,0"),
])
def test_strategy_help_states_each_commands_default(capsys, cmd, default):
    code, out, _ = run_cli(capsys, cmd, "--help")
    assert code == 0
    assert f"(default: {default})" in " ".join(out.split())



@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "fig3", "--p", "0.7"],
    ["surface", "--preset", "fig4"],
    ["best-response", "--player", "bob", "--claimed", "1,0.5,0", "--res", "3",
     "--strategy", "A:pi/2,0,0"],
], ids=["sweep-fig3", "surface-fig4", "best-response"])
def test_commands_leave_args_alone(capsys, argv):
    # presets and --claimed are command defaults, not rewritten flags
    args = cli.build_parser().parse_args(argv)
    before = copy.deepcopy(vars(args))
    assert args.func(args) == 0
    capsys.readouterr()
    assert vars(args) == before

def test_best_response_json(capsys):
    code, out, _ = run_cli(
        capsys, "best-response", "--player", "alice", "--claimed", "pi/2,pi/2,0",
        "--strategy", "B:pi/2,0,0", "--strategy", "C:pi/2,0,0", "--res", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "player", "grid_resolution", "best", "best_payoff",
        "payoff_at_claimed", "gain_over_claimed",
        "exact_best", "exact_payoff", "exact_gain", "eigen_gap",
    }
    assert data["player"] == "alice"
    assert data["gain_over_claimed"] >= -1e-12
    assert data["exact_gain"] >= data["gain_over_claimed"] - 1e-12


def test_nash_check_classical_equilibrium(capsys):
    code, out, _ = run_cli(
        capsys, "nash-check", "--gamma", "0", "--delta", "0",
        "--strategy", "A:pi,0,0", "--strategy", "B:pi,0,0", "--strategy", "C:pi,0,0",
        "--res", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_equilibrium"] is True

    code, out, _ = run_cli(
        capsys, "nash-check", "--gamma", "0", "--delta", "0", "--res", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_equilibrium"] is False
    assert data["gains"] == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)
    assert data["exact_gains"] == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)


def test_payoff_table_override(capsys, tmp_path):
    table = {f"{l}{m}{n}": [0, 0, 0] for l in (0, 1) for m in (0, 1) for n in (0, 1)}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(capsys, "payoff", "--table", str(path))
    assert code == 0
    assert json.loads(out)["payoff_A"] == pytest.approx(0.0, abs=1e-12)


def test_corrupted_table_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "payoff", "--table", str(path))
    assert code == 2
    assert "table" in err

    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"000": [1, 2, 3]}))
    code, _, err = run_cli(capsys, "payoff", "--table", str(path2))
    assert code == 2
    assert "missing" in err

    # each entry must be a three-element array of numbers
    good = [1, 2, 3]
    for bad in (5, None, [1, None, 3], "123", [True, 2, 3], [1, 2], [1, 2, 3, 4], [10**400, 2, 3],
                [1.7e308, 2, 3]):
        table = {f"{l}{m}{n}": good for l in (0, 1) for m in (0, 1) for n in (0, 1)}
        table["101"] = bad
        path2.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "payoff", "--table", str(path2))
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: cannot load payoff table") and "101" in err

    table = {f"{l}{m}{n}": good for l in (0, 1) for m in (0, 1) for n in (0, 1)}
    for data, message in (({**table, "222": good}, "payoff table has unknown outcomes: ['222']"),
                          ([1, 2], "payoff table file must contain a JSON object")):
        path2.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "payoff", "--table", str(path2))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot load payoff table") and message in err

    path2.write_text("[" * 100000 + "]" * 100000)  # deeper than the JSON decoder recurses
    code, _, err = run_cli(capsys, "payoff", "--table", str(path2))
    assert code == 2
    assert err.startswith("error: cannot load payoff table")


def test_verify_reports_every_check(capsys, tmp_path):
    report = tmp_path / "disc.json"
    code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--report", str(report))
    lines = [l for l in out.strip().split("\n") if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    # the sweep-shape check fails by construction (constant payoff curves
    # under the canned profile); everything else must pass
    failing = [l for l in lines if l.startswith("FAIL")]
    assert len(failing) == 1
    assert "p_sweep_qualitative" in failing[0]
    assert code == 1
    assert "p_sweep_qualitative" in out.rsplit("failed:", 1)[1]
    assert report.exists()
    payload = json.loads(report.read_text())
    assert "max_abs_discrepancy" in payload


def test_verify_seed_independent_outcome(capsys, tmp_path):
    patterns = []
    for seed in ("42", "43"):
        code, out, _ = run_cli(capsys, "verify", "--seed", seed,
                               "--report", str(tmp_path / f"r{seed}.json"))
        patterns.append([l.split()[0] for l in out.strip().split("\n")
                         if l.startswith(("PASS", "FAIL"))])
    assert patterns[0] == patterns[1]


@pytest.mark.parametrize("argv", [
    ["best-response", "--player", "alice", "--claimed", "0,0,0", "--res", "100000"],
    ["best-response", "--player", "alice", "--claimed", "0,0,0", "--res", "101"],
    ["nash-check", "--res", "101"],
    ["surface", "--res", "1001"],
    ["surface", "--res", "1000000"],
    ["sweep", "--var", "p", "--grid", "0:1:1000001"],
])
def test_oversized_grids_are_refused(capsys, argv):
    # each request is refused before its grid is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "1000000" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--var", "p", "--grid", "0:1:2", "--out", "{tmp}/missing/x.csv"],
    ["verify", "--report", "{tmp}"],
])
def test_unwritable_output_is_an_error(capsys, tmp_path, monkeypatch, argv):
    # refused before any work: verify runs none of its checks
    calls = []
    monkeypatch.setattr(verify, "check_classical_limit", lambda: calls.append(1))
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == "" and calls == []
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("cmd", ["payoff", "sweep", "surface", "best-response",
                                 "nash-check", "verify"])
def test_help_available(capsys, cmd):
    code, out, _ = run_cli(capsys, cmd, "--help")
    assert code == 0
    assert "default" in out


def run_process(argv, stdout, entry=("-m", "qpd3.cli")):
    """Run ``python -m qpd3.cli`` (or another ``entry``) in a child process against this
    checkout's package."""
    src = str(Path(qpd3.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *entry, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def test_process_entry_point():
    proc = run_process(["payoff", "--p", "0.3", "--mu", "0.5"], subprocess.PIPE)
    assert proc.returncode == 0 and proc.stderr == b""
    assert set(json.loads(proc.stdout)) >= {"payoff_A", "outcome_probabilities"}


#: Runs ``qpd3.cli.main`` on its arguments, then reports on stderr whether
#: ``numpy.random`` was ever imported, and exits with main's code.
FOOTPRINT_ENTRY = ("-c", "import sys\nfrom qpd3.cli import main\ncode = main(sys.argv[1:])\n"
                   "print('numpy.random' in sys.modules, file=sys.stderr)\nsys.exit(code)")


@pytest.mark.parametrize("argv,code", [
    (["payoff"], 0),
    (["sweep", "--var", "p", "--grid", "0:1:3"], 0),
    (["surface", "--res", "3"], 0),
    (["best-response", "--player", "alice", "--claimed", "pi/2,pi/2,0", "--res", "3"], 0),
    (["nash-check", "--res", "3"], 0),
    (["verify", "--report", "{tmp}/report.json"], 1),
], ids=["payoff", "sweep", "surface", "best-response", "nash-check", "verify"])
def test_no_command_imports_numpy_random(tmp_path, argv, code):
    # A fresh process: pytest and hypothesis import numpy.random in this one.
    proc = run_process([a.format(tmp=tmp_path) for a in argv], subprocess.PIPE, FOOTPRINT_ENTRY)
    assert proc.returncode == code
    assert proc.stdout and proc.stderr == b"False\n"


@pytest.mark.parametrize("argv", [["payoff"], ["sweep", "--preset", "fig2"]])
def test_closed_stdout_exits_141_silently(argv):
    # the reader is gone before anything is written, as with `qpd3 ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(argv, write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
