"""The four benchmark workloads: seeded inputs, evaluation counts, output checks.

A workload is a sequence of *units*; a unit is a list of CLI argument lists,
each passed to ``qpd3.cli.main`` as one operation.  Unit ``u`` of a run with
seed ``s`` is a pure function of ``(workload, s, u)``, so a run can be replayed
exactly from its seed.  Each check compares one operation's output with the
loop-based reference in ``tests/oracle.py`` (or, for ``verify``, with the
documented outcome) and returns an error message, or None when the output is
correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import random

PI = math.pi
HALF_PI = PI / 2

#: Outputs compared with the oracle: payoffs are printed with full float
#: precision in JSON and with 12 significant digits in CSV (payoffs <= 5).
JSON_TOL = 1e-10
CSV_TOL = 1e-10
#: Tolerance on reported equilibrium gains and grid-maximum claims.
GAIN_TOL = 1e-9

NASH_RES = 25
PAYOFFS_PER_UNIT = 200
SCAN_P_POINTS = 41
SCAN_MU_VALUES = 21
#: Grid points per player, besides the 26 grid neighbours of the reported best
#: response, sampled to test that no grid point beats it.
BR_SAMPLES = 16
#: CSV rows per sweep operation compared with the oracle.
SWEEP_SAMPLES = 2

#: Profile evaluations made by one `qpd3 verify`, from the suite's fixed
#: definition: 8 classical-limit and 2 anchor pipelines, two 21-point p sweeps,
#: two 21-point mu sweeps, sixteen 41x41 surfaces, two 3-player nash checks at
#: res 9 (3 * (9**3 + 1) each) and 5 closed-form comparisons.
VERIFY_EVALS = 8 + 2 + 2 * 21 + 2 * 21 + 16 * 41 * 41 + 2 * 3 * (9**3 + 1) + 5
VERIFY_CHECKS = (
    "classical_limit_exact",
    "entangled_anchors",
    "channel_trace_preservation",
    "coherence_factor_limits",
    "p_sweep_qualitative",
    "mu_sweep_monotonicity",
    "surface_argmax_invariance",
    "classical_nash",
    "closed_form_agreement",
    "projector_soundness",
)
#: The check that fails by design (its payoff curves are provably flat).
VERIFY_EXPECTED_FAIL = "p_sweep_qualitative"
VERIFY_REPORT = ".perfbench_out/closed_form_discrepancy.json"


def _rng(workload: str, seed: int, unit: int, *more) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed, unit) + more))


def _num(x: float) -> str:
    return repr(float(x))


def _strategy(rng: random.Random) -> tuple[float, float, float]:
    return (rng.uniform(0.0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI))


def _strategy_flags(strategies) -> list[str]:
    flags = []
    for key, (t, a, b) in zip("ABC", strategies):
        flags += ["--strategy", f"{key}:{_num(t)},{_num(a)},{_num(b)}"]
    return flags


def _flag(argv: list[str], name: str, default=None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _strategies_of(argv: list[str]) -> list[tuple[float, float, float]]:
    found = {}
    for i, tok in enumerate(argv):
        if tok == "--strategy":
            key, _, rest = argv[i + 1].partition(":")
            found[key] = tuple(float(v) for v in rest.split(","))
    return [found[k] for k in "ABC"]


def _noise_of(argv: list[str]) -> tuple[float, float, float, float]:
    p = float(_flag(argv, "--p", "0"))
    mu = float(_flag(argv, "--mu", "0"))
    return p, mu, float(_flag(argv, "--p2", p)), float(_flag(argv, "--mu2", mu))


def _angles_of(argv: list[str]) -> tuple[float, float]:
    return float(_flag(argv, "--gamma", HALF_PI)), float(_flag(argv, "--delta", HALF_PI))


def _linspace(start: float, stop: float, n: int) -> list[float]:
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _grid_index(x: float, axis: list[float]) -> int:
    i = min(range(len(axis)), key=lambda n: abs(axis[n] - x))
    if abs(axis[i] - x) > 1e-12:
        raise ValueError(f"{x!r} is not on the grid")
    return i


# --- grid_search -----------------------------------------------------------

def grid_search_unit(seed: int, unit: int) -> list[list[str]]:
    rng = _rng("grid_search", seed, unit)
    noise = [rng.uniform(0.1, 0.9) for _ in range(4)]
    argv = ["nash-check", "--res", str(NASH_RES)]
    for name, val in zip(("--p", "--mu", "--p2", "--mu2"), noise):
        argv += [name, _num(val)]
    return [argv + _strategy_flags([_strategy(rng) for _ in range(3)])]


def grid_search_evals(argv: list[str]) -> int:
    res = int(_flag(argv, "--res"))
    return 3 * (res**3 + 1)


def grid_search_check(argv, rc, out, oracle, rng) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = json.loads(out)
    gamma, delta = _angles_of(argv)
    noise = _noise_of(argv)
    profile = _strategies_of(argv)
    res = int(_flag(argv, "--res"))
    thetas = _linspace(0.0, PI, res)
    phases = _linspace(-PI, PI, res)
    gains = data["gains"]
    bests = data["best_responses"]
    if len(gains) != 3 or len(bests) != 3:
        return "expected three gains and three best responses"
    if data["is_equilibrium"] != all(g <= data["gain_tolerance"] for g in gains):
        return "is_equilibrium disagrees with the reported gains"
    base = oracle.payoffs(gamma, delta, *noise, profile)
    for k in range(3):
        t, a, b = bests[k]
        try:
            i, j, m = (_grid_index(x, axis) for x, axis in ((t, thetas), (a, phases), (b, phases)))
        except ValueError:
            return f"best response {bests[k]} of player {k} is not a grid point"
        deviated = list(profile)
        deviated[k] = (t, a, b)
        want = oracle.payoffs(gamma, delta, *noise, deviated)[k] - base[k]
        if abs(gains[k] - want) > GAIN_TOL:
            return f"player {k} gain {gains[k]!r} != oracle {want!r}"
        # No neighbouring or sampled grid point may beat the reported maximum.
        rivals = [(i + di, j + dj, m + dm) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                  for dm in (-1, 0, 1) if (di, dj, dm) != (0, 0, 0)]
        rivals += [(rng.randrange(res), rng.randrange(res), rng.randrange(res))
                   for _ in range(BR_SAMPLES)]
        for ri, rj, rm in rivals:
            if 0 <= ri < res and 0 <= rj < res and 0 <= rm < res:
                deviated[k] = (thetas[ri], phases[rj], phases[rm])
                got = oracle.payoffs(gamma, delta, *noise, deviated)[k] - base[k]
                if got > gains[k] + GAIN_TOL:
                    return f"grid point {deviated[k]} beats player {k}'s best response"
    return None


# --- noise_scan ------------------------------------------------------------

def noise_scan_unit(seed: int, unit: int) -> list[list[str]]:
    rng = _rng("noise_scan", seed, unit)
    strategies = _strategy_flags([_strategy(rng) for _ in range(3)])
    start, stop = rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)
    grid = f"{_num(start)}:{_num(stop)}:{SCAN_P_POINTS}"
    mus = sorted(rng.uniform(0.0, 1.0) for _ in range(SCAN_MU_VALUES))
    return [["sweep", "--var", "p", "--grid", grid, "--mu", _num(mu)] + strategies
            for mu in mus]


def noise_scan_evals(argv: list[str]) -> int:
    return int(_flag(argv, "--grid").split(":")[2])


def noise_scan_check(argv, rc, out, oracle, rng) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.split("\n")
    if lines[0] != "x,payoff_A,payoff_B,payoff_C" or lines[-1] != "":
        return "bad CSV header or missing final newline"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    start, stop, count = _flag(argv, "--grid").split(":")
    xs = _linspace(float(start), float(stop), int(count))
    if len(rows) != len(xs) or any(len(r) != 4 for r in rows):
        return f"expected {len(xs)} rows of 4 columns, got {len(rows)}"
    for row, x in zip(rows, xs):
        if abs(row[0] - x) > 1e-11:
            return f"x value {row[0]!r} != grid value {x!r}"
        if not all(0.0 - CSV_TOL <= v <= 5.0 + CSV_TOL for v in row[1:]):
            return f"payoff outside the table range in row {row}"
    gamma, delta = _angles_of(argv)
    mu = float(_flag(argv, "--mu"))
    profile = _strategies_of(argv)
    for i in rng.sample(range(len(rows)), SWEEP_SAMPLES):
        want = oracle.payoffs(gamma, delta, xs[i], mu, xs[i], mu, profile)
        if max(abs(a - b) for a, b in zip(rows[i][1:], want)) > CSV_TOL:
            return f"row {rows[i]} != oracle {want}"
    return None


# --- single_payoff ---------------------------------------------------------

def single_payoff_unit(seed: int, unit: int) -> list[list[str]]:
    rng = _rng("single_payoff", seed, unit)
    ops = []
    for _ in range(PAYOFFS_PER_UNIT):
        argv = ["payoff", "--gamma", _num(rng.uniform(0.0, HALF_PI)),
                "--delta", _num(rng.uniform(0.0, HALF_PI))]
        for name in ("--p", "--mu", "--p2", "--mu2"):
            argv += [name, _num(rng.uniform(0.0, 1.0))]
        ops.append(argv + _strategy_flags([_strategy(rng) for _ in range(3)]))
    return ops


def single_payoff_evals(argv: list[str]) -> int:
    return 1


def single_payoff_check(argv, rc, out, oracle, rng) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = json.loads(out)
    probs = data["outcome_probabilities"]
    if len(probs) != 8 or abs(sum(probs) - 1.0) > JSON_TOL:
        return f"outcome probabilities {probs} do not sum to 1"
    cf = data["closed_form"]
    if len(cf["values"]) != 3 or "max_abs_discrepancy" not in cf:
        return "closed-form fields missing"
    want = oracle.payoffs(*_angles_of(argv), *_noise_of(argv), _strategies_of(argv))
    got = (data["payoff_A"], data["payoff_B"], data["payoff_C"])
    if max(abs(a - b) for a, b in zip(got, want)) > JSON_TOL:
        return f"payoffs {got} != oracle {want}"
    return None


# --- verify_suite ----------------------------------------------------------

def verify_suite_unit(seed: int, unit: int) -> list[list[str]]:
    rng = _rng("verify_suite", seed, unit)
    return [["verify", "--seed", str(rng.randrange(2**31)), "--report", VERIFY_REPORT]]


def verify_suite_evals(argv: list[str]) -> int:
    return VERIFY_EVALS


def verify_suite_check(argv, rc, out, oracle, rng) -> str | None:
    if rc != 1:
        return f"exit code {rc}, expected 1"
    lines = out.strip("\n").split("\n")
    results = lines[: len(VERIFY_CHECKS)]
    for line, name in zip(results, VERIFY_CHECKS):
        want = "FAIL" if name == VERIFY_EXPECTED_FAIL else "PASS"
        if not line.startswith(f"{want}  {name}:"):
            return f"unexpected check line {line!r}"
    n = len(VERIFY_CHECKS)
    tail = [f"{n - 1}/{n} checks passed", f"failed: {VERIFY_EXPECTED_FAIL}"]
    if lines[len(VERIFY_CHECKS):] != [""] + tail:
        return f"unexpected summary {lines[len(VERIFY_CHECKS):]!r}"
    with open(VERIFY_REPORT, encoding="utf-8") as fh:
        report = json.load(fh)
    sweep_profile = [(HALF_PI, 0.0, 0.0), (HALF_PI, 0.0, 0.0), (HALF_PI, HALF_PI, HALF_PI)]
    want = oracle.payoffs(HALF_PI, HALF_PI, 0.5, 0.5, 0.5, 0.5, sweep_profile)
    if max(abs(a - b) for a, b in zip(report["pipeline_payoffs"], want)) > JSON_TOL:
        return f"report pipeline payoffs {report['pipeline_payoffs']} != oracle {want}"
    return None


WORKLOADS = {
    "grid_search": (grid_search_unit, grid_search_evals, grid_search_check),
    "noise_scan": (noise_scan_unit, noise_scan_evals, noise_scan_check),
    "single_payoff": (single_payoff_unit, single_payoff_evals, single_payoff_check),
    "verify_suite": (verify_suite_unit, verify_suite_evals, verify_suite_check),
}
