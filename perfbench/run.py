"""Benchmark of the qpd3 CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qpd3 checkout (the package is used from ``src``; no
install step).  One workload process runs at a time: a few fresh interpreters
time ``import qpd3.cli`` (``setup_s``), then one fresh worker process
(``worker.py``) runs the workload with the BLAS/OpenMP threads pinned to 1.
Times are reported in reference seconds (see ``speed.py``).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the run
record (seed, input digest, environment, failures), which is also written to
``.perfbench_out/``.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_search", "noise_scan", "single_payoff", "verify_suite")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OUT_DIR = ".perfbench_out"
#: Timed imports per run; one more untimed import first writes the bytecode cache.
SETUP_SAMPLES = 4
#: A run must end well within the 180 s a run may take.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> str:
    """Run one child to completion and return its stdout; raise on failure or timeout."""
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="qpd3 end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/qpd3/cli.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a qpd3 checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = child_env()

    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py")]
    try:
        setups = [last_json(run_child(worker + ["--setup-only"], env, deadline))
                  for _ in range(SETUP_SAMPLES + 1)][1:]
        argv = worker + ["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans", str(out_dir / f"spans-{args.workload}.npz")]
        result = last_json(run_child(argv, env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record = result["record"]
    record["setup_samples"] = setups
    samples = [s["setup_s"] for s in setups] + [record["setup_s"]]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
