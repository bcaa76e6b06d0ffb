"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``perfbench/run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH and the BLAS/OpenMP thread counts pinned to 1.  It imports
``qpd3.cli`` (timed), then runs units of the workload through
``qpd3.cli.main`` in process until ``--seconds`` of operation time have been
measured, checking every operation's output against ``tests/oracle.py``
outside the timed region.  Every lru_cache in the package is cleared before
each operation, as in the fresh process a user starts per command.  Times are
reported in reference seconds (see ``speed.py``).

With ``--trace 1`` the same units are then run again with span recorders
around the layer boundaries (see ``tracing.py``), the spans are written to
``.perfbench_out/spans-<workload>.npz`` and per-layer metrics are reported.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

from run import THREAD_VARS

# Modules that import numpy (speed, tracing) are imported only after the
# timed import of qpd3.cli.

clock = time.perf_counter

MAX_FAILURE_NOTES = 5


def load_oracle(path: str):
    spec = importlib.util.spec_from_file_location("qpd3_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lru_caches(package_name: str = "qpd3") -> list:
    found = {}
    for key, module in list(sys.modules.items()):
        if key == package_name or key.startswith(package_name + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload: str, oracle, sampler):
        import qpd3.cli
        from workloads import WORKLOADS

        self.cli = qpd3.cli
        self.make_unit, self.evals_of, self.check = WORKLOADS[workload]
        self.workload = workload
        self.oracle = oracle
        self.sampler = sampler
        self.caches = lru_caches()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.recorder = None

    def run_op(self, argv: list[str]) -> tuple[object, str, float, float]:
        """Run one operation; returns exit code, stdout, raw and reference latency."""
        import speed

        for cache in self.caches:
            cache.cache_clear()
        if self.recorder is not None:
            self.recorder.op_id = self.attempted
        self.attempted += 1
        out = io.StringIO()
        sampler = self.sampler
        samples = [speed.sample()]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            sampler.samples = samples
            spent = sampler.spent
            sampler.active = True
            start = clock()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            latency = clock() - start
            sampler.active = False
        latency -= sampler.spent - spent
        return rc, out.getvalue(), latency, latency * speed.scale(samples)

    def run_unit(self, seed: int, unit: int, ops: list[list[str]]) -> tuple[float, float, list[float]]:
        """Run and check one unit.

        Returns the unit's operation time in raw and in reference seconds, and
        each operation's latency in reference seconds.
        """
        results = [self.run_op(argv) for argv in ops]
        for k, (argv, (rc, out, _, _)) in enumerate(zip(ops, results)):
            rng = random.Random(f"check:{self.workload}:{seed}:{unit}:{k}")
            try:
                error = self.check(argv, rc, out, self.oracle, rng)
            except Exception as exc:  # malformed output is a failed operation
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failed += 1
                if len(self.notes) < MAX_FAILURE_NOTES:
                    self.notes.append(f"{argv[0]} unit {unit} op {k}: {error}")
        latencies = [ref for _, _, _, ref in results]
        return sum(raw for _, _, raw, _ in results), sum(latencies), latencies


def layer_metrics(recorder, units: int, factor: float) -> dict:
    """Per-unit layer statistics; times are scaled to reference seconds by ``factor``."""
    from tracing import LAYER_STATS

    totals = recorder.layer_totals()
    metrics = {}
    for target, stat in LAYER_STATS:
        calls, total_s, self_s = totals[target]
        if stat == "calls":
            metrics[f"{target}.calls"] = (calls / units, "count")
        else:
            seconds = total_s if stat == "total_s" else self_s
            metrics[f"{target}.{stat}"] = (seconds * factor / units, "s")
    prepares = totals["game.PreparedGame.__init__"][0]
    for name, target in (("game.evals_per_prepare", "game.PreparedGame.payoffs"),
                         ("channel.constructions_per_prepare", "channel.correlated_triple")):
        metrics[name] = (totals[target][0] / prepares if prepares else 0.0, "ratio")
    return metrics


def timed_import() -> float:
    start = clock()
    import qpd3.cli  # noqa: F401  (the timed import is the point)
    return clock() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time the import and probe the machine speed")
    args = parser.parse_args()

    import_s = timed_import()
    import numpy as np
    import speed

    setup_s = import_s * speed.scale(speed.probe())
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    with speed.Sampler() as sampler:
        runner = Runner(args.workload, load_oracle(os.path.join("tests", "oracle.py")), sampler)
        units: list[list[list[str]]] = []
        raw_walls: list[float] = []
        walls: list[float] = []
        evals: list[int] = []
        latencies: list[float] = []
        while not units or sum(raw_walls) < args.seconds:
            ops = runner.make_unit(args.seed, len(units))
            raw, wall, lat = runner.run_unit(args.seed, len(units), ops)
            units.append(ops)
            raw_walls.append(raw)
            walls.append(wall)
            evals.append(sum(runner.evals_of(argv) for argv in ops))
            latencies += lat
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "units": len(units),
            "ops_per_unit": len(units[0]),
            "evals_per_unit": evals[0],
            "input_sha256": hashlib.sha256(json.dumps(units).encode()).hexdigest(),
            "import_s": import_s,
            "setup_s": setup_s,
            "unit_wall_raw_s": raw_walls,
            "unit_wall_ref_s": walls,
            "env": environment(),
        }
        if args.trace:
            from tracing import Recorder

            runner.recorder = Recorder()
            runner.recorder.install()
            traced = [runner.run_unit(args.seed, u, ops) for u, ops in enumerate(units)]
            traced_walls = [wall for _, wall, _ in traced]
            traced_factor = sum(traced_walls) / sum(raw for raw, _, _ in traced)
            metrics = layer_metrics(runner.recorder, len(units), traced_factor)
            metrics["trace_overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls), "s")
            record["absent_targets"] = runner.recorder.absent
            record["spans"] = len(runner.recorder.start)
            record["traced_unit_wall_ref_s"] = traced_walls
            if args.spans:
                runner.recorder.save(args.spans)
                record["spans_file"] = args.spans
        else:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "evals_per_s": (statistics.median(e / w for e, w in zip(evals, walls)), "1/s"),
                "op_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
                "op_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
    record["fail_frac"] = runner.failed / runner.attempted
    record["failures"] = runner.notes
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
