"""Span recording around the public functions of the qpd3 modules.

Nothing inside ``src/`` is instrumented: :func:`install` looks each target up
by name and replaces it, in every ``qpd3.*`` module namespace that holds the
same object (methods are replaced on their class), with a wrapper that records
one span per call.  A target missing from the code under test is reported as
absent and counts zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

VERIFY_CHECK_FUNCS = (
    "check_classical_limit",
    "check_entangled_anchors",
    "check_channel_soundness",
    "check_coherence_factor_limits",
    "check_p_sweep_qualitative",
    "check_mu_sweep_monotonicity",
    "check_surface_argmax_invariance",
    "check_classical_nash",
    "check_closed_form",
    "check_projector_soundness",
)

#: Per-layer statistics reported by the traced run, as (target, statistic);
#: a target is "<module>.<qualified name>" under the qpd3 package.
LAYER_STATS = (
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
    ("analysis.best_response", "self_s"),
    ("analysis.nash_check", "total_s"),
    ("analysis.sweep", "self_s"),
    ("analysis.strategy_surface", "self_s"),
    ("game.PreparedGame.payoffs", "calls"),
    ("game.PreparedGame.final_state", "self_s"),
    ("game.PreparedGame.probabilities_of", "self_s"),
    ("game.strategy_unitary", "calls"),
    ("game.strategy_unitary", "self_s"),
    ("game.PreparedGame.__init__", "calls"),
    ("game.PreparedGame.__init__", "total_s"),
    ("game.initial_state", "self_s"),
    ("game.measurement_projectors", "calls"),
    ("game.measurement_projectors", "total_s"),
    ("game.pipeline_payoffs", "total_s"),
    ("game.outcome_probabilities", "total_s"),
    ("game.closed_form_payoffs", "self_s"),
    ("channel.correlated_triple", "calls"),
    ("channel.correlated_triple", "total_s"),
    ("channel.kraus_sum", "calls"),
    ("channel.kraus_sum", "self_s"),
    ("channel.completeness_defect", "calls"),
    ("channel.completeness_defect", "self_s"),
    ("channel.apply_channel", "total_s"),
    ("linalg.kron_all", "calls"),
    ("linalg.kron_all", "self_s"),
    ("linalg.as_complex_matrix", "calls"),
    ("linalg.as_complex_matrix", "self_s"),
    ("linalg.check_density_matrix", "calls"),
    ("linalg.check_density_matrix", "self_s"),
    ("linalg.positivity_smoke", "calls"),
    ("linalg.positivity_smoke", "self_s"),
) + tuple((f"verify.{name}", "total_s") for name in VERIFY_CHECK_FUNCS)

#: The wrapped layer boundaries, in first-use order.
TARGETS = tuple(dict.fromkeys(target for target, _ in LAYER_STATS))


class Recorder:
    """Spans kept in memory as columns: target index, parent span, operation, start, end."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.absent: list[str] = []

    def _wrap(self, fn, index: int):
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        """Wrap every target present in the imported qpd3 modules."""
        modules = [m for k, m in sys.modules.items() if k == "qpd3" or k.startswith("qpd3.")]
        for index, target in enumerate(TARGETS):
            module_name, *path = target.split(".")
            owner = sys.modules.get(f"qpd3.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, index)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """target -> (calls, total seconds, self seconds) over all spans.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        own = dur.copy()
        child = cols["parent"] >= 0
        np.subtract.at(own, cols["parent"][child], dur[child])
        n = len(TARGETS)
        calls = np.bincount(cols["name"], minlength=n)
        total = np.bincount(cols["name"], weights=dur, minlength=n)
        self_s = np.bincount(cols["name"], weights=own, minlength=n)
        return {t: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, t in enumerate(TARGETS)}

    def save(self, path) -> None:
        np.savez_compressed(path, targets=np.array(TARGETS), **self.columns())
