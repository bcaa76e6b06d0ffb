"""The built-in verification suite: one check per acceptance criterion.

Each check returns a :class:`CheckResult`; :func:`run_all` runs them in order.
The suite is deterministic apart from the seeded random states used by the
channel soundness check.  Checks report what they measure; none of them is
weakened to force a pass, so a failing check is a finding about the model,
not necessarily a bug (see the surrounding docstrings).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, presets
from .channel import (
    ChannelParams,
    completeness_defect,
    correlated_triple,
    dephasing_mask,
    kraus_sum,
)
from .game import (
    BASIS_READING,
    COOPERATE,
    DEFECT,
    OUTCOMES,
    GameConfig,
    closed_form_payoffs,
    measurement_projectors,
    mu_p_factor,
    pipeline_payoffs,
)
from .linalg import InvariantViolation, check_density_matrix, max_abs

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}: measured {self.measured} (tolerance {self.tolerance})"
        if self.details:
            text += f" — {self.details}"
        return text


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random mixed state: Dirichlet mixture of a few random pure states."""
    k = 3
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def check_classical_limit() -> CheckResult:
    """All 8 pure classical profiles reproduce the payoff table exactly."""
    worst = 0.0
    for label in OUTCOMES:
        cfg = presets.classical_config(DEFECT if bit == "1" else COOPERATE for bit in label)
        got = pipeline_payoffs(cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, cfg.payoffs.payoff(label))))
    return CheckResult(
        "classical_limit_exact", worst <= 1e-12, f"max |payoff err| = {worst:.3e}", "1e-12"
    )


def check_entangled_anchors() -> CheckResult:
    """Maximally entangled noiseless all-C -> (3,3,3) and all-D -> (1,1,1)."""
    off = ChannelParams(0.0, 0.0)
    worst = 0.0
    for strat, want in (((COOPERATE,) * 3, (3.0, 3.0, 3.0)), ((DEFECT,) * 3, (1.0, 1.0, 1.0))):
        cfg = GameConfig(HALF_PI, HALF_PI, off, off, strat)
        got = pipeline_payoffs(cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    return CheckResult(
        "entangled_anchors", worst <= 1e-12, f"max |payoff err| = {worst:.3e}", "1e-12"
    )


def check_channel_soundness(seed: int) -> CheckResult:
    """The mask the evaluations run against the Kraus operators defining the channel.

    Complete, diagonal operators whose diagonals d have Gram d.T @ d.conj() = M
    make the channel exactly M o rho: checked on a 21x21 (p, mu) grid.  On 100
    seeded random (p, mu, rho), M o rho must be a valid state equal to the Kraus sum.
    """
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 21)
    for p in grid:
        for mu in grid:
            params = ChannelParams(float(p), float(mu))
            ops = correlated_triple(params)
            diag = np.diagonal(ops, axis1=1, axis2=2)
            worst = max(
                worst,
                completeness_defect(ops),
                max_abs(ops - diag[:, :, None] * np.eye(8)),
                max_abs(diag.T @ diag.conj() - dephasing_mask(params)),
            )
    rng = np.random.default_rng(seed)
    invalid = 0
    for _ in range(100):
        params = ChannelParams(float(rng.uniform()), float(rng.uniform()))
        rho = _random_density(rng, 8)
        out = dephasing_mask(params) * rho
        try:
            check_density_matrix(out)
        except InvariantViolation:
            invalid += 1
        worst = max(worst, max_abs(out - kraus_sum(correlated_triple(params), rho)))
    return CheckResult(
        "channel_trace_preservation",
        worst <= 1e-12 and not invalid,
        f"max defect = {worst:.3e}",
        "1e-12",
        "completeness, diagonality and Gram = mask over 21x21 grid; M o rho a valid state "
        f"in {100 - invalid}/100 random states and compared with the Kraus sum",
    )


def check_coherence_factor_limits() -> CheckResult:
    """mu_p limits: 1 at p=0; (1-p)^3 at mu=0; (1-p) at mu=1."""
    grid = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for mu in grid:
        worst = max(worst, abs(mu_p_factor(ChannelParams(0.0, float(mu))) - 1.0))
    for p in grid:
        worst = max(worst, abs(mu_p_factor(ChannelParams(float(p), 0.0)) - (1.0 - p) ** 3))
        worst = max(worst, abs(mu_p_factor(ChannelParams(float(p), 1.0)) - (1.0 - p)))
    return CheckResult(
        "coherence_factor_limits", worst <= 1e-12, f"max |err| = {worst:.3e}", "1e-12"
    )


def check_p_sweep_qualitative() -> CheckResult:
    """Decoherence sweep under the canned sweep profile.

    Asserts: payoff_C >= payoff_A = payoff_B at every p for mu in {0, 1};
    payoff_C at mu=1 dominates mu=0 pointwise; and the mu=1 curve is
    non-constant in p (max-min spread over p above 1e-6).

    The last clause fails by construction: with Charlie's strategy at
    alpha3 = beta3 = pi/2 every phase-sensitive term in the payoff hits
    cos(+-pi) simultaneously and cancels, leaving the payoff exactly 21/8 for
    every p and mu.  The spread is reported as measured.
    """
    grid = analysis.grid_points(0.0, 1.0, 21)
    curves = {}
    for mu in (0.0, 1.0):
        base = presets.entangled_config(0.0, mu, presets.SWEEP_PROFILE)
        curves[mu] = analysis.sweep(base, "p", grid)
    ab_gap = max(abs(r[1] - r[2]) for rows in curves.values() for r in rows)
    c_minus_a = min(r[3] - r[1] for rows in curves.values() for r in rows)
    memory_gain = min(r1[3] - r0[3] for r0, r1 in zip(curves[0.0], curves[1.0]))
    c_mu1 = [r[3] for r in curves[1.0]]
    spread = max(c_mu1) - min(c_mu1)
    clauses = {
        "A=B (<=1e-12)": ab_gap <= 1e-12,
        "C>=A (>=-1e-12)": c_minus_a >= -1e-12,
        "C(mu=1)>=C(mu=0) (>=-1e-12)": memory_gain >= -1e-12,
        "spread over p at mu=1 > 1e-6": spread > 1e-6,
    }
    details = "; ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in clauses.items())
    measured = (
        f"|A-B|={ab_gap:.2e}, min(C-A)={c_minus_a:.2e}, "
        f"min(C1-C0)={memory_gain:.2e}, spread={spread:.2e}"
    )
    return CheckResult(
        "p_sweep_qualitative", all(clauses.values()), measured, "see clauses", details
    )


def check_mu_sweep_monotonicity() -> CheckResult:
    """Payoffs non-decreasing in mu at p=0.3 and p=0.7 under the sweep profile."""
    grid = analysis.grid_points(0.0, 1.0, 21)
    worst = math.inf
    for p in (0.3, 0.7):
        base = presets.entangled_config(p, 0.0, presets.SWEEP_PROFILE)
        rows = analysis.sweep(base, "mu", grid)
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            worst = min(worst, min(b - a for a, b in zip(vals, vals[1:])))
    return CheckResult(
        "mu_sweep_monotonicity",
        worst >= -1e-12,
        f"min successive difference = {worst:.3e}",
        ">= -1e-12",
    )


def check_surface_argmax_invariance() -> CheckResult:
    """(alpha1, theta1) = (pi/2, pi/2) attains the 41x41 grid maximum.

    The maximum is attained on an exact ridge (the whole alpha1 = +-pi/2
    line ties it), so the claim is checked as membership of the claimed
    point in the maximising set, at every (p, mu) in {0, 0.3, 0.7, 1}^2.
    """
    alphas = analysis.grid_points(-math.pi, math.pi, 41)
    thetas = analysis.grid_points(0.0, math.pi, 41)
    claimed = tuple(int(np.abs(np.subtract(axis, HALF_PI)).argmin()) for axis in (alphas, thetas))
    levels = (0.0, 0.3, 0.7, 1.0)
    failures = []
    argmaxes = set()
    for p in levels:
        for mu in levels:
            base = presets.entangled_config(p, mu, presets.SURFACE_PROFILE)
            values = analysis.strategy_surface(base, alphas, thetas)
            # Transposed, so ties go to the smallest theta1, then the smallest alpha1.
            flat, best = analysis.first_max(values.T)
            if best - values[claimed] > analysis.TIE_TOL:
                failures.append((p, mu))
            j, i = np.unravel_index(flat, values.T.shape)
            argmaxes.add((round(float(alphas[i]), 12), round(float(thetas[j]), 12)))
    passed = not failures
    measured = f"claimed point maximal at {16 - len(failures)}/16 (p,mu) combos"
    details = (
        f"tie-broken argmax location(s): {sorted(argmaxes)}"
        if passed
        else f"not maximal at {failures}"
    )
    return CheckResult(
        "surface_argmax_invariance", passed, measured, "max within 1e-12", details
    )


def check_classical_nash() -> CheckResult:
    """(D,D,D) is an equilibrium of the classical limit; (C,C,C) is not."""
    ddd = analysis.nash_check(presets.classical_config((DEFECT,) * 3), resolution=9)
    ccc = analysis.nash_check(presets.classical_config((COOPERATE,) * 3), resolution=9)
    expected_gain = 5.0 - 3.0
    gain_err = max(abs(g - expected_gain) for g in ccc.gains)
    passed = ddd.is_equilibrium and not ccc.is_equilibrium and gain_err <= 1e-12
    measured = (
        f"all-D gains {tuple(f'{g:.1e}' for g in ddd.gains)}, "
        f"all-C deviation gain {ccc.gains[0]:.6f}"
    )
    return CheckResult(
        "classical_nash", passed, measured, "gain tol 1e-9; C-deviation = 2 exactly"
    )


def check_closed_form(report_path: Path | None) -> CheckResult:
    """Closed form matches the pipeline at the four analytic anchors.

    Also evaluates the sweep profile at p = mu = 0.5 and persists the full
    discrepancy report; agreement there is reported, not asserted.
    """
    off = ChannelParams(0.0, 0.0)
    anchors = [
        presets.classical_config((COOPERATE,) * 3),
        presets.classical_config((DEFECT,) * 3),
        GameConfig(HALF_PI, HALF_PI, off, off, (COOPERATE,) * 3),
        GameConfig(HALF_PI, HALF_PI, off, off, (DEFECT,) * 3),
    ]
    worst = max(
        closed_form_payoffs(cfg, pipeline_payoffs(cfg)).max_abs_discrepancy for cfg in anchors
    )
    half = presets.entangled_config(0.5, 0.5, presets.SWEEP_PROFILE)
    report = closed_form_payoffs(half, pipeline_payoffs(half))
    persisted = "not persisted"
    if report_path is not None:
        report_path = Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        payload = report.as_dict()
        payload["config"] = "sweep profile, gamma=delta=pi/2, p=mu=0.5"
        report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        persisted = f"report written to {report_path}"
    return CheckResult(
        "closed_form_agreement",
        worst <= 1e-9,
        f"max anchor discrepancy = {worst:.3e}",
        "1e-9",
        f"p=mu=0.5 sweep-profile discrepancy {report.max_abs_discrepancy:.3e} ({persisted})",
    )


def check_projector_soundness() -> CheckResult:
    """Completeness and orthogonality of the measurement basis at 11 deltas."""
    worst = 0.0
    for delta in np.linspace(0.0, HALF_PI, 11):
        projs = measurement_projectors(float(delta))
        worst = max(worst, max_abs(sum(projs) - np.eye(8)))
        for a in range(8):
            for b in range(8):
                if a != b:
                    worst = max(worst, max_abs(projs[a] @ projs[b]))
    return CheckResult(
        "projector_soundness",
        worst <= 1e-12,
        f"max defect = {worst:.3e}",
        "1e-12",
        f"basis reading: {BASIS_READING}",
    )


def run_all(seed: int = 0, report_path: Path | None = None) -> list[CheckResult]:
    """Run every acceptance check in order; an unwritable ``report_path`` fails before any."""
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        open(report_path, "a", encoding="utf-8").close()
    return [
        check_classical_limit(),
        check_entangled_anchors(),
        check_channel_soundness(seed),
        check_coherence_factor_limits(),
        check_p_sweep_qualitative(),
        check_mu_sweep_monotonicity(),
        check_surface_argmax_invariance(),
        check_classical_nash(),
        check_closed_form(report_path),
        check_projector_soundness(),
    ]
