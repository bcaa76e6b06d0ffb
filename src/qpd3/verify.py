"""The built-in verification suite: one check per acceptance criterion.

Each check returns a :class:`CheckResult`; :func:`run_all` runs them in order, with the
sweep profile's noise coefficients computed once for the two sweep checks.  The equilibrium
and surface checks are exact over all of SU(2).  The suite is deterministic apart from the
seeded random states used by the channel soundness check.  Checks report what they measure;
none of them is weakened to force a pass, so a failing check is a finding about the model,
not necessarily a bug (see the surrounding docstrings).
"""

from __future__ import annotations

import json
import random
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
    mu_p_factor,
)
from .game import (
    BASIS_READING,
    COOPERATE,
    DEFECT,
    closed_form_payoffs,
    deviation_form,
    measurement_projectors,
    pipeline_payoffs,
)
from .linalg import BITS, max_abs, state_defects
from .presets import HALF_PI


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


def _random_draws(rng: random.Random, count: int) -> tuple[ChannelParams, np.ndarray]:
    """``count`` random (p, mu) and Dirichlet(1, 1, 1) mixtures of 3 pure states.

    One ``rng.randbytes`` call gives each state 53 uniforms on [0, 1) of 53 bits: p, mu, three
    exponentials -log1p(-u) for the weights, and 24 Box-Muller pairs, 24 complex normals.
    """
    u = (np.frombuffer(rng.randbytes(8 * 53 * count), "<u8") >> 11).reshape(count, 53) * 2.0**-53
    weights = -np.log1p(-u[:, 2:5])
    radius, phase = np.sqrt(-2.0 * np.log1p(-u[:, 5:29])), np.exp(2j * np.pi * u[:, 29:])
    vecs = (radius * phase).reshape(count, 3, 8)
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    rho = np.einsum("nk,nki,nkj->nij", weights / weights.sum(-1, keepdims=True), vecs, vecs.conj())
    return ChannelParams(u[:, 0], u[:, 1]), rho


def check_classical_limit() -> CheckResult:
    """All 8 pure classical profiles reproduce the payoff table exactly."""
    worst = 0.0
    for x, bits in enumerate(BITS):
        cfg = presets.classical_config(bits[:, None] * DEFECT)
        got = pipeline_payoffs(cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, cfg.payoffs[x])))
    return CheckResult("classical_limit_exact", worst <= 1e-12,
                       f"max |payoff err| = {worst:.3e}", "1e-12")


def check_entangled_anchors() -> CheckResult:
    """Maximally entangled noiseless all-C -> (3,3,3) and all-D -> (1,1,1)."""
    worst = 0.0
    for strat, want in (((COOPERATE,) * 3, (3.0, 3.0, 3.0)), ((DEFECT,) * 3, (1.0, 1.0, 1.0))):
        cfg = presets.entangled_config(0.0, 0.0, strat)
        got = pipeline_payoffs(cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    return CheckResult("entangled_anchors", worst <= 1e-12,
                       f"max |payoff err| = {worst:.3e}", "1e-12")


def check_channel_soundness(seed: int) -> CheckResult:
    """The mask the evaluations run against the Kraus operators defining the channel.

    Complete, diagonal operators whose diagonals d have Gram d.T @ d.conj() = M
    make the channel exactly M o rho; the fast kernel needs M[x, 7 - x] = mu_p_factor: both
    checked on a 21x21 (p, mu) grid, the masks in one call, the Kraus stacks one p row at a
    time.  On 100 random (p, mu, rho) from random.Random(seed), in batches of 20, each M o rho
    must be a valid state equal to the Kraus sum, whose largest defect the details give apart
    from the grid's.
    """
    grid = np.linspace(0.0, 1.0, 21)
    params = ChannelParams(grid[:, None], grid)
    masks = dephasing_mask(params)
    grid_worst = max_abs(np.flip(masks, -1).diagonal(0, -2, -1) - mu_p_factor(params)[..., None])
    off_diagonal = ~np.eye(8, dtype=bool)
    for p, mask in zip(grid, masks):
        ops = correlated_triple(ChannelParams(p, grid))
        diag = np.diagonal(ops, axis1=-2, axis2=-1)
        grid_worst = max(grid_worst, max_abs(completeness_defect(ops)),
                         max_abs(ops[..., off_diagonal]),
                         max_abs(diag.swapaxes(-1, -2) @ diag.conj() - mask))
    rng, valid, random_worst = random.Random(seed), 0, 0.0
    # five batches of 20 states keep the (20, 8, 8, 8) Kraus stacks small
    for _ in range(5):
        params, rho = _random_draws(rng, 20)
        out = dephasing_mask(params) * rho
        valid += int(np.all(state_defects(out)[1], axis=0).sum())
        random_worst = max(random_worst, max_abs(out - kraus_sum(correlated_triple(params), rho)))
    worst = max(grid_worst, random_worst)
    return CheckResult(
        "channel_trace_preservation", worst <= 1e-12 and valid == 100,
        f"max defect = {worst:.3e}", "1e-12",
        "completeness, diagonality, Gram = mask and anti-diagonal = mu_p over 21x21 grid; "
        f"M o rho a valid state in {valid}/100 random states, equal to the Kraus sum "
        f"to {random_worst:.3e}")


def check_coherence_factor_limits() -> CheckResult:
    """mu_p limits: 1 at p=0; (1-p)^3 at mu=0; (1-p) at mu=1."""
    grid = np.linspace(0.0, 1.0, 21)
    worst = max(
        max_abs(mu_p_factor(ChannelParams(0.0, grid)) - 1.0),
        max_abs(mu_p_factor(ChannelParams(grid, 0.0)) - (1.0 - grid) ** 3),
        max_abs(mu_p_factor(ChannelParams(grid, 1.0)) - (1.0 - grid)),
    )
    return CheckResult("coherence_factor_limits", worst <= 1e-12,
                       f"max |err| = {worst:.3e}", "1e-12")


def check_p_sweep_qualitative(coefficients: np.ndarray) -> CheckResult:
    """Decoherence sweep under the canned sweep profile.

    Asserts: payoff_C >= payoff_A = payoff_B at every p for mu in {0, 1};
    payoff_C at mu=1 dominates mu=0 pointwise; and the mu=1 curve is
    non-constant in p (max-min spread over p above 1e-6).  The curves are
    a + b m + c m + d m m on 21 points of p, with m = mu_p_factor(p, mu) in both
    passages and a, b, c, d the sweep profile's ``coefficients``
    (:func:`~qpd3.analysis.noise_coefficients`, computed once by :func:`run_all`).

    The last clause fails by construction: with Charlie's strategy at
    alpha3 = beta3 = pi/2 every phase-sensitive term in the payoff hits
    cos(+-pi) simultaneously and cancels, leaving the payoff exactly 21/8 for
    every p and mu.  The spread is reported as measured.
    """
    a, b, c, d = coefficients
    m = mu_p_factor(ChannelParams(np.linspace(0.0, 1.0, 21), np.array([[0.0], [1.0]])))[..., None]
    alice, bob, charlie = (a + b * m + c * m + d * m * m).T  # each indexed [p, mu]
    ab_gap = float(np.abs(alice - bob).max())
    c_minus_a = float((charlie - alice).min())
    memory_gain = float((charlie[:, 1] - charlie[:, 0]).min())
    spread = float(np.ptp(charlie[:, 1]))
    clauses = {
        "A=B (<=1e-12)": ab_gap <= 1e-12,
        "C>=A (>=-1e-12)": c_minus_a >= -1e-12,
        "C(mu=1)>=C(mu=0) (>=-1e-12)": memory_gain >= -1e-12,
        "spread over p at mu=1 > 1e-6": spread > 1e-6,
    }
    details = "; ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in clauses.items())
    measured = (f"|A-B|={ab_gap:.2e}, min(C-A)={c_minus_a:.2e}, "
                f"min(C1-C0)={memory_gain:.2e}, spread={spread:.2e}")
    return CheckResult("p_sweep_qualitative", all(clauses.values()), measured, "see clauses",
                       details)


def check_mu_sweep_monotonicity(coefficients: np.ndarray) -> CheckResult:
    """Payoffs non-decreasing in mu at p=0.3 and p=0.7 under the sweep profile, exactly.

    With both passages at m = mu_p_factor(p, mu), a payoff is a + (b + c) m + d m^2 (the
    sweep profile's ``coefficients``), so its mu slope is (b + c + 2 d m) dm/dmu with
    dm/dmu >= 0.  The coefficient is linear in m, so its values at m(p, 0) and m(p, 1)
    certify the claim over all of mu in [0, 1], and with it on any mu grid.
    """
    _, b, c, d = coefficients
    m = mu_p_factor(ChannelParams(np.array([[0.3], [0.7]]), np.array([0.0, 1.0])))
    worst = float((b + c + 2 * d * m[..., None]).min())
    return CheckResult("mu_sweep_monotonicity", worst >= -1e-12,
                       f"min slope coefficient b + c + 2 d m = {worst:.3e}", ">= -1e-12",
                       "exact over mu in [0, 1] at p = 0.3 and 0.7, from the noise coefficients")


def check_surface_argmax_invariance() -> CheckResult:
    """(alpha1, theta1) = (pi/2, pi/2) at beta1 = 0 is Alice's best response over all of SU(2).

    At each (p, mu) in {0, 0.3, 0.7, 1}^2 one 4x4 eigh gives her exact maximum
    (:func:`~qpd3.analysis.exact_best_response`), attained on a ridge that holds the claimed
    point: it must come within TIE_TOL.  SU(2) holds her beta1 = 0 plane, so that bounds the
    plane's maximum too and implies the claim on any grid of the surface.  Alice's form there
    is Q00 + m Q10 + m Q01 + m^2 Q11 with m = mu_p_factor(p, mu), from the four corner forms
    of :func:`~qpd3.analysis.noise_forms`, built once.
    """
    points = [(p, mu) for p in (0.0, 0.3, 0.7, 1.0) for mu in (0.0, 0.3, 0.7, 1.0)]
    claimed = np.vstack([(HALF_PI, HALF_PI, 0.0), presets.SURFACE_PROFILE[1:]])
    forms = analysis.noise_forms(presets.entangled_config(0.0, 0.0, claimed), 0)
    gains = {}
    for p, mu in points:
        m = mu_p_factor(ChannelParams(p, mu))
        form = np.tensordot((1.0, m, m, m * m), forms, 1)
        gains[p, mu] = analysis.exact_best_response(form, claimed[0])["exact_gain"]
    failures = [point for point, gain in gains.items() if gain > analysis.TIE_TOL]
    details = (f"not maximal at {failures}" if failures else
               "exact maximum over the (alpha1, theta1) plane at beta1 = 0 exceeds the "
               f"claimed point by at most {max(gains.values()):.3e}")
    return CheckResult("surface_argmax_invariance", not failures,
                       f"claimed point maximal at {16 - len(failures)}/16 (p,mu) combos",
                       "max within 1e-12", details)


def check_classical_nash() -> CheckResult:
    """(D,D,D) is an equilibrium of the classical limit; (C,C,C) is not.

    Exact over all of SU(2), by one 4x4 eigh per player
    (:func:`~qpd3.analysis.exact_best_response`): no deviation from all-D
    gains more than NASH_GAIN_TOL, and every player's best deviation from
    all-C gains 2.  That implies the same statement on any strategy grid.
    """
    def gains(move):
        cfg = presets.classical_config((move,) * 3)
        return [analysis.exact_best_response(deviation_form(cfg, idx), move)["exact_gain"]
                for idx in range(3)]

    ddd, ccc = gains(DEFECT), gains(COOPERATE)
    expected_gain = 5.0 - 3.0
    passed = (all(g <= analysis.NASH_GAIN_TOL for g in ddd)
              and all(abs(g - expected_gain) <= 1e-12 for g in ccc))
    measured = f"all-D gains {tuple(f'{g:.1e}' for g in ddd)}, all-C deviation gain {ccc[0]:.6f}"
    return CheckResult("classical_nash", passed, measured,
                       "gain tol 1e-9; C-deviation = 2 exactly")


def check_closed_form(report_path: Path) -> CheckResult:
    """Closed form matches the pipeline at the four analytic anchors.

    Also evaluates the sweep profile at p = mu = 0.5 and persists the full
    discrepancy report; agreement there is reported, not asserted.
    """
    anchors = [cfg for moves in ((COOPERATE,) * 3, (DEFECT,) * 3) for cfg in
               (presets.classical_config(moves), presets.entangled_config(0.0, 0.0, moves))]
    worst = max(
        closed_form_payoffs(cfg, pipeline_payoffs(cfg))["max_abs_discrepancy"] for cfg in anchors
    )
    half = presets.entangled_config(0.5, 0.5, presets.SWEEP_PROFILE)
    report = closed_form_payoffs(half, pipeline_payoffs(half))
    report["config"] = "sweep profile, gamma=delta=pi/2, p=mu=0.5"
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return CheckResult(
        "closed_form_agreement", worst <= 1e-9, f"max anchor discrepancy = {worst:.3e}", "1e-9",
        f"p=mu=0.5 sweep-profile discrepancy {report['max_abs_discrepancy']:.3e} "
        f"(report written to {report_path})")


def check_projector_soundness() -> CheckResult:
    """Completeness and orthogonality of the measurement basis at 11 deltas."""
    projs = np.stack([measurement_projectors(float(d)) for d in np.linspace(0.0, HALF_PI, 11)])
    # largest |P_a P_b| entry for every delta and pair (a, b); a != b must vanish
    products = np.abs(projs[:, :, None] @ projs[:, None, :]).max(axis=(-2, -1))
    worst = max(max_abs(projs.sum(axis=1) - np.eye(8)),
                max_abs(products[:, ~np.eye(8, dtype=bool)]))
    return CheckResult(
        "projector_soundness", worst <= 1e-12, f"max defect = {worst:.3e}", "1e-12",
        f"basis reading: {BASIS_READING}",
    )


def run_all(seed: int, report_path: Path) -> list[CheckResult]:
    """Run every acceptance check in order; ``report_path`` takes the closed-form report
    and is opened first, so an unwritable path or a missing directory fails before any check."""
    open(report_path, "a", encoding="utf-8").close()
    sweep = analysis.noise_coefficients(presets.entangled_config(0.0, 0.0, presets.SWEEP_PROFILE))
    return [
        check_classical_limit(),
        check_entangled_anchors(),
        check_channel_soundness(seed),
        check_coherence_factor_limits(),
        check_p_sweep_qualitative(sweep),
        check_mu_sweep_monotonicity(sweep),
        check_surface_argmax_invariance(),
        check_classical_nash(),
        check_closed_form(report_path),
        check_projector_soundness(),
    ]
