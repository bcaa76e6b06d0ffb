"""Acceptance suite: one test per verification criterion.

Each test runs the corresponding check from :mod:`qpd3.verify` at its stated
tolerance and prints its pass/fail line.  The checks are implemented exactly
as specified; `test_05_p_sweep_qualitative` fails because the canned sweep
profile provably yields payoff curves that are constant in the decoherence
parameter (every phase-sensitive term cancels when Charlie's two phase
angles are both pi/2), so the required non-constancy cannot be observed.
That failure is a finding, not a bug; see the check's docstring.
"""

import json
import random

import numpy as np
import pytest

from qpd3 import analysis, game, presets, verify
from qpd3.channel import ChannelParams
from qpd3.game import OUTCOMES


def sweep_coefficients():
    """The sweep profile's noise coefficients, as :func:`qpd3.verify.run_all` passes them."""
    return analysis.noise_coefficients(presets.entangled_config(0.0, 0.0, presets.SWEEP_PROFILE))


def _run(result):
    print(result.line())
    assert result.passed, result.line()
    return result


def test_01_classical_limit_exact():
    _run(verify.check_classical_limit())


def test_02_entangled_anchors():
    _run(verify.check_entangled_anchors())


def test_03_channel_soundness():
    _run(verify.check_channel_soundness(seed=0))


def test_04_coherence_factor_limits():
    _run(verify.check_coherence_factor_limits())


def test_05_p_sweep_qualitative():
    _run(verify.check_p_sweep_qualitative(sweep_coefficients()))


def test_06_mu_sweep_monotonicity():
    _run(verify.check_mu_sweep_monotonicity(sweep_coefficients()))


def test_07_surface_argmax_invariance():
    _run(verify.check_surface_argmax_invariance())


def test_08_classical_nash():
    _run(verify.check_classical_nash())


def test_classical_nash_runs_no_grid_search(monkeypatch):
    # the check is exact; a grid search brought back into it fails here
    def refused(*args, **kwargs):
        raise AssertionError("grid search called")

    monkeypatch.setattr(analysis, "best_response", refused)
    monkeypatch.setattr(analysis, "nash_check", refused)
    _run(verify.check_classical_nash())


def test_classical_nash_fails_where_deviating_from_all_d_pays(monkeypatch):
    # Alice cooperating against two defectors gets 2 instead of 1
    table = dict(zip(OUTCOMES, game.DEFAULT_TABLE.tolist()), **{"011": (2, 4, 4)})
    monkeypatch.setattr(game, "DEFAULT_TABLE", game.payoff_table(table))
    res = verify.check_classical_nash()
    print(res.line())
    assert not res.passed
    assert res.line().startswith("FAIL  classical_nash: measured all-D gains ('1.0e+00', ")


def test_09_closed_form_agreement(tmp_path):
    report = tmp_path / "closed_form_discrepancy.json"
    _run(verify.check_closed_form(report))
    assert report.exists()
    payload = json.loads(report.read_text())
    assert payload["basis_reading"]
    assert "max_abs_discrepancy" in payload


def test_10_projector_soundness():
    res = _run(verify.check_projector_soundness())
    assert "uniform-plus-i" in res.details


def test_channel_soundness_holds_for_other_seeds():
    for seed in (7, 1234):
        res = verify.check_channel_soundness(seed=seed)
        print(res.line())
        assert res.passed


def test_random_draws_are_seeded_valid_states():
    params, rho = verify._random_draws(random.Random(7), 20)
    again, rho_again = verify._random_draws(random.Random(7), 20)
    other, rho_other = verify._random_draws(random.Random(8), 20)
    assert np.array_equal(params.p, again.p) and np.array_equal(params.mu, again.mu)
    assert np.array_equal(rho, rho_again)
    assert not np.any(params.p == other.p) and not np.any(np.all(rho == rho_other, axis=(1, 2)))
    assert params.p.shape == params.mu.shape == (20,) and rho.shape == (20, 8, 8)
    for x in (params.p, params.mu):
        assert np.all((0.0 <= x) & (x < 1.0))
    assert np.abs(rho - rho.conj().swapaxes(1, 2)).max() <= 1e-15
    np.testing.assert_allclose(np.trace(rho, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-14)
    assert min(np.linalg.eigvalsh(state).min() for state in rho) >= -1e-14


def test_random_draws_follow_their_distributions(monkeypatch):
    # the normals are the complex vectors before normalising, the weights einsum's first operand
    seen = {}
    norm, einsum = np.linalg.norm, np.einsum

    def norm_spy(x, *args, **kwargs):
        seen["normals"] = np.concatenate((x.real, x.imag), axis=-1)
        return norm(x, *args, **kwargs)

    def einsum_spy(subscripts, weights, *operands):
        seen["weights"] = weights
        return einsum(subscripts, weights, *operands)

    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    monkeypatch.setattr(np, "einsum", einsum_spy)
    rng, twin = random.Random(3), random.Random(3)
    params, _ = verify._random_draws(rng, 2000)
    monkeypatch.undo()
    twin.randbytes(8 * 53 * 2000)  # the draws took one randbytes call, 53 uniforms a state
    assert rng.getstate() == twin.getstate()
    normals, weights = seen["normals"], seen["weights"]
    assert normals.shape == (2000, 3, 16) and weights.shape == (2000, 3)
    assert abs(normals.mean()) <= 0.05 and abs(normals.var() - 1.0) <= 0.05
    for part in (normals[..., :8], normals[..., 8:]):  # real and imaginary parts alike
        assert abs(part.mean()) <= 0.05 and abs(part.var() - 1.0) <= 0.05
    assert abs(np.corrcoef(normals[..., :8].ravel(), normals[..., 8:].ravel())[0, 1]) <= 0.05
    assert np.all(weights > 0.0)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.abs(weights.mean(axis=0) - 1 / 3).max() <= 0.02  # Dirichlet(1, 1, 1)
    for x in (params.p, params.mu):
        assert np.all((0.0 <= x) & (x < 1.0)) and abs(x.mean() - 0.5) <= 0.05


def test_channel_soundness_counts_each_invalid_state(monkeypatch):
    # one state of trace 2 (still Hermitian and positive) in each batch of 20
    original = verify._random_draws

    def doubled(rng, count):
        params, rho = original(rng, count)
        rho[3] *= 2
        return params, rho

    monkeypatch.setattr(verify, "_random_draws", doubled)
    res = verify.check_channel_soundness(seed=0)
    print(res.line())
    assert not res.passed
    assert "M o rho a valid state in 95/100 random states" in res.details


def test_surface_argmax_invariance_fails_where_the_claimed_point_loses(monkeypatch):
    # Alice's form at one (p, mu) less Q_c = eps v v†, v = vec(u) at the claimed
    # (alpha1, theta1) = (pi/2, pi/2): that point loses 4 eps (|v|^2 = 2), while the
    # ridge's other points, orthogonal to v, keep the maximum.  The point is told by
    # its form, which differs from the other 15 points' forms by far more than 1e-12.
    original = analysis.exact_best_response
    claimed = (np.pi / 2, np.pi / 2, 0.0)
    v = game.strategy_unitary(*claimed).reshape(4)
    profile = np.vstack([claimed, presets.SURFACE_PROFILE[1:]])
    at_point = game.deviation_form(presets.entangled_config(0.3, 0.7, profile), 0)

    def lowered(form, move):
        if np.allclose(form, at_point, rtol=0, atol=1e-12):
            form = form - 1e-6 * np.outer(v, v.conj())
        return original(form, move)

    monkeypatch.setattr(analysis, "exact_best_response", lowered)
    res = verify.check_surface_argmax_invariance()
    print(res.line())
    assert not res.passed
    assert "maximal at 15/16" in res.measured
    assert "not maximal at [(0.3, 0.7)]" in res.details


def test_surface_argmax_invariance_fails_on_a_lift_off_the_surface_plane(monkeypatch):
    # Alice's form plus eps w w†, w = vec([[0, 1], [-1, 0]]): w† vec(u) = 2 Re b, which
    # vanishes on her beta1 = 0 plane, so only a search over all of SU(2) sees the lift
    original = analysis.exact_best_response
    w = np.array([0.0, 1.0, -1.0, 0.0])
    lift = 1e-6 * np.outer(w, w)
    t, a = np.meshgrid(np.linspace(0.0, np.pi, 41), np.linspace(-np.pi, np.pi, 41))
    assert np.abs(analysis.deviation_payoffs(lift, t, a, 0.0)).max() <= 1e-20
    monkeypatch.setattr(analysis, "exact_best_response",
                        lambda form, move: original(form + lift, move))
    res = verify.check_surface_argmax_invariance()
    print(res.line())
    assert not res.passed
    # at p = 1 the ridge holds the lifted direction, so the maximum rises with eps there
    assert "maximal at 12/16" in res.measured
    assert "not maximal at [(1.0, 0.0), (1.0, 0.3), (1.0, 0.7), (1.0, 1.0)]" in res.details


def test_surface_argmax_invariance_builds_four_forms(monkeypatch):
    # the four noise corners' forms serve all 16 (p, mu): one config and its four
    # corners are all the check builds
    original, calls = analysis.deviation_form, []
    post_init, configs = game.GameConfig.__post_init__, []

    def counted(cfg, idx):
        calls.append(idx)
        return original(cfg, idx)

    def counted_config(cfg):
        configs.append(cfg)
        post_init(cfg)

    monkeypatch.setattr(analysis, "deviation_form", counted)
    monkeypatch.setattr(game.GameConfig, "__post_init__", counted_config)
    _run(verify.check_surface_argmax_invariance())
    assert calls == [0] * 4
    assert len(configs) == 5


def test_mu_sweep_monotonicity_fails_on_a_negative_slope_coefficient(monkeypatch):
    # Bob's b lowered: his slope coefficient b + c + 2 d m turns negative
    coefficients = sweep_coefficients()
    coefficients[1, 1] -= 1e-6
    res = verify.check_mu_sweep_monotonicity(coefficients)
    print(res.line())
    assert not res.passed
    assert "min slope coefficient b + c + 2 d m = -1.000e-06" in res.measured


def test_surface_and_memory_checks_run_no_grid(monkeypatch):
    # the checks are exact; a surface or a sweep brought back into them fails here
    def refused(*args, **kwargs):
        raise AssertionError("grid evaluation called")

    monkeypatch.setattr(analysis, "strategy_surface", refused)
    monkeypatch.setattr(analysis, "sweep", refused)
    _run(verify.check_surface_argmax_invariance())
    _run(verify.check_mu_sweep_monotonicity(sweep_coefficients()))
    # the p sweep's curves come from the noise coefficients; it fails by design, on one clause
    res = verify.check_p_sweep_qualitative(sweep_coefficients())
    assert not res.passed and res.details.count("FAILED") == 1
    assert res.details.endswith("spread over p at mu=1 > 1e-6: FAILED")


GRID = np.linspace(0.0, 1.0, 21)

#: Where one mask entry is made wrong, as a condition on a batch's (p, mu):
#: off the 21x21 grid (so only the random states see it) or at the grid
#: point (0.5, 0.5) (so only the grid does).  The first point that meets it
#: is the only one mutated.
WRONG_AT = {
    "off-grid": lambda p, mu: ~np.isin(p, GRID),
    "one-grid-point": lambda p, mu: (p == 0.5) & (mu == 0.5),
}


@pytest.mark.parametrize("where", sorted(WRONG_AT))
def test_channel_soundness_fails_on_a_wrong_mask(monkeypatch, where):
    # one off-diagonal entry moved, the diagonal (trace preservation) kept at 1
    original = verify.dephasing_mask
    mutated_at = []

    def mutated(params):
        mask = original(params)
        hit = np.broadcast_to(WRONG_AT[where](params.p, params.mu), mask.shape[:-2])
        if hit.any() and not mutated_at:
            mutated_at.append(tuple(np.argwhere(hit)[0]))
            mask = mask.copy()
            mask[mutated_at[0] + (0, 7)] += 1e-3
        return mask

    monkeypatch.setattr(verify, "dephasing_mask", mutated)
    res = verify.check_channel_soundness(seed=0)
    print(res.line())
    assert len(mutated_at) == 1
    assert not res.passed


def test_channel_soundness_fails_on_a_wrong_coherence_factor(monkeypatch):
    # the fast kernel's factor off the mask's anti-diagonal at one grid point
    original = verify.mu_p_factor
    mutated_entries = []

    def mutated(params):
        hit = (params.p == 0.5) & (params.mu == 0.5)
        mutated_entries.append(np.count_nonzero(hit))
        return original(params) + np.where(hit, 1e-9, 0.0)

    monkeypatch.setattr(verify, "mu_p_factor", mutated)
    res = verify.check_channel_soundness(seed=0)
    print(res.line())
    assert sum(mutated_entries) == 1
    assert not res.passed


def test_channel_soundness_holds_for_rephased_kraus_operators(monkeypatch):
    # e^{i phi_k} A_k define the same channel; only a Gram matrix and a Kraus
    # sum that conjugate the second factor see that
    original = verify.correlated_triple
    phases = np.exp(1j * np.arange(1.0, 9.0))[:, None, None]
    monkeypatch.setattr(verify, "correlated_triple", lambda params: original(params) * phases)
    _run(verify.check_channel_soundness(seed=0))


def test_run_all_computes_the_sweep_coefficients_once(monkeypatch, tmp_path):
    # the p sweep and the memory check share one (4, 3) array
    original, calls = analysis.noise_coefficients, []

    def counted(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(analysis, "noise_coefficients", counted)
    results = verify.run_all(0, tmp_path / "report.json")
    assert len(calls) == 1
    assert [r.name for r in results][4:6] == ["p_sweep_qualitative", "mu_sweep_monotonicity"]
