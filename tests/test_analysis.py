"""Tests for sweeps, surfaces, best responses and equilibrium checks."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qpd3 import presets
from qpd3.analysis import (
    best_response,
    deviation_payoffs,
    exact_best_response,
    first_max,
    grid_points,
    nash_check,
    noise_coefficients,
    noise_forms,
    strategy_surface,
    sweep,
)
from qpd3.channel import ChannelParams, mu_p_factor
from qpd3.game import COOPERATE, DEFECT, OUTCOMES, deviation_form, payoff_table, payoffs
from test_kernel import (oracle_payoffs, random_config, random_strategy, random_table,
                         with_deviation)

HPI = math.pi / 2


def sweep_config(p, mu):
    return presets.entangled_config(p, mu, presets.SWEEP_PROFILE)


def surface_config(p, mu):
    return presets.entangled_config(p, mu, presets.SURFACE_PROFILE)


def test_sweep_and_surface_argument_checks():
    base = sweep_config(0.0, 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        sweep(base, "p", ())
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(base, "p", (0.5, 0.2))
    with pytest.raises(ValueError, match="outside"):
        sweep(base, "p", (0.0, 1.2))
    with pytest.raises(ValueError, match="unknown sweep variable"):
        sweep(base, "q", (0.0, 1.0))
    for resolution in (0, -1):
        with pytest.raises(ValueError, match=rf"resolution must be >= 1, got {resolution}$"):
            strategy_surface(base, resolution)
    with pytest.raises(ValueError, match="the surface has 1002001 grid points, over the limit"):
        strategy_surface(base, 1001)
    alphas, thetas, values = strategy_surface(base, 1)
    assert (alphas, thetas) == ((-math.pi,), (0.0,))
    assert values.shape == (1, 1)
    alice = with_deviation(base.strategies, 0, (0.0, -math.pi, base.strategies[0, 2]))
    want = payoffs(dataclasses.replace(base, strategies=alice))[0]
    assert values[0, 0] == pytest.approx(want, abs=1e-12)


def test_grid_points_contract():
    assert grid_points(0, 1, 2) == (0.0, 1.0)
    assert len(grid_points(0, 1, 21)) == 21
    with pytest.raises(ValueError):
        grid_points(0, 1, 0)
    for start, stop in ((0.0, math.inf), (math.nan, 1.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match="finite width"):
            grid_points(start, stop, 3)


def test_sweep_grid_contract():
    rows = sweep(sweep_config(0.0, 0.0), "p", grid_points(0, 1, 2))
    assert [r[0] for r in rows] == [0.0, 1.0]


def test_sweep_quantum_player_dominates():
    grid = grid_points(0, 1, 21)
    for mu in (0.0, 1.0):
        rows = sweep(sweep_config(0.0, mu), "p", grid)
        assert len(rows) == 21
        for _, a, b, c in rows:
            assert a == pytest.approx(b, abs=1e-12)
            assert c >= a - 1e-12


def test_sweep_noiseless_point_is_memory_independent():
    grid = grid_points(0, 1, 5)
    rows0 = sweep(sweep_config(0.0, 0.0), "p", grid)
    rows1 = sweep(sweep_config(0.0, 1.0), "p", grid)
    assert rows0[0][1:] == pytest.approx(rows1[0][1:], abs=1e-12)


def test_sweep_memory_monotonicity():
    grid = grid_points(0, 1, 21)
    for p in (0.3, 0.7):
        rows = sweep(sweep_config(p, 0.0), "mu", grid)
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def test_sweep_determinism():
    args = (sweep_config(0.0, 0.5), "p", grid_points(0, 1, 7))
    assert sweep(*args) == sweep(*args)


def test_surface_grid_contract_and_order():
    cfg = surface_config(0.3, 0.3)
    alphas, thetas, values = strategy_surface(cfg, 3)
    assert alphas == grid_points(-math.pi, math.pi, 3)
    assert thetas == grid_points(0, math.pi, 3)
    assert values.shape == (3, 3)
    # entry [i, j] is Alice's payoff at (alphas[i], thetas[j])
    for i, a in enumerate(alphas):
        for j, t in enumerate(thetas):
            alice = with_deviation(cfg.strategies, 0, (t, a, cfg.strategies[0, 2]))
            want = payoffs(dataclasses.replace(cfg, strategies=alice))[0]
            assert values[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p,mu", [(0.3, 0.3), (0.7, 0.7)])
def test_surface_claimed_point_is_maximal(p, mu):
    alphas, thetas, values = strategy_surface(surface_config(p, mu), 41)
    i, j = 30, 20  # the grid points at alpha1 = theta1 = pi/2
    assert alphas[i] == pytest.approx(HPI, abs=1e-12) and thetas[j] == pytest.approx(HPI, abs=1e-12)
    assert values[i, j] >= values.max() - 1e-12


def test_surface_argmax_tiebreak_deterministic():
    alphas, thetas, values = strategy_surface(surface_config(0.3, 0.3), 9)
    flat, v = first_max(values.T)
    assert v == values.max()
    j, i = np.unravel_index(flat, values.T.shape)
    # smallest theta, then smallest alpha, among the tied maxima
    tied = [(t, a) for (ia, a) in enumerate(alphas) for (it, t) in enumerate(thetas)
            if values[ia, it] >= v - 1e-12]
    assert len(tied) > 1
    assert (thetas[j], alphas[i]) == min(tied)


def test_best_response_noiseless_claim_is_grid_optimal():
    claimed = with_deviation(presets.SURFACE_PROFILE, 0, (HPI, HPI, 0.0))
    cfg = presets.entangled_config(0.0, 0.0, claimed)
    res = best_response(cfg, 0, resolution=25)
    assert list(res) == ["player", "grid_resolution", "best", "best_payoff",
                         "payoff_at_claimed", "gain_over_claimed",
                         "exact_best", "exact_payoff", "exact_gain", "eigen_gap"]
    assert res["player"] == "alice"
    assert res["gain_over_claimed"] <= 1e-9
    assert res["best_payoff"] >= res["payoff_at_claimed"] - 1e-12
    assert res["gain_over_claimed"] == res["best_payoff"] - res["payoff_at_claimed"]


def test_best_response_claim_stays_optimal_under_noise():
    claimed = with_deviation(presets.SURFACE_PROFILE, 0, (HPI, HPI, 0.0))
    cfg = presets.entangled_config(0.7, 1.0, claimed)
    res = best_response(cfg, 0, resolution=25)
    assert res["gain_over_claimed"] <= 1e-9


def test_best_response_degenerate_grid():
    alice, _, charlie = presets.SURFACE_PROFILE
    cfg = presets.entangled_config(0.2, 0.8, (alice, COOPERATE, charlie))
    res = best_response(cfg, 1, resolution=3)
    axis_theta = grid_points(0, math.pi, 3)
    axis_angle = grid_points(-math.pi, math.pi, 3)
    theta, alpha, beta = res["best"]
    assert all(type(x) is float for x in res["best"])
    assert theta in axis_theta
    assert alpha in axis_angle
    assert beta in axis_angle
    assert res["grid_resolution"] == 3
    with pytest.raises(ValueError):
        best_response(cfg, 1, resolution=2)


def test_best_response_refinement_never_decreases():
    cfg = presets.entangled_config(0.4, 0.2, with_deviation(presets.SURFACE_PROFILE, 2, COOPERATE))
    coarse = best_response(cfg, 2, resolution=5)
    fine = best_response(cfg, 2, resolution=9)
    assert fine["best_payoff"] >= coarse["best_payoff"] - 1e-12


def test_classical_dominance_of_defection():
    # each player's D payoff beats their C payoff against every opponent
    # combination, per the table
    for player in range(3):
        for others in ((COOPERATE, COOPERATE), (COOPERATE, DEFECT),
                       (DEFECT, COOPERATE), (DEFECT, DEFECT)):
            profile = list(others)
            profile.insert(player, COOPERATE)
            res = best_response(presets.classical_config(profile), player, resolution=3)
            assert res["best"][0] == pytest.approx(math.pi)
            assert res["gain_over_claimed"] > 1.0 - 1e-12


def test_sweep_payoffs_non_increasing_in_p_without_memory():
    grid = grid_points(0, 1, 21)
    rows = sweep(sweep_config(0.0, 0.0), "p", grid)
    for col in (1, 2, 3):
        vals = [r[col] for r in rows]
        assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))


def test_nash_check_classical_limit():
    ddd = nash_check(presets.classical_config((DEFECT,) * 3), resolution=9)
    assert list(ddd) == ["is_equilibrium", "gains", "gain_tolerance", "best_responses",
                         "exact_gains"]
    assert ddd["is_equilibrium"] is True
    assert ddd["gain_tolerance"] == 1e-9
    assert all(g <= 1e-9 for g in ddd["gains"])
    assert ddd["best_responses"] == [[math.pi, -math.pi, -math.pi]] * 3

    assert ddd["exact_gains"] == [0.0] * 3

    ccc = nash_check(presets.classical_config((COOPERATE,) * 3), resolution=9)
    assert ccc["is_equilibrium"] is False
    assert all(g == pytest.approx(2.0, abs=1e-12) for g in ccc["gains"])
    assert all(g == pytest.approx(2.0, abs=1e-12) for g in ccc["exact_gains"])


def test_nash_check_reports_gains_for_quantum_profile():
    profile = ((HPI, HPI, 0.0),) * 3
    res = nash_check(presets.entangled_config(0.0, 0.0, profile), resolution=9)
    assert len(res["gains"]) == 3
    assert all(np.isfinite(res["gains"]))
    for idx in range(3):
        single = best_response(presets.entangled_config(0.0, 0.0, profile), idx, resolution=9)
        assert res["gains"][idx] == single["gain_over_claimed"]
        assert res["best_responses"][idx] == single["best"]
        assert res["exact_gains"][idx] == single["exact_gain"]


def generic_config(seed):
    """Generic gamma and delta, split passages and a random payoff table."""
    return dataclasses.replace(random_config(seed), payoffs=random_table(seed + 1000))


def exact(cfg, idx):
    """The exact best response of the player in slot ``idx`` to the others in ``cfg``."""
    return exact_best_response(deviation_form(cfg, idx), cfg.strategies[idx])


def test_exact_best_response_attains_its_payoff_in_the_oracle():
    for seed in range(60):
        cfg = generic_config(seed)
        at_claimed = payoffs(cfg)
        for idx in range(3):
            res = exact(cfg, idx)
            assert list(res) == ["exact_best", "exact_payoff", "exact_gain", "eigen_gap"]
            theta, alpha, beta = best = res["exact_best"]
            got = oracle_payoffs(cfg, with_deviation(cfg.strategies, idx, best))[idx]
            assert got == pytest.approx(res["exact_payoff"], abs=1e-12)
            assert res["exact_gain"] == pytest.approx(
                res["exact_payoff"] - at_claimed[idx], abs=1e-12)
            assert res["eigen_gap"] >= 0.0
            # of the two signs of the eigenvector, the one whose largest entry is positive
            a = np.exp(1j * alpha) * math.cos(theta / 2)
            b = 1j * np.exp(1j * beta) * math.sin(theta / 2)
            q = np.array([a.real, a.imag, b.real, b.imag])
            assert q[np.argmax(np.abs(q))] > 0.0


def test_exact_gain_bounds_the_grid_gain():
    # SU(2) contains every grid point
    for seed in range(12):
        cfg = generic_config(seed)
        for idx in range(3):
            res = best_response(cfg, idx, resolution=9)
            assert res["exact_gain"] >= res["gain_over_claimed"] - 1e-12
            assert res["exact_payoff"] >= res["best_payoff"] - 1e-12
            want = exact(cfg, idx)
            assert {key: res[key] for key in want} == want


@pytest.mark.parametrize("paid_bit,theta", [("0", 0.0), ("1", math.pi)])
def test_exact_best_response_takes_0_for_the_free_angle(paid_bit, theta):
    # each player is paid 1 for the move with this outcome bit (0 C, 1 D), else 0;
    # theta = 0 leaves beta free, theta = pi leaves alpha free
    table = payoff_table({label: [float(bit == paid_bit) for bit in label] for label in OUTCOMES})
    cfg = dataclasses.replace(presets.classical_config((COOPERATE,) * 3), payoffs=table)
    for idx in range(3):
        res = exact(cfg, idx)
        got_theta, alpha, beta = res["exact_best"]
        assert got_theta == theta
        free = beta if theta == 0.0 else alpha
        assert free == 0.0 and math.copysign(1.0, free) == 1.0
        assert res["exact_payoff"] == 1.0


@pytest.mark.parametrize("top", [(-1.0, 0.0, 0.0, 0.0), (1.0, -0.0, 0.0, 0.0)])
def test_exact_best_response_prints_no_negative_zero(monkeypatch, top):
    # a = 1 - 0j, from a -0.0 entry or from flipping the sign of a 0.0, has arg -0.0
    eigh = np.linalg.eigh

    def with_top(s):
        values, vectors = eigh(s)
        vectors[:, -1] = top
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", with_top)
    res = exact(presets.classical_config((COOPERATE,) * 3), 0)
    assert res["exact_best"] == [0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, x) == 1.0 for x in res["exact_best"])


def test_exact_eigen_gap_is_zero_on_classical_games():
    # the classical payoff sees only |a| and |b|, so each top eigenvalue is double
    for moves in itertools.product((COOPERATE, DEFECT), repeat=3):
        cfg = presets.classical_config(moves)
        for idx in range(3):
            res = exact(cfg, idx)
            assert res["eigen_gap"] == 0.0
            # defection dominates, so it is a best response
            defects = dataclasses.replace(cfg, strategies=with_deviation(moves, idx, DEFECT))
            assert res["exact_payoff"] == pytest.approx(payoffs(defects)[idx], abs=1e-12)


# ---------------------------------------------------------------------------
# Exact structure: the noise coefficients and the surface check's SU(2) maximum.

def test_noise_coefficients_match_the_oracle():
    # payoff = a + b m1 + c m2 + d m1 m2 at random passages, m = mu_p_factor
    rng = np.random.default_rng(5)
    for seed in range(12):
        cfg = generic_config(seed)
        a, b, c, d = noise_coefficients(cfg)
        for _ in range(3):
            one, two = ChannelParams(*rng.random(2)), ChannelParams(*rng.random(2))
            m1, m2 = mu_p_factor(one), mu_p_factor(two)
            moved = dataclasses.replace(cfg, passage1=one, passage2=two)
            np.testing.assert_allclose(a + b * m1 + c * m2 + d * m1 * m2,
                                       oracle_payoffs(moved, moved.strategies), rtol=0, atol=1e-12)


def test_noise_coefficients_keep_the_bits_of_four_payoff_calls():
    off, on = ChannelParams(1.0, 0.0), ChannelParams(0.0, 0.0)
    for cfg in [generic_config(seed) for seed in range(6)] + [sweep_config(0.3, 0.4)]:
        p00, p10, p01, p11 = (np.array(payoffs(dataclasses.replace(cfg, passage1=one, passage2=two)))
                              for one, two in ((off, off), (on, off), (off, on), (on, on)))
        want = np.array([p00, p10 - p00, p01 - p00, p11 - p10 - p01 + p00])
        got = noise_coefficients(cfg)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_noise_forms_give_the_deviation_form_on_both_passages():
    # deviation_form = Q00 + m1 Q10 + m2 Q01 + m1 m2 Q11 at random split passages, and the
    # combined form pays what the oracle does; m1 != m2 tells Q10 from Q01
    rng = np.random.default_rng(17)
    for seed in range(6):
        cfg = generic_config(seed)
        for idx in range(3):
            forms = noise_forms(cfg, idx)
            assert forms.shape == (4, 4, 4)
            one, two = ChannelParams(*rng.random(2)), ChannelParams(*rng.random(2))
            m1, m2 = mu_p_factor(one), mu_p_factor(two)
            moved = dataclasses.replace(cfg, passage1=one, passage2=two)
            form = np.tensordot((1.0, m1, m2, m1 * m2), forms, 1)
            np.testing.assert_allclose(form, deviation_form(moved, idx), rtol=0, atol=1e-12)
            move = random_strategy(rng)
            want = oracle_payoffs(moved, with_deviation(moved.strategies, idx, move))[idx]
            assert float(deviation_payoffs(form, *move)) == pytest.approx(want, abs=1e-12)


def test_noise_coefficients_b_and_c_vanish_at_full_entanglement():
    for seed in range(30):
        coefficients = noise_coefficients(
            dataclasses.replace(generic_config(seed), gamma=HPI, delta=HPI))
        assert coefficients.shape == (4, 3)
        assert np.abs(coefficients[1:3]).max() <= 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_su2_maximum_at_the_surface_checks_points(p, mu):
    # attained in the oracle, at least the 41x41 surface's maximum, and attained by the
    # claimed (alpha1, theta1) = (pi/2, pi/2)
    cfg = surface_config(p, mu)
    assert cfg.strategies[0, 2] == 0.0  # the surface scans Alice's plane at her beta
    res = exact(cfg, 0)
    got = oracle_payoffs(cfg, with_deviation(cfg.strategies, 0, res["exact_best"]))[0]
    assert got == pytest.approx(res["exact_payoff"], abs=1e-12)
    assert res["exact_payoff"] >= strategy_surface(cfg, 41)[2].max() - 1e-12
    claimed = with_deviation(cfg.strategies, 0, (HPI, HPI, 0.0))
    assert oracle_payoffs(cfg, claimed)[0] == pytest.approx(res["exact_payoff"], abs=1e-12)
