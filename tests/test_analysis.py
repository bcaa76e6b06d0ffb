"""Tests for sweeps, surfaces, best responses and equilibrium checks."""

import dataclasses
import math

import numpy as np
import pytest

from qpd3 import presets
from qpd3.analysis import (
    SweepSpec,
    best_response,
    grid_points,
    is_surface_maximizer,
    nash_check,
    player_index,
    strategy_surface,
    surface_argmax,
    sweep,
)
from qpd3.game import COOPERATE, DEFECT, StrategyParams

HPI = math.pi / 2


def test_player_index():
    assert player_index("alice") == 0
    assert player_index("Charlie") == 2
    assert player_index(1) == 1
    with pytest.raises(ValueError):
        player_index("dave")
    with pytest.raises(ValueError):
        player_index(3)


def test_sweep_spec_validation():
    base = presets.sweep_config(0.0, 0.0)
    with pytest.raises(ValueError):
        SweepSpec("p", (), base)
    with pytest.raises(ValueError):
        SweepSpec("p", (0.5, 0.2), base)
    with pytest.raises(ValueError):
        SweepSpec("p", (0.0, 1.2), base)
    with pytest.raises(ValueError):
        SweepSpec("q", (0.0, 1.0), base)
    with pytest.raises(ValueError):
        SweepSpec("alpha1_theta1_surface", ((0.0,),), base)


def test_grid_points_contract():
    assert grid_points(0, 1, 2) == (0.0, 1.0)
    assert len(grid_points(0, 1, 21)) == 21
    with pytest.raises(ValueError):
        grid_points(0, 1, 0)


def test_sweep_grid_contract():
    spec = SweepSpec("p", grid_points(0, 1, 2), presets.sweep_config(0.0, 0.0))
    rows = sweep(spec)
    assert [r[0] for r in rows] == [0.0, 1.0]


def test_sweep_quantum_player_dominates():
    grid = grid_points(0, 1, 21)
    for mu in (0.0, 1.0):
        rows = sweep(SweepSpec("p", grid, presets.sweep_config(0.0, mu)))
        assert len(rows) == 21
        for _, a, b, c in rows:
            assert a == pytest.approx(b, abs=1e-12)
            assert c >= a - 1e-12


def test_sweep_noiseless_point_is_memory_independent():
    grid = grid_points(0, 1, 5)
    rows0 = sweep(SweepSpec("p", grid, presets.sweep_config(0.0, 0.0)))
    rows1 = sweep(SweepSpec("p", grid, presets.sweep_config(0.0, 1.0)))
    assert rows0[0][1:] == pytest.approx(rows1[0][1:], abs=1e-12)


def test_sweep_memory_monotonicity():
    grid = grid_points(0, 1, 21)
    for p in (0.3, 0.7):
        rows = sweep(SweepSpec("mu", grid, presets.sweep_config(p, 0.0)))
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def test_sweep_determinism():
    spec = SweepSpec("p", grid_points(0, 1, 7), presets.sweep_config(0.0, 0.5))
    assert sweep(spec) == sweep(spec)


def test_surface_grid_contract_and_order():
    alphas = grid_points(-math.pi, math.pi, 2)
    thetas = grid_points(0, math.pi, 2)
    spec = SweepSpec("alpha1_theta1_surface", (alphas, thetas), presets.surface_config(0.3, 0.3))
    rows = strategy_surface(spec)
    assert len(rows) == 4
    # row-major: alpha outer, theta inner
    assert [(r[0], r[1]) for r in rows] == [
        (-math.pi, 0.0), (-math.pi, math.pi), (math.pi, 0.0), (math.pi, math.pi)
    ]


@pytest.mark.parametrize("p,mu", [(0.3, 0.3), (0.7, 0.7)])
def test_surface_claimed_point_is_maximal(p, mu):
    alphas = grid_points(-math.pi, math.pi, 41)
    thetas = grid_points(0, math.pi, 41)
    spec = SweepSpec("alpha1_theta1_surface", (alphas, thetas), presets.surface_config(p, mu))
    rows = strategy_surface(spec)
    assert is_surface_maximizer(rows, HPI, HPI)


def test_surface_argmax_tiebreak_deterministic():
    alphas = grid_points(-math.pi, math.pi, 9)
    thetas = grid_points(0, math.pi, 9)
    spec = SweepSpec("alpha1_theta1_surface", (alphas, thetas), presets.surface_config(0.3, 0.3))
    rows = strategy_surface(spec)
    a, t, v = surface_argmax(rows)
    assert v == pytest.approx(max(r[2] for r in rows))
    # smallest theta, then smallest alpha, among the tied maxima
    tied = [r for r in rows if r[2] >= v - 1e-12]
    assert (t, a) == min((r[1], r[0]) for r in tied)


def test_is_surface_maximizer_rejects_off_grid_points():
    alphas = grid_points(-math.pi, math.pi, 3)
    thetas = grid_points(0, math.pi, 3)
    spec = SweepSpec("alpha1_theta1_surface", (alphas, thetas), presets.surface_config(0.0, 0.0))
    rows = strategy_surface(spec)
    with pytest.raises(ValueError):
        is_surface_maximizer(rows, 0.123, 0.456)


def test_best_response_noiseless_claim_is_grid_optimal():
    cfg = presets.surface_config(0.0, 0.0)
    claimed = StrategyParams(HPI, HPI, 0.0)
    res = best_response(cfg, "alice", claimed, resolution=25)
    assert res.gain_over_claimed <= 1e-9
    assert res.best_payoff >= res.payoff_at_claimed - 1e-12


def test_best_response_claim_stays_optimal_under_noise():
    cfg = presets.surface_config(0.7, 1.0)
    claimed = StrategyParams(HPI, HPI, 0.0)
    res = best_response(cfg, "alice", claimed, resolution=25)
    assert res.gain_over_claimed <= 1e-9


def test_best_response_degenerate_grid():
    cfg = presets.surface_config(0.2, 0.8)
    res = best_response(cfg, "bob", COOPERATE, resolution=3)
    axis_theta = grid_points(0, math.pi, 3)
    axis_angle = grid_points(-math.pi, math.pi, 3)
    assert res.best.theta in axis_theta
    assert res.best.alpha in axis_angle
    assert res.best.beta in axis_angle
    assert res.grid_resolution == 3
    with pytest.raises(ValueError):
        best_response(cfg, "bob", COOPERATE, resolution=2)


def test_best_response_refinement_never_decreases():
    cfg = presets.surface_config(0.4, 0.2)
    coarse = best_response(cfg, "charlie", COOPERATE, resolution=5)
    fine = best_response(cfg, "charlie", COOPERATE, resolution=9)
    assert fine.best_payoff >= coarse.best_payoff - 1e-12


def test_classical_dominance_of_defection():
    # each player's D payoff beats their C payoff against every opponent
    # combination, per the table
    cfg = presets.classical_config((COOPERATE,) * 3)
    for player in range(3):
        for others in ((COOPERATE, COOPERATE), (COOPERATE, DEFECT),
                       (DEFECT, COOPERATE), (DEFECT, DEFECT)):
            profile = list(others)
            profile.insert(player, COOPERATE)
            base = dataclasses.replace(cfg, strategies=tuple(profile))
            res = best_response(base, player, COOPERATE, resolution=3)
            assert res.best.theta == pytest.approx(math.pi)
            assert res.gain_over_claimed > 1.0 - 1e-12


def test_sweep_payoffs_non_increasing_in_p_without_memory():
    grid = grid_points(0, 1, 21)
    rows = sweep(SweepSpec("p", grid, presets.sweep_config(0.0, 0.0)))
    for col in (1, 2, 3):
        vals = [r[col] for r in rows]
        assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))


def test_nash_check_classical_limit():
    cfg = presets.classical_config((COOPERATE,) * 3)
    ddd = nash_check(cfg, (DEFECT,) * 3, resolution=9)
    assert ddd.is_equilibrium
    assert all(g <= 1e-9 for g in ddd.gains)

    ccc = nash_check(cfg, (COOPERATE,) * 3, resolution=9)
    assert not ccc.is_equilibrium
    assert all(g == pytest.approx(2.0, abs=1e-12) for g in ccc.gains)


def test_nash_check_reports_gains_for_quantum_profile():
    cfg = presets.sweep_config(0.0, 0.0)
    profile = (StrategyParams(HPI, HPI, 0.0),) * 3
    res = nash_check(cfg, profile, resolution=9)
    assert len(res.gains) == 3
    assert all(np.isfinite(res.gains))
