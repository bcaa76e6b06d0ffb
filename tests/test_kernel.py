"""Differential tests of the evaluation kernel: dephasing mask, coherence
kernel, per-player observables, the one-player quadratic form and the
best-response search built on it, against the Kraus-operator definition of
the channel and the loop-based reference in oracle.py."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracle
from qpd3 import analysis
from qpd3.analysis import (
    best_response,
    deviation_payoffs,
    first_max,
    grid_points,
    strategy_surface,
)
from qpd3.channel import ChannelParams, correlated_triple, dephasing_mask, kraus_sum
from qpd3.game import (
    OUTCOMES,
    GameConfig,
    _coherence_kernel,
    deviation_form,
    initial_state,
    measurement_projectors,
    payoff_table,
    payoffs,
    strategy_unitary,
)


def random_density(rng, dim):
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def random_strategy(rng):
    return (
        rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    )


def random_config(seed):
    """A generic game: gamma, delta below pi/2 and two different passages."""
    rng = np.random.default_rng(seed)
    gamma, delta = rng.uniform(0.1, 1.4, size=2)
    p1, mu1, p2, mu2 = rng.uniform(0.05, 0.95, size=4)
    strategies = tuple(random_strategy(rng) for _ in range(3))
    return GameConfig(
        float(gamma), float(delta), ChannelParams(p1, mu1), ChannelParams(p2, mu2), strategies
    )


def random_table(seed):
    """A payoff table with entries drawn from [0, 7.5]."""
    rng = np.random.default_rng(seed)
    return payoff_table({label: rng.uniform(0.0, 7.5, size=3).tolist() for label in OUTCOMES})


def oracle_payoffs(cfg, strategies):
    table = dict(zip(OUTCOMES, map(tuple, cfg.payoffs.tolist())))
    return oracle.payoffs(
        cfg.gamma, cfg.delta, cfg.passage1.p, cfg.passage1.mu, cfg.passage2.p, cfg.passage2.mu,
        np.asarray(strategies, dtype=float).tolist(), table,
    )


def with_deviation(strategies, idx, deviation):
    """``strategies`` as a new (3, 3) array with row ``idx`` replaced by ``deviation``."""
    profile = np.array(strategies, dtype=float)
    profile[idx] = deviation
    return profile


SEEDS = (11, 12, 13)


def test_mask_matches_kraus_sum():
    rng = np.random.default_rng(5)
    for p in np.linspace(0.0, 1.0, 11):
        for mu in np.linspace(0.0, 1.0, 11):
            params = ChannelParams(float(p), float(mu))
            rho = random_density(rng, 8)
            mask = dephasing_mask(params)
            np.testing.assert_array_equal(mask, mask.T)
            np.testing.assert_allclose(
                mask * rho, kraus_sum(correlated_triple(params), rho), rtol=0, atol=1e-15
            )


def test_coherence_kernel_equals_mask_on_states_and_projectors():
    # rho_in and every P_m live on the entries (x, x) and (x, 7 - x), where K = M
    rng = np.random.default_rng(7)
    for _ in range(50):
        gamma, delta = rng.uniform(0.0, math.pi / 2, size=2)
        params = ChannelParams(*rng.uniform(0.0, 1.0, size=2))
        mask, kernel = dephasing_mask(params), _coherence_kernel(params)
        rho = initial_state(float(gamma))
        projectors = measurement_projectors(float(delta))
        np.testing.assert_allclose(kernel * rho, mask * rho, rtol=0, atol=1e-15)
        np.testing.assert_allclose(kernel * projectors, mask * projectors, rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
def test_payoffs_match_oracle(seed):
    cfg = random_config(seed)
    got = payoffs(cfg)
    np.testing.assert_allclose(got, oracle_payoffs(cfg, cfg.strategies), rtol=0, atol=1e-12)


@pytest.mark.parametrize("table", ["default", "random"])
@pytest.mark.parametrize("seed", SEEDS)
def test_deviation_form_matches_oracle(seed, table):
    cfg = random_config(seed)
    if table == "random":
        cfg = dataclasses.replace(cfg, payoffs=random_table(seed + 200))
    rng = np.random.default_rng(seed + 100)
    for idx in range(3):
        deviation = random_strategy(rng)
        want = oracle_payoffs(cfg, with_deviation(cfg.strategies, idx, deviation))
        v = strategy_unitary(*deviation).reshape(4)
        form = deviation_form(cfg, idx)
        np.testing.assert_allclose(form, form.conj().T, rtol=0, atol=1e-15)
        got = (v.conj() @ form @ v).real
        assert got == pytest.approx(want[idx], abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_surface_rows_match_oracle(seed):
    cfg = random_config(seed)
    alphas, thetas, values = strategy_surface(cfg, 4)
    assert alphas == grid_points(-math.pi, math.pi, 4)
    assert thetas == grid_points(0.0, math.pi, 4)
    beta1 = cfg.strategies[0, 2]
    assert values.shape == (4, 4)
    for i, a in enumerate(alphas):
        for j, t in enumerate(thetas):
            want = oracle_payoffs(cfg, with_deviation(cfg.strategies, 0, (t, a, beta1)))
            assert values[i, j] == pytest.approx(want[0], abs=1e-12)


@pytest.mark.parametrize("table", ["default", "random"])
@pytest.mark.parametrize("seed", SEEDS)
def test_best_response_matches_full_evaluation_and_oracle(monkeypatch, seed, table):
    cfg = random_config(seed)
    if table == "random":
        cfg = dataclasses.replace(cfg, payoffs=random_table(seed + 200))
    searched = []

    def recording_first_max(values):
        searched.append(values)
        return first_max(values)

    monkeypatch.setattr(analysis, "first_max", recording_first_max)
    thetas = grid_points(0.0, math.pi, 5)
    angles = grid_points(-math.pi, math.pi, 5)
    for idx in range(3):
        res = best_response(cfg, idx, resolution=5)
        full = np.empty((5, 5, 5))
        for (i, t), (j, a), (k, b) in itertools.product(
                enumerate(thetas), enumerate(angles), enumerate(angles)):
            deviated = dataclasses.replace(
                cfg, strategies=with_deviation(cfg.strategies, idx, (t, a, b)))
            full[i, j, k] = payoffs(deviated)[idx]
        np.testing.assert_allclose(searched[-1], full, rtol=0, atol=1e-12)
        flat, best = first_max(full)
        i, j, k = np.unravel_index(flat, full.shape)
        assert res["best"] == [thetas[i], angles[j], angles[k]]
        assert res["best_payoff"] == pytest.approx(best, abs=1e-12)
        at_best = with_deviation(cfg.strategies, idx, res["best"])
        assert res["best_payoff"] == pytest.approx(oracle_payoffs(cfg, at_best)[idx], abs=1e-12)
        want = oracle_payoffs(cfg, cfg.strategies)[idx]
        assert res["payoff_at_claimed"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("resolution", [9, 25])
@pytest.mark.parametrize("seed", SEEDS)
def test_deviation_payoffs_per_point_equal_batched_bitwise(seed, resolution):
    # the search's loop can become one call on the meshgrid without moving an output bit
    cfg = random_config(seed)
    idx = seed % 3
    form = deviation_form(cfg, idx)
    thetas = np.linspace(0.0, math.pi, resolution)
    angles = np.linspace(-math.pi, math.pi, resolution)
    batched = deviation_payoffs(form, *np.meshgrid(thetas, angles, angles, indexing="ij"))
    per_point = np.empty_like(batched)
    for (i, t), (j, a), (k, b) in itertools.product(
            enumerate(thetas), enumerate(angles), enumerate(angles)):
        per_point[i, j, k] = deviation_payoffs(form, t, a, b)
    assert np.array_equal(per_point, batched)
