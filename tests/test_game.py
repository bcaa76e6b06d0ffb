"""Tests for the game pipeline, closed form and payoff table."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from qpd3 import game
from qpd3.channel import ChannelParams
from qpd3.game import (
    COOPERATE,
    DEFECT,
    GameConfig,
    OUTCOMES,
    PayoffTable,
    StrategyParams,
    closed_form_payoffs,
    initial_state,
    measurement_projectors,
    mu_p_factor,
    outcome_probabilities,
    pipeline_payoffs,
    strategy_unitary,
)
from qpd3.linalg import max_abs

HPI = math.pi / 2

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
thetas = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategies_st = st.builds(StrategyParams, thetas, angles, angles)


def make_config(gamma=HPI, delta=HPI, p1=0.0, mu1=0.0, p2=None, mu2=None, strategies=None):
    p2 = p1 if p2 is None else p2
    mu2 = mu1 if mu2 is None else mu2
    return GameConfig(
        gamma, delta, ChannelParams(p1, mu1), ChannelParams(p2, mu2),
        strategies if strategies is not None else (COOPERATE,) * 3,
    )


# ---------------------------------------------------------------------------
# parameter validation

def test_strategy_params_ranges():
    with pytest.raises(ValueError):
        StrategyParams(-0.1, 0, 0)
    with pytest.raises(ValueError):
        StrategyParams(0.5, 3.5, 0)
    with pytest.raises(ValueError):
        StrategyParams(0.5, 0, -3.5)


def test_game_config_ranges():
    with pytest.raises(ValueError):
        make_config(gamma=2.0)
    with pytest.raises(ValueError):
        make_config(delta=-0.1)


def test_payoff_table_validation(tmp_path):
    with pytest.raises(ValueError):
        PayoffTable(entries={"000": (1, 2, 3)})
    table = PayoffTable()
    assert table.payoff("000") == (3, 3, 3)
    with pytest.raises(ValueError):
        table.payoff("xyz")

    path = tmp_path / "table.json"
    path.write_text(json.dumps({k: [0, 0, 0] for k in OUTCOMES}))
    loaded = PayoffTable.from_json(path)
    assert loaded.payoff("111") == (0, 0, 0)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"000": [1, 2, 3]}))
    with pytest.raises(ValueError):
        PayoffTable.from_json(bad)


# ---------------------------------------------------------------------------
# initial state

def test_initial_state_unentangled():
    rho = initial_state(0.0)
    want = np.zeros((8, 8), dtype=complex)
    want[0, 0] = 1.0
    np.testing.assert_allclose(rho, want, atol=1e-15)


def test_initial_state_maximally_entangled():
    rho = initial_state(HPI)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[7, 7] == pytest.approx(0.5)
    np.testing.assert_allclose(rho[0, 7], -0.5j, atol=1e-15)
    np.testing.assert_allclose(rho[7, 0], 0.5j, atol=1e-15)


def test_initial_state_normalized():
    for gamma in np.linspace(0, HPI, 11):
        assert np.trace(initial_state(float(gamma))).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        initial_state(2.0)


# ---------------------------------------------------------------------------
# strategy unitaries

def test_cooperate_is_identity():
    np.testing.assert_allclose(strategy_unitary(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)


def test_defect_is_i_sigma_x():
    np.testing.assert_allclose(
        strategy_unitary(math.pi, 0.0, 0.0), 1j * np.array([[0, 1], [1, 0]]), atol=1e-15
    )


@given(strategies_st)
@settings(max_examples=100)
def test_strategy_unitary_is_unitary(s):
    u = strategy_unitary(s.theta, s.alpha, s.beta)
    assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-12


# ---------------------------------------------------------------------------
# measurement projectors

def test_projectors_computational_at_delta_zero():
    projs = measurement_projectors(0.0)
    for m, p in enumerate(projs):
        want = np.zeros((8, 8), dtype=complex)
        want[m, m] = 1.0
        np.testing.assert_allclose(p, want, atol=1e-15)


@pytest.mark.parametrize("delta", np.linspace(0, HPI, 7))
def test_projectors_complete_and_orthogonal(delta):
    projs = measurement_projectors(float(delta))
    np.testing.assert_allclose(sum(projs), np.eye(8), atol=1e-12)
    for a in range(8):
        assert np.trace(projs[a]).real == pytest.approx(1.0, abs=1e-12)
        for b in range(8):
            if a != b:
                assert max_abs(projs[a] @ projs[b]) <= 1e-12


def test_projectors_range_check():
    with pytest.raises(ValueError):
        measurement_projectors(2.0)


# ---------------------------------------------------------------------------
# pipeline anchors and classical embedding

def test_entangled_noiseless_anchors():
    assert pipeline_payoffs(make_config(strategies=(COOPERATE,) * 3)) == pytest.approx(
        (3, 3, 3), abs=1e-12
    )
    assert pipeline_payoffs(make_config(strategies=(DEFECT,) * 3)) == pytest.approx(
        (1, 1, 1), abs=1e-12
    )


def test_classical_embedding_all_profiles():
    table = PayoffTable()
    for bits in itertools.product((0, 1), repeat=3):
        strategies = tuple(DEFECT if b else COOPERATE for b in bits)
        cfg = make_config(gamma=0.0, delta=0.0, strategies=strategies)
        got = pipeline_payoffs(cfg)
        want = table.payoff("".join(str(b) for b in bits))
        assert got == pytest.approx(want, abs=1e-12)


def test_outcome_probabilities_normalized_and_bounded():
    cfg = make_config(p1=0.4, mu1=0.7, strategies=(
        StrategyParams(1.1, 0.3, -0.2), StrategyParams(2.0, -1.0, 0.5),
        StrategyParams(0.4, 2.0, 1.0),
    ))
    probs = outcome_probabilities(cfg)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= -1e-12)


def test_validated_path_builds_no_observables(monkeypatch):
    def unused(self):
        raise AssertionError("the validated path read the payoff observables")

    monkeypatch.setattr(game.PreparedGame, "observables", property(unused))
    cfg = make_config(p1=0.4, mu1=0.7, p2=0.2, strategies=(COOPERATE, DEFECT, COOPERATE))
    assert outcome_probabilities(cfg).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# goldens, frozen from the independent reference implementation in oracle.py

GOLDENS = [
    # (gamma, delta, p1, mu1, p2, mu2, strategies, expected payoffs)
    (HPI, HPI, 0.4, 1.0, 0.4, 1.0,
     ((HPI, 0, 0), (HPI, 0, 0), (HPI, HPI, HPI)),
     (2.625, 2.625, 2.625)),
    (0.7, 1.1, 0.3, 0.6, 0.55, 0.2,
     ((1.1, 0.4, -0.9), (2.0, -1.3, 0.7), (0.35, 2.2, 1.9)),
     (2.76089674303097, 2.99676221949342, 2.4715278058496)),
    (HPI, HPI, 0.5, 0.5, 0.5, 0.5,
     ((HPI, HPI, 0), (HPI, 0, 0), (HPI, 0, 0)),
     (2.7694091796875, 2.4805908203125, 2.4805908203125)),
    (1.0, 0.8, 0.25, 0.9, 0.6, 0.1,
     ((2.4, 1.0, -2.0), (0.9, 0.3, 3.0), (1.7, -0.6, 0.5)),
     (3.06866594488632, 2.26734542955069, 2.83141087014141)),
]


@pytest.mark.parametrize("case", GOLDENS)
def test_pipeline_golden_values(case):
    gamma, delta, p1, mu1, p2, mu2, strategies, want = case
    cfg = make_config(gamma, delta, p1, mu1, p2, mu2,
                      tuple(StrategyParams(*s) for s in strategies))
    assert pipeline_payoffs(cfg) == pytest.approx(want, abs=1e-11)


@given(
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    unit, unit, unit, unit,
    strategies_st, strategies_st, strategies_st,
)
@settings(max_examples=25, deadline=None)
def test_pipeline_matches_oracle(gamma, delta, p1, mu1, p2, mu2, s1, s2, s3):
    cfg = make_config(gamma, delta, p1, mu1, p2, mu2, (s1, s2, s3))
    got = pipeline_payoffs(cfg)
    want = oracle.payoffs(
        gamma, delta, p1, mu1, p2, mu2,
        [(s.theta, s.alpha, s.beta) for s in (s1, s2, s3)],
    )
    assert got == pytest.approx(want, abs=1e-11)


# ---------------------------------------------------------------------------
# coherence factor

def test_mu_p_factor_limits():
    grid = np.linspace(0, 1, 21)
    for mu in grid:
        assert mu_p_factor(ChannelParams(0.0, float(mu))) == pytest.approx(1.0, abs=1e-12)
    for p in grid:
        assert mu_p_factor(ChannelParams(float(p), 0.0)) == pytest.approx(
            (1 - p) ** 3, abs=1e-12
        )
        assert mu_p_factor(ChannelParams(float(p), 1.0)) == pytest.approx(1 - p, abs=1e-12)
    assert mu_p_factor(ChannelParams(0.5, 1.0)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_matches_pipeline_at_anchors():
    for strategies in ((COOPERATE,) * 3, (DEFECT,) * 3):
        for gamma_delta in (0.0, HPI):
            cfg = make_config(gamma=gamma_delta, delta=gamma_delta, strategies=strategies)
            res = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
            assert res.max_abs_discrepancy <= 1e-9


@given(unit, unit, unit, unit, strategies_st, strategies_st, strategies_st)
@settings(max_examples=30, deadline=None)
def test_closed_form_exact_at_maximal_entanglement(p1, mu1, p2, mu2, s1, s2, s3):
    # both interference blocks vanish at gamma = delta = pi/2, where the
    # closed form is an exact description of the pipeline
    cfg = make_config(HPI, HPI, p1, mu1, p2, mu2, (s1, s2, s3))
    res = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
    assert res.max_abs_discrepancy <= 1e-12


def test_closed_form_report_structure():
    cfg = make_config(gamma=0.9, delta=0.6, p1=0.3, mu1=0.4, strategies=(
        StrategyParams(1.0, 0.5, -0.5), StrategyParams(HPI, 0, 0), StrategyParams(2.0, 1.0, 1.0),
    ))
    res = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
    d = res.as_dict()
    assert set(d) == {
        "payoffs", "pipeline_payoffs", "per_player_discrepancy",
        "max_abs_discrepancy", "basis_reading", "terms",
    }
    assert d["max_abs_discrepancy"] == pytest.approx(max(d["per_player_discrepancy"]))
    assert abs(res.terms.c[0] + res.terms.s[0] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# structural invariants of the payoff functional

@given(
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    unit, unit, strategies_st, strategies_st, strategies_st,
)
@settings(max_examples=25, deadline=None)
def test_payoffs_within_table_range(gamma, delta, p, mu, s1, s2, s3):
    cfg = make_config(gamma, delta, p, mu, strategies=(s1, s2, s3))
    pay = pipeline_payoffs(cfg)
    assert all(-1e-12 <= v <= 5 + 1e-12 for v in pay)


@given(
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    st.floats(min_value=0, max_value=HPI, allow_nan=False),
    unit, unit, strategies_st, strategies_st, strategies_st,
)
@settings(max_examples=25, deadline=None)
def test_alice_bob_swap_symmetry(gamma, delta, p, mu, s1, s2, s3):
    cfg = make_config(gamma, delta, p, mu, strategies=(s1, s2, s3))
    swapped = make_config(gamma, delta, p, mu, strategies=(s2, s1, s3))
    a1, b1, c1 = pipeline_payoffs(cfg)
    a2, b2, c2 = pipeline_payoffs(swapped)
    assert a1 == pytest.approx(b2, abs=1e-11)
    assert b1 == pytest.approx(a2, abs=1e-11)
    assert c1 == pytest.approx(c2, abs=1e-11)
