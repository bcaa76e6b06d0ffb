"""Tests for the game pipeline, closed form and payoff table."""

import argparse
import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from qpd3 import game, presets
from qpd3.channel import ChannelParams
from qpd3.cli import parse_triple
from qpd3.game import (
    COOPERATE,
    DEFAULT_TABLE,
    DEFECT,
    GameConfig,
    OUTCOMES,
    closed_form_payoffs,
    initial_state,
    measurement_projectors,
    mu_p_factor,
    outcome_probabilities,
    payoff_table,
    pipeline_payoffs,
    strategy_unitary,
)
from qpd3.linalg import InvariantViolation, max_abs

HPI = math.pi / 2

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
thetas = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategies_st = st.tuples(thetas, angles, angles)


def make_config(gamma=HPI, delta=HPI, p1=0.0, mu1=0.0, p2=None, mu2=None, strategies=None):
    p2 = p1 if p2 is None else p2
    mu2 = mu1 if mu2 is None else mu2
    return GameConfig(
        gamma, delta, ChannelParams(p1, mu1), ChannelParams(p2, mu2),
        strategies if strategies is not None else (COOPERATE,) * 3,
    )


# ---------------------------------------------------------------------------
# parameter validation

def test_game_config_ranges():
    with pytest.raises(ValueError):
        make_config(gamma=2.0)
    with pytest.raises(ValueError):
        make_config(delta=-0.1)


def _strategy_cases():
    """pytest params (rows, message): message None when the rows are accepted."""
    out = {"theta": (math.nan, math.inf, -0.1, math.pi + 1e-12),
           "alpha": (math.nan, -math.inf, -math.pi - 1e-12, math.pi + 1e-12),
           "beta": (math.nan, math.inf, -math.pi - 1e-12, math.pi + 1e-12)}
    cases = []
    for slot, (name, values) in enumerate(out.items()):
        span = "[0, pi]" if name == "theta" else "[-pi, pi]"
        for value in values:
            move = [HPI, 0.0, 0.0]
            move[slot] = value
            cases.append(pytest.param([COOPERATE, move, DEFECT],
                                      f"{name} must be in {span}, got {value}",
                                      id=f"{name}={value}"))
    shape = "strategies must be 3 (theta, alpha, beta) rows of numbers"
    return cases + [
        # theta is checked before alpha, alpha before beta
        pytest.param([(-1.0, 4.0, 4.0)] * 3, "theta must be in [0, pi], got -1.0",
                     id="theta-first"),
        pytest.param([(1.0, 4.0, -4.0)] * 3, "alpha must be in [-pi, pi], got 4.0",
                     id="alpha-before-beta"),
        pytest.param(np.zeros((2, 3)), shape, id="shape-2x3"),
        pytest.param(np.zeros((3, 4)), shape, id="shape-3x4"),
        pytest.param([(0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0, 0.0)], shape, id="ragged"),
        pytest.param([(0.0, 0.0, 0.0)] * 3, None, id="accepts-zero"),
        pytest.param([(0.0, -math.pi, -math.pi)] * 3, None, id="accepts-minus-pi"),
        pytest.param([(math.pi, math.pi, math.pi)] * 3, None, id="accepts-pi"),
    ]


@pytest.mark.parametrize("rows,message", _strategy_cases())
def test_strategy_ranges(rows, message):
    # GameConfig and the CLI's parse_triple refuse a move with the same text,
    # and accept the range ends 0, pi and -pi exactly
    triples = None
    if len(rows) == 3 and all(len(row) == 3 for row in rows):
        triples = [",".join(map(repr, map(float, row))) for row in rows]
    if message is None:
        cfg = make_config(strategies=rows)
        assert cfg.strategies.tolist() == [list(row) for row in rows]
        assert [parse_triple(text) for text in triples] == [tuple(row) for row in rows]
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        make_config(strategies=rows)
    if triples is not None:
        with pytest.raises(argparse.ArgumentTypeError, match=re.escape(message)):
            for text in triples:
                parse_triple(text)


def test_stored_profile_is_a_read_only_copy():
    want = [[1.0, 0.5, -0.5], [HPI, 0.0, 0.0], [2.0, 1.0, 1.0]]
    for given in ([list(row) for row in want], np.array(want)):
        cfg = make_config(p1=0.3, mu1=0.2, strategies=given)
        before = game.payoffs(cfg)
        given[0][0] = given[2][1] = 0.0  # the caller changes its profile afterwards
        assert cfg.strategies.tolist() == want and game.payoffs(cfg) == before
        assert cfg.strategies.shape == (3, 3) and cfg.strategies.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            cfg.strategies[0, 0] = 0.0
    for shared in (COOPERATE, DEFECT, presets.SWEEP_PROFILE, presets.SURFACE_PROFILE):
        assert not shared.flags.writeable


def test_game_config_validates_and_copies_custom_tables():
    bad = {"nan": np.full((8, 3), np.nan), "inf": np.where(np.eye(8, 3), np.inf, 1.0),
           "(7, 3)": np.ones((7, 3)), "(8, 2)": np.ones((8, 2)), "huge": np.full((8, 3), 1e301)}
    off = ChannelParams(0.0, 0.0)
    for table in bad.values():
        with pytest.raises(ValueError, match=r"payoffs must be an \(8, 3\) table"):
            GameConfig(HPI, HPI, off, off, (COOPERATE,) * 3, table)
    # the caller's array is copied: changing it afterwards leaves the config alone
    table = np.array(DEFAULT_TABLE)
    cfg = dataclasses.replace(make_config(p1=0.3, mu1=0.2), payoffs=table)
    before = game.payoffs(cfg)
    table[:] = 2.0
    assert game.payoffs(cfg) == before and pipeline_payoffs(cfg) == pytest.approx(before)
    assert cfg.payoffs is not table and not cfg.payoffs.flags.writeable
    assert cfg.payoffs.dtype == np.float64
    # the built-in table is kept as it is, with no copy
    assert dataclasses.replace(cfg, payoffs=DEFAULT_TABLE).payoffs is DEFAULT_TABLE


def test_outcome_labels_in_index_order():
    assert OUTCOMES == ("000", "001", "010", "011", "100", "101", "110", "111")


def test_configs_compare_and_hash_by_identity():
    # equal values are not equal configs: array fields have no one truth value
    grid = ChannelParams(np.linspace(0.0, 1.0, 5), 0.3)
    assert grid == grid and grid != ChannelParams(np.linspace(0.0, 1.0, 5), 0.3)
    cfg = make_config(p1=0.2, mu1=0.1)
    twin = dataclasses.replace(cfg, payoffs=DEFAULT_TABLE.copy())
    assert cfg == cfg and cfg != twin
    assert len({grid, cfg, twin, grid, cfg}) == 3
    assert hash(grid) == hash(grid) and hash(cfg) == hash(cfg)


def test_payoff_table_validation():
    with pytest.raises(ValueError, match="missing outcomes"):
        payoff_table({"000": (1, 2, 3)})
    with pytest.raises(ValueError, match=r"unknown outcomes: \['222'\]"):
        payoff_table({**{k: (0, 0, 0) for k in OUTCOMES}, "222": (0, 0, 0)})
    with pytest.raises(ValueError, match="payoff entry for 011 must be 3 numbers"):
        payoff_table({k: (0, 0) if k == "011" else (0, 0, 0) for k in OUTCOMES})
    # a read-only float array equal to the mapping, rows in outcome order
    entries = {k: [x, -x, 0.5 * x] for x, k in enumerate(OUTCOMES)}
    table = payoff_table(entries)
    assert table.shape == (8, 3) and table.dtype == np.float64
    assert table.tolist() == [entries[k] for k in OUTCOMES]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert DEFAULT_TABLE[0].tolist() == [3, 3, 3] and not DEFAULT_TABLE.flags.writeable
    # a config built without a table shares the one built at import
    assert make_config().payoffs is DEFAULT_TABLE


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
    u = strategy_unitary(*s)
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
    for x, bits in enumerate(itertools.product((0, 1), repeat=3)):
        strategies = tuple(DEFECT if b else COOPERATE for b in bits)
        cfg = make_config(gamma=0.0, delta=0.0, strategies=strategies)
        got = pipeline_payoffs(cfg)
        want = DEFAULT_TABLE[x]
        assert got == pytest.approx(want, abs=1e-12)


def test_outcome_probabilities_normalized_and_bounded():
    configs = [
        make_config(p1=0.4, mu1=0.7, strategies=(
            (1.1, 0.3, -0.2), (2.0, -1.0, 0.5), (0.4, 2.0, 1.0),
        )),
        # noiseless, outcome 001 rounds to -6.9e-18 before the clamp
        make_config(strategies=((2.0, 0.0, 0.0), (1.0, 0.0, 0.0), COOPERATE)),
    ]
    for cfg in configs:
        probs = outcome_probabilities(cfg)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)


def test_each_path_runs_only_its_own_channel(monkeypatch):
    # the fast path needs only the coherence factors, the validated path the full masks
    def refused(*args):
        raise AssertionError("called outside its path")

    cfg = make_config(p1=0.4, mu1=0.7, p2=0.2, strategies=(COOPERATE, DEFECT, COOPERATE))
    with monkeypatch.context() as patch:
        patch.setattr(game, "dephasing_mask", refused)
        fast = game.payoffs(cfg)
        forms = [game.deviation_form(cfg, idx) for idx in range(3)]
    monkeypatch.setattr(game, "payoffs", refused)
    monkeypatch.setattr(game, "deviation_form", refused)
    assert pipeline_payoffs(cfg) == pytest.approx(fast, abs=1e-12)
    for idx, s in enumerate(cfg.strategies):
        v = game.strategy_unitary(*s).reshape(4)
        assert (v.conj() @ forms[idx] @ v).real == pytest.approx(fast[idx], abs=1e-12)


def test_negative_probability_is_a_violation(monkeypatch):
    # P_000 -> 2 P_000 and P_001 -> P_001 - P_000 still sum to I, but the
    # all-cooperate game then gives outcome 001 probability -1
    original = game.measurement_projectors

    def skewed(delta):
        projectors = original(delta).copy()
        projectors[1] -= projectors[0]
        projectors[0] *= 2
        return projectors

    monkeypatch.setattr(game, "measurement_projectors", skewed)
    with pytest.raises(InvariantViolation, match="negative"):
        outcome_probabilities(make_config(gamma=0.0, delta=0.0))


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
    cfg = make_config(gamma, delta, p1, mu1, p2, mu2, strategies)
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
    want = oracle.payoffs(gamma, delta, p1, mu1, p2, mu2, [s1, s2, s3])
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
            assert res["max_abs_discrepancy"] <= 1e-9


@given(unit, unit, unit, unit, strategies_st, strategies_st, strategies_st)
@settings(max_examples=30, deadline=None)
def test_closed_form_exact_at_maximal_entanglement(p1, mu1, p2, mu2, s1, s2, s3):
    # both interference blocks vanish at gamma = delta = pi/2, where the
    # closed form is an exact description of the pipeline
    cfg = make_config(HPI, HPI, p1, mu1, p2, mu2, (s1, s2, s3))
    res = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
    assert res["max_abs_discrepancy"] <= 1e-12


def test_closed_form_report_structure():
    cfg = make_config(gamma=0.9, delta=0.6, p1=0.3, mu1=0.4, strategies=(
        (1.0, 0.5, -0.5), (HPI, 0, 0), (2.0, 1.0, 1.0),
    ))
    d = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
    assert list(d) == [
        "payoffs", "pipeline_payoffs", "per_player_discrepancy",
        "max_abs_discrepancy", "basis_reading", "terms",
    ]
    assert list(d["terms"]) == ["mu_p1", "mu_p2", "eta1", "eta2", "xi", "c", "s"]
    assert d["max_abs_discrepancy"] == pytest.approx(max(d["per_player_discrepancy"]))
    assert abs(d["terms"]["c"][0] + d["terms"]["s"][0] - 1.0) <= 1e-12
    json.dumps(d)  # plain JSON types throughout


def random_generic_config(rng, p2=None):
    """gamma, delta inside (0, pi/2), split passages, the default or a random table."""
    table = DEFAULT_TABLE
    if rng.uniform() < 0.5:
        table = payoff_table({k: tuple(rng.uniform(-5.0, 5.0, 3)) for k in OUTCOMES})
    gamma, delta = rng.uniform(0.05, HPI - 0.05, 2)
    p1, mu1, p2_drawn, mu2 = rng.uniform(0.0, 1.0, 4)
    strategies = tuple(
        (rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        for _ in range(3)
    )
    return GameConfig(gamma, delta, ChannelParams(p1, mu1),
                      ChannelParams(p2_drawn if p2 is None else p2, mu2), strategies, table)


def closed_form_defect(cfg) -> np.ndarray:
    """Signed closed-form minus pipeline payoffs."""
    res = closed_form_payoffs(cfg, pipeline_payoffs(cfg))
    return np.subtract(res["payoffs"], res["pipeline_payoffs"])


def test_closed_form_exact_when_second_passage_fully_dephases():
    # p2 = 1 gives mu_p2 = 0: the cos(gamma)-weighted block drops out and
    # everything left in the transcription is exact
    rng = np.random.default_rng(61)
    for _ in range(150):
        cfg = random_generic_config(rng, p2=1.0)
        assert mu_p_factor(cfg.passage2) == 0.0
        assert max_abs(closed_form_defect(cfg)) <= 1e-12


def test_closed_form_defect_is_mu_p2_times_the_noiseless_defect():
    # the only defective term is linear in mu_p2 and depends on neither passage
    rng = np.random.default_rng(62)
    off = ChannelParams(0.0, 0.0)
    largest = 0.0
    for _ in range(150):
        cfg = random_generic_config(rng)
        noiseless = closed_form_defect(dataclasses.replace(cfg, passage1=off, passage2=off))
        want = mu_p_factor(cfg.passage2) * noiseless
        assert max_abs(closed_form_defect(cfg) - want) <= 1e-12
        largest = max(largest, max_abs(noiseless))
    assert largest > 0.1  # the defect is real, so the identity is not vacuous


_TABLE = {"000": (2, -1, 4), "001": (0, 3, 1), "010": (5, 2, -2), "011": (1, 1, 3),
          "100": (-3, 4, 0), "101": (2, 0, 5), "110": (4, -2, 1), "111": (3, 5, 2)}

#: (gamma, delta, (p1, mu1, p2, mu2), strategies, custom table?, closed-form payoffs),
#: recorded from the term-by-term transcription.  These pin the defective
#: cos(gamma)-weighted block, which the two structural tests above cannot see.
CLOSED_FORM_GOLDENS = [
    (0.3861, 0.912, (0.9372, 0.4347, 0.3516, 0.2145),
     ((2.0315, -1.229, 1.3409), (0.4898, -0.2398, -1.5361), (1.8291, 1.9827, 2.1713)), False,
     (3.262590400102236, 1.9400392225917977, 3.101553074359982)),
    (1.1748, 0.1985, (0.2814, 0.6382, 0.4395, 0.3852),
     ((1.602, -0.178, 0.9446), (2.4327, 0.9664, 2.2249), (1.5075, 1.8968, -0.8696)), False,
     (2.4665945073722306, 2.9414905639042215, 2.408568073845295)),
    (1.4457, 0.4517, (0.1716, 0.9146, 0.3892, 0.1827),
     ((0.4297, -0.0098, 0.8945), (1.4493, 0.0504, -1.0102), (2.8403, -0.3823, 0.8039)), True,
     (0.9273693384941852, 1.2990040638905618, 1.4953984322982616)),
    (0.2745, 0.2082, (0.4274, 0.4908, 0.8825, 0.1315),
     ((0.7978, -2.3852, -0.8569), (0.6749, -2.951, -2.0822), (2.2992, 0.1343, -2.3203)), False,
     (2.2911133171551477, 2.1434428113678985, 4.2739793146484635)),
    (0.5183, 0.1407, (0.2391, 0.3642, 0.6494, 0.7089),
     ((1.1397, -1.4894, 0.0122), (2.8584, -0.0951, -2.3699), (1.2833, -1.2584, -0.2847)), False,
     (1.9331443018168535, 3.921387607753568, 2.1681380022038055)),
    (0.6446, 0.2896, (0.3396, 0.6719, 0.3513, 0.5497),
     ((0.5393, -1.718, -2.2076), (2.6157, 0.804, 0.0774), (0.7954, -0.2444, -0.164)), True,
     (3.779113403305222, 1.4083305325073145, -0.11530979029918186)),
    (1.3424, 0.5523, (0.7548, 0.2997, 0.8098, 0.7331),
     ((0.2535, -1.3263, 2.8223), (2.0502, -0.0321, 2.4416), (1.1436, 1.2145, -0.9375)), False,
     (2.5189803224834906, 2.87014365203381, 2.7810125084327333)),
    (0.9663, 1.2283, (0.3847, 0.2697, 0.2621, 0.2283),
     ((1.7712, 0.4793, -0.5942), (2.538, -2.7653, 0.1016), (1.9052, 0.7401, -2.6315)), False,
     (2.1326488215805237, 2.5692196890194356, 2.4209774052521404)),
]


@pytest.mark.parametrize("case", CLOSED_FORM_GOLDENS)
def test_closed_form_golden_values(case):
    gamma, delta, noise, strategies, custom, want = case
    cfg = make_config(gamma, delta, *noise, strategies)
    if custom:
        cfg = dataclasses.replace(cfg, payoffs=payoff_table(_TABLE))
    got = closed_form_payoffs(cfg, pipeline_payoffs(cfg))["payoffs"]
    assert got == pytest.approx(want, abs=1e-13)


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


def test_player_permutation_covariance():
    # Move player order[q] to slot q, with the table's outcomes and columns
    # relabelled to match: both paths give the moved payoffs, although the mask
    # itself changes under four of the six permutations (see test_channel).
    rng = np.random.default_rng(31)
    for _ in range(10):
        cfg = dataclasses.replace(random_generic_config(rng),
                                  payoffs=rng.uniform(-5.0, 5.0, (8, 3)))
        want = {path: path(cfg) for path in (game.payoffs, pipeline_payoffs)}
        for order in itertools.permutations(range(3)):
            table = np.empty((8, 3))
            for x in range(8):
                table[oracle.players_moved(x, order)] = cfg.payoffs[x, list(order)]
            moved = dataclasses.replace(
                cfg, strategies=cfg.strategies[list(order)], payoffs=table
            )
            for path, pay in want.items():
                np.testing.assert_allclose(path(moved), [pay[q] for q in order],
                                           rtol=0, atol=1e-12)


def test_only_the_diagonal_and_anti_diagonal_of_a_mask_reach_the_outcomes():
    # rho_in and every projector live on (x, x) and (x, 7 - x), where a mask is
    # I + mu_p_factor J; any other entries E leave every probability unchanged,
    # so no payoff can tell the players' positions on the channel apart
    rng = np.random.default_rng(37)
    anti = np.fliplr(np.eye(8))
    elsewhere = (np.eye(8) + anti) == 0
    for _ in range(20):
        cfg = random_generic_config(rng)
        m1, m2 = (np.eye(8) + mu_p_factor(params) * anti + elsewhere * rng.normal(size=(8, 8))
                  for params in (cfg.passage1, cfg.passage2))
        rho3 = m2 * game.conjugated(m1 * initial_state(cfg.gamma), cfg.strategies)
        probs = np.einsum("mxy,yx->m", measurement_projectors(cfg.delta), rho3).real
        np.testing.assert_allclose(probs, outcome_probabilities(cfg), rtol=0, atol=1e-12)
