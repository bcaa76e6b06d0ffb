"""Tests for the dephasing channel constructors and their invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpd3.channel import (
    ChannelParams,
    KrausSet,
    apply_channel,
    completeness_defect,
    correlated_pair,
    correlated_triple,
    dephasing_single,
    kraus_sum,
    product_channel,
)
from qpd3.game import initial_state, mu_p_factor
from qpd3.linalg import ID2, SIGMA_Z, InvariantViolation, kron_all, max_abs

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def random_density(rng, dim):
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        ChannelParams(0.5, 1.5)
    assert ChannelParams(1.0, 0.0).error_probabilities() == (0.5, 0.5)


def test_kraus_set_rejects_incomplete_sets():
    with pytest.raises(InvariantViolation):
        KrausSet(2, (0.5 * ID2,))
    with pytest.raises(InvariantViolation):
        KrausSet(2, np.stack([ID2, 0.1 * SIGMA_Z]))
    with pytest.raises(ValueError):
        KrausSet(4, (ID2,))


def test_dephasing_single_amplitudes():
    ks = dephasing_single(ChannelParams(0.0, 0.0))
    np.testing.assert_allclose(ks.operators[0], ID2, atol=1e-15)
    np.testing.assert_allclose(ks.operators[1], np.zeros((2, 2)), atol=1e-15)

    ks = dephasing_single(ChannelParams(1.0, 0.0))
    np.testing.assert_allclose(ks.operators[0], math.sqrt(0.5) * ID2, atol=1e-15)
    np.testing.assert_allclose(ks.operators[1], math.sqrt(0.5) * SIGMA_Z, atol=1e-15)

    ks = dephasing_single(ChannelParams(0.5, 0.0))
    np.testing.assert_allclose(ks.operators[0], math.sqrt(0.75) * ID2, atol=1e-15)
    np.testing.assert_allclose(ks.operators[1], math.sqrt(0.25) * SIGMA_Z, atol=1e-15)


def test_product_channel_basics():
    single = dephasing_single(ChannelParams(0.5, 0.0))
    assert product_channel(single, 1) is single

    ks = product_channel(dephasing_single(ChannelParams(0.0, 0.0)), 3)
    assert ks.dim == 8
    assert len(ks.operators) == 8
    np.testing.assert_allclose(ks.operators[0], np.eye(8), atol=1e-15)
    for op in ks.operators[1:]:
        np.testing.assert_allclose(op, np.zeros((8, 8)), atol=1e-15)

    ks = product_channel(single, 2)
    assert ks.dim == 4 and len(ks.operators) == 4
    assert completeness_defect(ks.operators) <= 1e-12


def test_correlated_pair_memoryless_matches_product():
    for p in (0.0, 0.3, 1.0):
        params = ChannelParams(p, 0.0)
        pair = correlated_pair(params)
        prod = product_channel(dephasing_single(params), 2)
        for a, b in zip(pair.operators, prod.operators):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_correlated_pair_full_memory():
    params = ChannelParams(0.5, 1.0)
    pair = correlated_pair(params)
    p0, p3 = params.error_probabilities()
    # order (0,0), (0,3), (3,0), (3,3): only diagonal index pairs survive
    np.testing.assert_allclose(pair.operators[0], math.sqrt(p0) * np.eye(4), atol=1e-15)
    np.testing.assert_allclose(pair.operators[1], np.zeros((4, 4)), atol=1e-15)
    np.testing.assert_allclose(pair.operators[2], np.zeros((4, 4)), atol=1e-15)
    np.testing.assert_allclose(
        pair.operators[3], math.sqrt(p3) * np.kron(SIGMA_Z, SIGMA_Z), atol=1e-15
    )


def test_correlated_triple_limits():
    ks = correlated_triple(ChannelParams(0.0, 0.7))
    np.testing.assert_allclose(ks.operators[0], np.eye(8), atol=1e-15)
    for op in ks.operators[1:]:
        np.testing.assert_allclose(op, np.zeros((8, 8)), atol=1e-15)

    params = ChannelParams(0.6, 0.0)
    triple = correlated_triple(params)
    prod = product_channel(dephasing_single(params), 3)
    for a, b in zip(triple.operators, prod.operators):
        np.testing.assert_allclose(a, b, atol=1e-12)

    params = ChannelParams(0.5, 1.0)
    triple = correlated_triple(params)
    p0, p3 = params.error_probabilities()
    zzz = np.kron(np.kron(SIGMA_Z, SIGMA_Z), SIGMA_Z)
    for idx, (i, j, k) in enumerate(itertools.product((0, 3), repeat=3)):
        if (i, j, k) == (0, 0, 0):
            np.testing.assert_allclose(triple.operators[idx], math.sqrt(p0) * np.eye(8), atol=1e-15)
        elif (i, j, k) == (3, 3, 3):
            np.testing.assert_allclose(triple.operators[idx], math.sqrt(p3) * zzz, atol=1e-15)
        else:
            np.testing.assert_allclose(triple.operators[idx], np.zeros((8, 8)), atol=1e-15)


@given(unit, unit)
@settings(max_examples=60)
def test_trace_preservation(p, mu):
    params = ChannelParams(p, mu)
    single = dephasing_single(params)
    for ks in (single, product_channel(single, 3), correlated_pair(params),
               correlated_triple(params)):
        assert completeness_defect(ks.operators) <= 1e-12


def test_trace_preservation_grid():
    for p in np.linspace(0, 1, 21):
        for mu in np.linspace(0, 1, 21):
            params = ChannelParams(float(p), float(mu))
            assert completeness_defect(correlated_triple(params).operators) <= 1e-12


def test_apply_channel_identity():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 8)
    out = apply_channel(correlated_triple(ChannelParams(0.0, 0.0)), rho)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_apply_channel_plus_state_dephasing():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    for p in (0.0, 0.4, 1.0):
        out = apply_channel(dephasing_single(ChannelParams(p, 0.0)), plus)
        # off-diagonal coherence shrinks by exactly (1 - p)
        np.testing.assert_allclose(out[0, 1], 0.5 * (1 - p), atol=1e-12)
        np.testing.assert_allclose(np.diag(out), [0.5, 0.5], atol=1e-12)


def test_triple_coherence_factor_matches_polynomial():
    rho = initial_state(math.pi / 2)
    for p in np.linspace(0, 1, 11):
        for mu in np.linspace(0, 1, 11):
            params = ChannelParams(float(p), float(mu))
            out = apply_channel(correlated_triple(params), rho)
            np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)
            expected = rho[0, 7] * mu_p_factor(params)
            np.testing.assert_allclose(out[0, 7], expected, atol=1e-12)


@given(unit, unit, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_channel_preserves_state_properties(p, mu, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    out = apply_channel(correlated_triple(ChannelParams(p, mu)), rho)
    assert abs(np.trace(out).real - 1.0) <= 1e-12
    assert max_abs(out - out.conj().T) <= 1e-12
    # dephasing never touches populations
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)


@given(unit, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_memoryless_factorization(p, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    params = ChannelParams(p, 0.0)
    a = kraus_sum(correlated_triple(params), rho)
    b = kraus_sum(product_channel(dephasing_single(params), 3), rho)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(dephasing_single(ChannelParams(0.5, 0.0)), np.eye(8) / 8)


# ---------------------------------------------------------------------------
# Differential tests: stacked constructors and batched sums against literal
# per-operator loops.

GRID = [float(x) for x in np.linspace(0.0, 1.0, 11)]
SIGMA = {0: ID2, 3: SIGMA_Z}


def literal_product(params, n):
    p0, p3 = params.error_probabilities()
    single = (math.sqrt(p0) * ID2, math.sqrt(p3) * SIGMA_Z)
    return [kron_all(*(single[k] for k in idx)) for idx in itertools.product(range(2), repeat=n)]


def literal_pair(params):
    p = dict(zip((0, 3), params.error_probabilities()))
    mu = params.mu
    return [
        math.sqrt(p[i] * ((1 - mu) * p[j] + mu * (i == j))) * kron_all(SIGMA[i], SIGMA[j])
        for i, j in itertools.product((0, 3), repeat=2)
    ]


def literal_triple(params):
    p = dict(zip((0, 3), params.error_probabilities()))
    mu = params.mu
    return [
        math.sqrt(((1 - mu) * p[i] + mu * (i == j)) * ((1 - mu) * p[j] + mu * (j == k)) * p[k])
        * kron_all(SIGMA[i], SIGMA[j], SIGMA[k])
        for i, j, k in itertools.product((0, 3), repeat=3)
    ]


CONSTRUCTORS = {
    "product2": (lambda c: product_channel(dephasing_single(c), 2), lambda c: literal_product(c, 2)),
    "product3": (lambda c: product_channel(dephasing_single(c), 3), lambda c: literal_product(c, 3)),
    "pair": (correlated_pair, literal_pair),
    "triple": (correlated_triple, literal_triple),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_matches_literal_kron_loop(name):
    build, literal = CONSTRUCTORS[name]
    for p in GRID:
        for mu in GRID:
            params = ChannelParams(p, mu)
            ks = build(params)
            want = literal(params)
            assert ks.operators.shape == (len(want), ks.dim, ks.dim)
            np.testing.assert_allclose(ks.operators, np.array(want), rtol=0, atol=1e-15)


def random_kraus_stack(rng, k, dim):
    """k operators whose stacked columns are an isometry, so sum A†A = I."""
    z = rng.normal(size=(k * dim, dim)) + 1j * rng.normal(size=(k * dim, dim))
    q, _ = np.linalg.qr(z)
    return q.reshape(k, dim, dim)


def test_completeness_defect_matches_explicit_sum():
    rng = np.random.default_rng(3)
    for k, dim in ((1, 2), (3, 2), (4, 4), (8, 8)):
        complete = random_kraus_stack(rng, k, dim)
        for ops in (complete, 0.9 * complete, complete + 0.01 * rng.normal(size=complete.shape)):
            acc = np.zeros((dim, dim), dtype=complex)
            for op in ops:
                acc += op.conj().T @ op
            want = np.max(np.abs(acc - np.eye(dim)))
            assert completeness_defect(ops) == pytest.approx(want, rel=0, abs=1e-15)


def test_kraus_sum_matches_explicit_sum():
    rng = np.random.default_rng(4)
    for k, dim in ((1, 2), (3, 2), (4, 4), (8, 8)):
        ks = KrausSet(dim, random_kraus_stack(rng, k, dim))
        rho = random_density(rng, dim)
        want = np.zeros((dim, dim), dtype=complex)
        for op in ks.operators:
            want += op @ rho @ op.conj().T
        np.testing.assert_allclose(kraus_sum(ks, rho), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "dim, operators",
    [
        (2, (np.array([[np.nan, 0], [0, 1]]),)),
        (2, (ID2, np.array([[0, np.inf], [0, 0]]))),
        (2, (ID2, np.eye(3))),
        (2, (ID2, [[1, 0]])),
        (4, (ID2,)),
        (2, np.eye(2)),
        (2, ()),
        (2, np.zeros((0, 2, 2))),
        (0, ()),
    ],
    ids=["nan", "inf", "ragged", "ragged-row", "wrong-dim", "bare-matrix", "empty", "empty-stack",
         "zero-dim"],
)
def test_kraus_set_rejects_malformed_operators(dim, operators):
    with pytest.raises(ValueError):
        KrausSet(dim, operators)


def test_kraus_set_operators_are_read_only():
    ops = [math.sqrt(0.5) * ID2, math.sqrt(0.5) * SIGMA_Z]
    ks = KrausSet(2, ops)
    assert isinstance(ks.operators, np.ndarray) and ks.operators.shape == (2, 2, 2)
    with pytest.raises(ValueError):
        ks.operators[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        ks.operators[1] *= 2.0
    with pytest.raises(AttributeError):
        ks.operators = np.stack(ops)
    # the stack is a copy: changing the input does not reach the set
    ops[0][0, 0] = 5.0
    assert ks.operators[0, 0, 0] == math.sqrt(0.5)


def test_kraus_set_keeps_its_completeness_defect():
    for p in GRID:
        for mu in GRID:
            params = ChannelParams(p, mu)
            single = dephasing_single(params)
            for ks in (single, product_channel(single, 3), correlated_pair(params),
                       correlated_triple(params)):
                assert ks.defect == completeness_defect(ks.operators)
