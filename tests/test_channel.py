"""Tests for the correlated dephasing channel: its Kraus operators, its mask, their invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from qpd3 import channel
from qpd3.channel import (
    ChannelParams,
    completeness_defect,
    correlated_triple,
    dephasing_mask,
    kraus_sum,
    mu_p_factor,
)
from qpd3.linalg import ID2, SIGMA_Z, InvariantViolation, check_density_matrix, max_abs

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
@pytest.mark.parametrize("field", ["p", "mu"])
def test_channel_params_rejects_one_bad_array_entry(field, bad):
    values = np.linspace(0.0, 1.0, 21)
    values[7] = bad
    fields = {"p": 0.3, "mu": 0.4, field: values}
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        ChannelParams(**fields)


def test_kraus_set_rejects_incomplete_sets(monkeypatch):
    # both constructions check trace preservation at every point of a batch:
    # one weight of one point is off
    original = channel._triple_weights
    row = ChannelParams(0.3, np.linspace(0.0, 1.0, 21))
    for params, entry in ((ChannelParams(0.3, 0.4), (0,)), (row, (10, 0))):
        for scale in (0.5, 1.1):
            def scaled(params, s=scale, entry=entry):
                weights = original(params).copy()
                weights[entry] *= s
                return weights

            monkeypatch.setattr(channel, "_triple_weights", scaled)
            with pytest.raises(InvariantViolation, match="not trace preserving"):
                correlated_triple(params)
            with pytest.raises(InvariantViolation, match="not trace preserving"):
                dephasing_mask(params)


def test_correlated_triple_limits():
    ops = correlated_triple(ChannelParams(0.0, 0.7))
    np.testing.assert_allclose(ops[0], np.eye(8), atol=1e-15)
    for op in ops[1:]:
        np.testing.assert_allclose(op, np.zeros((8, 8)), atol=1e-15)

    params = ChannelParams(0.6, 0.0)
    p0, p3 = params.error_probabilities()
    single = (math.sqrt(p0) * ID2, math.sqrt(p3) * SIGMA_Z)
    for op, (i, j, k) in zip(correlated_triple(params), itertools.product(range(2), repeat=3)):
        want = np.kron(np.kron(single[i], single[j]), single[k])
        np.testing.assert_allclose(op, want, atol=1e-12)

    params = ChannelParams(0.5, 1.0)
    ops = correlated_triple(params)
    p0, p3 = params.error_probabilities()
    zzz = np.kron(np.kron(SIGMA_Z, SIGMA_Z), SIGMA_Z)
    for idx, (i, j, k) in enumerate(itertools.product((0, 3), repeat=3)):
        if (i, j, k) == (0, 0, 0):
            np.testing.assert_allclose(ops[idx], math.sqrt(p0) * np.eye(8), atol=1e-15)
        elif (i, j, k) == (3, 3, 3):
            np.testing.assert_allclose(ops[idx], math.sqrt(p3) * zzz, atol=1e-15)
        else:
            np.testing.assert_allclose(ops[idx], np.zeros((8, 8)), atol=1e-15)


@given(unit, unit)
@settings(max_examples=60)
def test_trace_preservation(p, mu):
    params = ChannelParams(p, mu)
    assert completeness_defect(correlated_triple(params)) <= 1e-12
    assert max_abs(dephasing_mask(params).diagonal() - 1.0) <= 1e-12


def test_trace_preservation_grid():
    for p in np.linspace(0, 1, 21):
        for mu in np.linspace(0, 1, 21):
            params = ChannelParams(float(p), float(mu))
            assert completeness_defect(correlated_triple(params)) <= 1e-12


def test_mask_is_the_identity_without_noise():
    for mu in (0.0, 0.5, 1.0):
        mask = dephasing_mask(ChannelParams(0.0, mu))
        np.testing.assert_allclose(mask, np.ones((8, 8)), atol=1e-15)
    rng = np.random.default_rng(1)
    rho = random_density(rng, 8)
    out = check_density_matrix(dephasing_mask(ChannelParams(0.0, 0.0)) * rho)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_mask_dephases_a_plus_state_by_1_minus_p():
    # |+> on one qubit, |0> on the others: each qubit's marginal error
    # probability is p/2 whatever the memory, so its coherence shrinks by (1 - p)
    for bit in (4, 2, 1):  # Alice, Bob, Charlie
        v = np.zeros(8)
        v[0] = v[bit] = math.sqrt(0.5)
        plus = np.outer(v, v).astype(complex)
        for p in (0.0, 0.4, 1.0):
            for mu in (0.0, 0.5, 1.0):
                out = check_density_matrix(dephasing_mask(ChannelParams(p, mu)) * plus)
                np.testing.assert_allclose(out[0, bit], 0.5 * (1 - p), atol=1e-12)
                np.testing.assert_allclose(np.diag(out), np.diag(plus), atol=1e-12)


def test_triple_coherence_factor_matches_polynomial():
    # every anti-diagonal entry M[x, 7 - x] is the one coherence factor
    for p in np.linspace(0, 1, 21):
        for mu in np.linspace(0, 1, 21):
            params = ChannelParams(float(p), float(mu))
            anti = np.fliplr(dephasing_mask(params)).diagonal()
            np.testing.assert_allclose(anti, mu_p_factor(params), rtol=0, atol=1e-15)


@given(unit, unit)
def test_mu_p_factor_factored_form(p, mu):
    factored = (1 - p) * ((1 - p) ** 2 + p * (2 - p) * mu * (2 - mu))
    assert mu_p_factor(ChannelParams(p, mu)) == pytest.approx(factored, abs=1e-15)


@given(unit, unit, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mask_keeps_states_valid_and_populations_fixed(p, mu, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    out = check_density_matrix(dephasing_mask(ChannelParams(p, mu)) * rho)
    # dephasing never touches populations
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)


@given(unit)
@settings(max_examples=30)
def test_memoryless_factorization(p):
    # without memory the errors are independent: M = m1 x m1 x m1
    m1 = np.array([[1.0, 1.0 - p], [1.0 - p, 1.0]])
    np.testing.assert_allclose(
        dephasing_mask(ChannelParams(p, 0.0)), np.kron(np.kron(m1, m1), m1), rtol=0, atol=1e-12
    )


def test_kraus_set_operators_are_read_only():
    params = ChannelParams(0.4, 0.3)
    ops = correlated_triple(params)
    assert isinstance(ops, np.ndarray) and ops.shape == (8, 8, 8)
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        ops[1] *= 2.0
    with pytest.raises(ValueError):
        dephasing_mask(params)[0, 7] = 2.0


# ---------------------------------------------------------------------------
# Differential tests: the stacked construction and the batched sums against
# literal per-operator loops.

GRID = [float(x) for x in np.linspace(0.0, 1.0, 11)]
SIGMA = {0: ID2, 3: SIGMA_Z}


def literal_triple(params):
    p = dict(zip((0, 3), params.error_probabilities()))
    mu = params.mu
    return [
        math.sqrt(((1 - mu) * p[i] + mu * (i == j)) * ((1 - mu) * p[j] + mu * (j == k)) * p[k])
        * np.kron(np.kron(SIGMA[i], SIGMA[j]), SIGMA[k])
        for i, j, k in itertools.product((0, 3), repeat=3)
    ]


def test_constructor_matches_literal_kron_loop():
    for p in GRID:
        for mu in GRID:
            params = ChannelParams(p, mu)
            np.testing.assert_allclose(
                correlated_triple(params), np.array(literal_triple(params)), rtol=0, atol=1e-15
            )


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
        ops = random_kraus_stack(rng, k, dim)
        rho = random_density(rng, dim)
        want = np.zeros((dim, dim), dtype=complex)
        for op in ops:
            want += op @ rho @ op.conj().T
        np.testing.assert_allclose(kraus_sum(ops, rho), want, rtol=0, atol=1e-15)


#: (p, mu) batches the Kraus kernels run on: the 21x21 grid, and stacked random points
KERNEL_BATCHES = {
    "21x21-grid": ChannelParams(*np.meshgrid(np.linspace(0.0, 1.0, 21),
                                             np.linspace(0.0, 1.0, 21), indexing="ij")),
    "random-3x5": ChannelParams(*np.random.default_rng(6).random((2, 3, 5))),
}


@pytest.mark.parametrize("batch", sorted(KERNEL_BATCHES))
def test_constructor_equals_the_complex_product_bitwise(batch):
    # the real product cast to complex, against the complex product, signs of zero included
    params = KERNEL_BATCHES[batch]
    ops = correlated_triple(params)
    want = np.sqrt(channel._triple_weights(params))[..., None, None] * channel._TRIPLE_PAULIS
    assert ops.dtype == np.complex128 and ops.shape == want.shape
    assert ops.tobytes() == want.tobytes()
    assert ops.flags.c_contiguous and not ops.flags.writeable


@pytest.mark.parametrize("batch", sorted(KERNEL_BATCHES))
def test_stacked_completeness_defect_equals_the_per_operator_sum(batch):
    ops = correlated_triple(KERNEL_BATCHES[batch])
    # a defect that is not rounding: every operator scaled by its own factor
    for stack in (ops, ops * np.linspace(0.9, 1.1, 8)[:, None, None]):
        want = np.zeros(stack.shape[:-3])
        for index in np.ndindex(want.shape):
            acc = sum(op.conj().T @ op for op in stack[index])
            want[index] = np.abs(acc - np.eye(8)).max()
        np.testing.assert_allclose(completeness_defect(stack), want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Broadcasting: array fields of ChannelParams stand for a (p, mu) grid, and
# every channel function must equal its per-point call on that grid.

AXIS = np.linspace(0.0, 1.0, 21)
MESH = np.meshgrid(AXIS, AXIS, indexing="ij")


def _states(shape):
    rng = np.random.default_rng(8)
    return np.array([random_density(rng, 8) for _ in range(math.prod(shape))]).reshape(
        shape + (8, 8)
    )


#: name -> (function of the params and the point's state, shape of one point's result)
BATCHED = {
    "_triple_weights": (lambda params, rho: channel._triple_weights(params), (8,)),
    "dephasing_mask": (lambda params, rho: dephasing_mask(params), (8, 8)),
    "correlated_triple": (lambda params, rho: correlated_triple(params), (8, 8, 8)),
    "completeness_defect": (
        lambda params, rho: completeness_defect(correlated_triple(params)), ()
    ),
    "kraus_sum": (lambda params, rho: kraus_sum(correlated_triple(params), rho), (8, 8)),
    "mu_p_factor": (lambda params, rho: mu_p_factor(params), ()),
}


@pytest.mark.parametrize("name", sorted(BATCHED))
@pytest.mark.parametrize("p,mu", [MESH, (0.3, AXIS)], ids=["21x21-mesh", "one-p-21-mu"])
def test_channel_functions_broadcast_over_p_and_mu(name, p, mu):
    fn, point_shape = BATCHED[name]
    shape = np.broadcast(p, mu).shape
    p, mu = np.broadcast_to(p, shape), np.broadcast_to(mu, shape)
    states = _states(shape)
    batch = fn(ChannelParams(p, mu), states)
    assert batch.shape == shape + point_shape
    for index in np.ndindex(shape):
        one = fn(ChannelParams(float(p[index]), float(mu[index])), states[index])
        np.testing.assert_allclose(batch[index], one, rtol=0, atol=1e-15)
    writeable = one.flags.writeable if isinstance(one, np.ndarray) else True
    assert batch.flags.writeable == writeable


# ---------------------------------------------------------------------------
# The index layout of the Pauli strings, and the players' positions on the
# chain: the weights are a reversible Markov chain, so only the mirror
# (Alice <-> Charlie) leaves the channel unchanged.

def test_triple_signs_are_popcount_parities():
    want = [[(-1.0) ** bin(n & x).count("1") for x in range(8)] for n in range(8)]
    np.testing.assert_array_equal(channel._TRIPLE_SIGNS, want)


def test_triple_paulis_are_diagonal_with_the_signs():
    # built apart, the Pauli strings and the sign table must agree entry for entry
    want = [np.diag(signs) for signs in channel._TRIPLE_SIGNS]
    np.testing.assert_array_equal(channel._TRIPLE_PAULIS, want)


RANDOM_POINTS = ChannelParams(*np.random.default_rng(11).random((2, 500)))


def test_weights_equal_their_mirror():
    # w_ijk = w_kji: detailed balance of the transition (1 - mu) p_j + mu d_jk
    weights = channel._triple_weights(RANDOM_POINTS)
    mirror = [oracle.players_moved(n, (2, 1, 0)) for n in range(8)]
    assert max_abs(weights - weights[:, mirror]) <= 1e-15


@pytest.mark.parametrize("order", list(itertools.permutations(range(3)))[1:],
                         ids=lambda order: "".join("ABC"[q] for q in order))
def test_mask_is_unchanged_only_by_the_mirror(order):
    mask = dephasing_mask(RANDOM_POINTS)
    moved = [oracle.players_moved(x, order) for x in range(8)]
    change = max_abs(mask - mask[:, moved][:, :, moved])
    if order == (2, 1, 0):
        assert change <= 1e-15
    else:
        # Alice and Charlie are not neighbours: 0.249 at these points
        assert change > 0.2
