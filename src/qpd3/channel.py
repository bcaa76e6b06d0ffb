"""The correlated three-qubit dephasing channel with nearest-neighbour memory.

Each qubit suffers a sigma_z error with probability p/2, i.e. error
probabilities (p0, p3) = (1 - p/2, p/2) for the identity and the sigma_z
error.  The errors on neighbouring qubits are correlated with degree ``mu``;
the Kraus operators are

    A_ijk = sqrt( [(1-mu) p_i + mu d_ij]
                  [(1-mu) p_j + mu d_jk] p_k ) sigma_i x sigma_j x sigma_k

with indices in {0, 3} (identity, sigma_z), the rows of :data:`qpd3.linalg.BITS`
with bit 1 for index 3, and d the Kronecker delta.  The weight is a Markov
chain read from Charlie, and its transition (1-mu) p_j + mu d_jk is reversible,
so w_ijk = w_kji: the channel is unchanged when Alice and Charlie swap places,
but not under the other permutations, as Alice and Charlie are not neighbours.
With mu=0 the weights factor into p_i p_j p_k; with mu=1 only identical errors
survive.  Zero-weight operators are kept so the index bookkeeping stays uniform.

:func:`correlated_triple` builds the operators, which define the channel;
:func:`dephasing_mask` is the elementwise mask the validated evaluation runs;
the fast evaluation needs only its anti-diagonal, :func:`mu_p_factor`.  All of
them broadcast over ``(p, mu)`` arrays, with the grid's axes leading, so
:mod:`qpd3.verify` checks its grids as array passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BITS, DEFAULT_ATOL, ID2, SIGMA_Z, InvariantViolation

#: _TRIPLE_PAULIS[n]: the Pauli string of index triple n, sigma_z where BITS[n] is 1.
#: Built apart from _TRIPLE_SIGNS, so the operators and the mask check each other.
_TRIPLE_PAULIS = np.stack([np.kron(np.kron(sigma_i, sigma_j), sigma_k)
                           for sigma_i, sigma_j, sigma_k in np.stack((ID2, SIGMA_Z))[BITS]])

#: _TRIPLE_SIGNS[n, x] = (-1)^popcount(n & x): diagonal entry x of Pauli string n.
_TRIPLE_SIGNS = (-1.0) ** (BITS @ BITS.T)


@dataclass(frozen=True, eq=False)
class ChannelParams:
    """One channel passage: decoherence strength ``p`` and memory ``mu``, or arrays of them."""

    p: float
    mu: float

    def __post_init__(self):
        for name, value in (("decoherence parameter p", self.p), ("memory parameter mu", self.mu)):
            inside = (0.0 <= value) & (value <= 1.0)  # False at NaN and inf; a bool for floats
            if not (inside is True or np.all(inside)):
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def error_probabilities(self) -> tuple[float, float]:
        """(p0, p3) = (1 - p/2, p/2), fixed by the single-qubit amplitudes."""
        return (1.0 - self.p / 2.0, self.p / 2.0)


def completeness_defect(ops: np.ndarray) -> float | np.ndarray:
    """Max-norm of (sum_k A_k† A_k - I), one Gram of the stacked rows, per (K, d, d) stack."""
    rows = ops.reshape(ops.shape[:-3] + (-1, ops.shape[-1]))
    gram = rows.conj().swapaxes(-1, -2) @ rows
    return np.abs(gram - np.eye(ops.shape[-1])).max(axis=(-2, -1))


def _triple_weights(params: ChannelParams) -> np.ndarray:
    """Weights w_ijk of A_ijk = sqrt(w_ijk) sigma_i x sigma_j x sigma_k, on a trailing axis of 8.

    The weight [(1-mu)p_i + mu d_ij][(1-mu)p_j + mu d_jk] p_k is evaluated
    literally, in this product order; it equals its mirror w_kji (module docstring).
    """
    p, mu, q = params.error_probabilities(), params.mu, 1.0 - params.mu
    weights = np.array([
        (q * p[i] + mu * (i == j)) * (q * p[j] + mu * (j == k)) * p[k]
        for i, j, k in BITS.tolist()
    ])
    return weights.transpose(*range(1, weights.ndim), 0)  # batch axes first


def mu_p_factor(params: ChannelParams) -> float | np.ndarray:
    """Coherence survival factor of one channel passage.

    Literal polynomial
        (1 - p)(1 - 2p + 4 mu p - 2 mu^2 p + p^2 - 2 mu p^2 + mu^2 p^2);
    equals every anti-diagonal entry M[x, 7 - x] of M = dephasing_mask(params),
    which the fast path (``game.payoffs``, ``game.deviation_form``) relies on.
    Limits: 1 at p=0, (1-p)^3 at mu=0, (1-p) at mu=1.
    """
    p, mu = params.p, params.mu
    return (1.0 - p) * (
        1.0 - 2.0 * p + 4.0 * mu * p - 2.0 * mu**2 * p
        + p**2 - 2.0 * mu * p**2 + mu**2 * p**2
    )


def correlated_triple(params: ChannelParams) -> np.ndarray:
    """The Kraus operators A_ijk, as a read-only (..., 8, 8, 8) stack in index order.

    A real product cast C-ordered: the complex product's bits, reshaped without a copy.
    Completeness, sum A†A = I, is checked at construction, at every point.
    """
    roots = np.sqrt(_triple_weights(params))[..., None, None]
    ops = (roots * _TRIPLE_PAULIS.real).astype(complex, order="C")
    defect = completeness_defect(ops)
    if (defect > DEFAULT_ATOL).any():
        raise InvariantViolation(
            f"Kraus set is not trace preserving: |sum A†A - I| = {defect.max():.3e}"
        )
    ops.flags.writeable = False
    return ops


def kraus_sum(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k† without any validation (the definition the mask is checked against)."""
    return (ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)


def dephasing_mask(params: ChannelParams) -> np.ndarray:
    """The correlated three-qubit channel as an elementwise mask.

    Every A_ijk is diagonal with entries sqrt(w_ijk) s_ijk(x), s = +-1, so
    sum_ijk A_ijk rho A_ijk† = M o rho with M_xy = sum_ijk w_ijk s_ijk(x) s_ijk(y).
    M is real and symmetric, and M_xx = sum_ijk w_ijk; trace preservation, the
    completeness check of the Kraus set, is therefore checked on the diagonal,
    at every point.  The returned (..., 8, 8) array is read-only.
    """
    mask = (_TRIPLE_SIGNS.T * _triple_weights(params)[..., None, :]) @ _TRIPLE_SIGNS
    defect = np.abs(mask.diagonal(0, -2, -1) - 1.0).max()
    if defect > DEFAULT_ATOL:
        raise InvariantViolation(f"dephasing mask is not trace preserving: defect {defect:.3e}")
    mask.flags.writeable = False
    return mask
