"""The correlated three-qubit dephasing channel with nearest-neighbour memory.

Each qubit suffers a sigma_z error with probability p/2, i.e. error
probabilities (p0, p3) = (1 - p/2, p/2) for the identity and the sigma_z
error.  The errors on neighbouring qubits are correlated with degree ``mu``;
the Kraus operators are

    A_ijk = sqrt( [(1-mu) p_i + mu d_ij]
                  [(1-mu) p_j + mu d_jk] p_k ) sigma_i x sigma_j x sigma_k

with indices in {0, 3} (identity, sigma_z) and d the Kronecker delta.  The
weight chains the deltas asymmetrically (d_ij then d_jk, bare p_k last); that
ordering is kept literally and the permutation-symmetrised alternative is
deliberately not used.  With mu=0 the weights factor into p_i p_j p_k
(independent errors); with mu=1 only identical errors survive.  Zero-weight
operators are kept so the index bookkeeping stays uniform.

:func:`correlated_triple` builds the operators, which define the channel;
:func:`dephasing_mask` is the elementwise mask the validated evaluation runs;
the fast evaluation needs only its anti-diagonal, :func:`mu_p_factor`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_ATOL, ID2, SIGMA_Z, InvariantViolation, max_abs

#: Pauli operators selected by the channel index set {0, 3}.
_SIGMA = {0: ID2, 3: SIGMA_Z}

#: Three-qubit index triples in operator order.
_TRIPLE_INDICES = tuple(itertools.product((0, 3), repeat=3))

#: _TRIPLE_PAULIS[m]: sigma_i x sigma_j x sigma_k of the m-th index triple.  Built
#: apart from _TRIPLE_SIGNS, so the operators and the mask check each other.
_TRIPLE_PAULIS = np.stack(
    [np.kron(np.kron(_SIGMA[i], _SIGMA[j]), _SIGMA[k]) for i, j, k in _TRIPLE_INDICES]
)

#: _TRIPLE_SIGNS[n, x]: diagonal entry x of the Pauli product of index triple
#: n.  Bits of n and x are (Alice, Bob, Charlie) from the top; triple n has
#: sigma_z on the qubits of n's set bits, so the entry is (-1)^popcount(n & x).
_TRIPLE_SIGNS = np.array([[(-1.0) ** bin(n & x).count("1") for x in range(8)] for n in range(8)])


@dataclass(frozen=True)
class ChannelParams:
    """One channel passage: decoherence strength ``p`` and memory ``mu``."""

    p: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"decoherence parameter p must be in [0, 1], got {self.p}")
        if not (np.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise ValueError(f"memory parameter mu must be in [0, 1], got {self.mu}")

    def error_probabilities(self) -> tuple[float, float]:
        """(p0, p3) = (1 - p/2, p/2), fixed by the single-qubit amplitudes."""
        return (1.0 - self.p / 2.0, self.p / 2.0)


def completeness_defect(ops: np.ndarray) -> float:
    """Max-norm of (sum_k A_k† A_k - I) over a (K, d, d) stack of operators."""
    return max_abs(np.einsum("kji,kjl->il", ops.conj(), ops) - np.eye(ops.shape[-1]))


def _triple_weights(params: ChannelParams) -> list[float]:
    """Weights w_ijk of A_ijk = sqrt(w_ijk) sigma_i x sigma_j x sigma_k, in index order.

    The weight [(1-mu)p_i + mu d_ij][(1-mu)p_j + mu d_jk] p_k is evaluated
    literally, including the asymmetric delta chaining.
    """
    p = {0: params.error_probabilities()[0], 3: params.error_probabilities()[1]}
    mu = params.mu
    return [
        ((1.0 - mu) * p[i] + mu * (i == j)) * ((1.0 - mu) * p[j] + mu * (j == k)) * p[k]
        for i, j, k in _TRIPLE_INDICES
    ]


def mu_p_factor(params: ChannelParams) -> float:
    """Coherence survival factor of one channel passage.

    Literal polynomial
        (1 - p)(1 - 2p + 4 mu p - 2 mu^2 p + p^2 - 2 mu p^2 + mu^2 p^2);
    equals every anti-diagonal entry M[x, 7 - x] of M = dephasing_mask(params),
    which the kernel of :class:`qpd3.game.PreparedGame` relies on.
    Limits: 1 at p=0, (1-p)^3 at mu=0, (1-p) at mu=1.
    """
    p, mu = params.p, params.mu
    return (1.0 - p) * (
        1.0 - 2.0 * p + 4.0 * mu * p - 2.0 * mu**2 * p
        + p**2 - 2.0 * mu * p**2 + mu**2 * p**2
    )


def correlated_triple(params: ChannelParams) -> np.ndarray:
    """The Kraus operators A_ijk, as a read-only (8, 8, 8) stack in index order.

    Completeness, sum A†A = I, is checked at construction.
    """
    ops = np.sqrt(_triple_weights(params))[:, None, None] * _TRIPLE_PAULIS
    defect = completeness_defect(ops)
    if defect > DEFAULT_ATOL:
        raise InvariantViolation(
            f"Kraus set is not trace preserving: |sum A†A - I| = {defect:.3e}"
        )
    ops.flags.writeable = False
    return ops


def kraus_sum(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k† without any validation (the definition the mask is checked against)."""
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def dephasing_mask(params: ChannelParams) -> np.ndarray:
    """The correlated three-qubit channel as an elementwise mask.

    Every A_ijk is diagonal with entries sqrt(w_ijk) s_ijk(x), s = +-1, so
    sum_ijk A_ijk rho A_ijk† = M o rho with M_xy = sum_ijk w_ijk s_ijk(x) s_ijk(y).
    M is real and symmetric, and M_xx = sum_ijk w_ijk; trace preservation, the
    completeness check of the Kraus set, is therefore checked on the diagonal.
    The returned array is read-only.
    """
    mask = (_TRIPLE_SIGNS.T * _triple_weights(params)) @ _TRIPLE_SIGNS
    defect = max_abs(mask.diagonal() - 1.0)
    if defect > DEFAULT_ATOL:
        raise InvariantViolation(f"dephasing mask is not trace preserving: defect {defect:.3e}")
    mask.flags.writeable = False
    return mask
