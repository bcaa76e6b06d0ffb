"""Dephasing Kraus channels, uncorrelated and with nearest-neighbour memory.

The single-qubit dephasing channel with decoherence parameter ``p`` has Kraus
operators

    A0 = sqrt(1 - p/2) I,     A1 = sqrt(p/2) sigma_z

i.e. error probabilities (p0, p3) = (1 - p/2, p/2) for the identity and the
sigma_z error.  The memoryful extensions correlate the errors on neighbouring
qubits with degree ``mu``:

    two qubits:    A_ij  = sqrt( p_i [(1-mu) p_j + mu d_ij] ) sigma_i x sigma_j
    three qubits:  A_ijk = sqrt( [(1-mu) p_i + mu d_ij]
                                 [(1-mu) p_j + mu d_jk] p_k ) sigma_i x sigma_j x sigma_k

with indices in {0, 3} (identity, sigma_z) and d the Kronecker delta.  The
three-qubit weight chains the deltas asymmetrically (d_ij then d_jk, bare p_k
last); that ordering is kept literally and the permutation-symmetrised
alternative is deliberately not used.  With mu=0 the weights factor into
p_i p_j p_k (independent errors); with mu=1 only identical errors survive.
Zero-weight operators are kept so the index bookkeeping stays uniform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_ATOL,
    ID2,
    SIGMA_Z,
    InvariantViolation,
    as_complex_matrix,
    check_density_matrix,
    kron_all,
    max_abs,
)

#: Pauli operators selected by the channel index set {0, 3}.
_SIGMA = {0: ID2, 3: SIGMA_Z}

#: Three-qubit index triples in operator order.
_TRIPLE_INDICES = tuple(itertools.product((0, 3), repeat=3))

#: _PAULIS[n][m]: the n-qubit Pauli product of index tuple m, tuples in
#: ``itertools.product`` order, stacked as one (2**n, 2**n, 2**n) array.
_PAULIS = {
    n: np.stack([kron_all(*(_SIGMA[i] for i in idx)) for idx in itertools.product((0, 3), repeat=n)])
    for n in (1, 2, 3)
}

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


@dataclass(frozen=True)
class KrausSet:
    """An ordered, trace-preserving set of Kraus operators on one dimension.

    ``operators`` is stored as one read-only complex array of shape
    (K, dim, dim); it may be given as any sequence of dim x dim matrices.
    """

    dim: int
    operators: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        ops = np.array(self.operators, dtype=complex)  # ragged input raises ValueError
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1:] != (self.dim, self.dim):
            raise ValueError(
                f"Kraus operators of shape {ops.shape} are not a non-empty stack of "
                f"{self.dim}x{self.dim} matrices"
            )
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators contain non-finite entries")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        defect = completeness_defect(ops)
        if defect > DEFAULT_ATOL:
            raise InvariantViolation(
                f"Kraus set is not trace preserving: |sum A†A - I| = {defect:.3e}"
            )


def completeness_defect(operators) -> float:
    """Max-norm of (sum_k A_k† A_k - I) over a (K, d, d) stack of operators."""
    ops = np.asarray(operators, dtype=complex)
    return max_abs(np.einsum("kji,kjl->il", ops.conj(), ops) - np.eye(ops.shape[-1]))


def _pauli_channel(weights, n: int) -> KrausSet:
    """The n-qubit Kraus set sqrt(w_m) * _PAULIS[n][m]."""
    return KrausSet(2**n, np.sqrt(weights)[:, None, None] * _PAULIS[n])


def dephasing_single(params: ChannelParams) -> KrausSet:
    """Single-qubit dephasing channel; ``mu`` is ignored at this arity."""
    return _pauli_channel(params.error_probabilities(), 1)


def product_channel(single: KrausSet, n: int) -> KrausSet:
    """Uncorrelated n-qubit extension: all n-fold tensor products of ``single``.

    Operator order follows ``itertools.product`` over the index tuples, with
    tuple position mapping to tensor slot left to right.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n == 1:
        return single
    ops = single.operators
    for _ in range(n - 1):
        # (A_a x B_b)[(i, k), (j, l)] = A_a[i, j] B_b[k, l], operator index (a, b)
        k, d = ops.shape[0] * len(single.operators), ops.shape[1] * single.dim
        ops = np.einsum("aij,bkl->abikjl", ops, single.operators).reshape(k, d, d)
    return KrausSet(single.dim**n, ops)


def correlated_pair(params: ChannelParams) -> KrausSet:
    """Two-qubit dephasing with memory, indices (i, j) in {0, 3}^2."""
    p = {0: params.error_probabilities()[0], 3: params.error_probabilities()[1]}
    mu = params.mu
    weights = [
        p[i] * ((1.0 - mu) * p[j] + mu * (i == j)) for i, j in itertools.product((0, 3), repeat=2)
    ]
    return _pauli_channel(weights, 2)


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


def correlated_triple(params: ChannelParams) -> KrausSet:
    """Three-qubit dephasing with memory, indices (i, j, k) in {0, 3}^3."""
    return _pauli_channel(_triple_weights(params), 3)


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


def kraus_sum(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k† without any validation (the definition the mask is checked against)."""
    ops = ks.operators
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_channel(ks: KrausSet, rho, tol: float = DEFAULT_ATOL) -> np.ndarray:
    """Apply the channel to a density matrix and re-validate the output.

    Raises ValueError on a dimension mismatch and InvariantViolation if the
    Kraus set lost completeness or the output fails the density-matrix checks.
    """
    rho = as_complex_matrix(rho)
    if rho.shape != (ks.dim, ks.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {ks.dim}")
    defect = completeness_defect(ks.operators)
    if defect > tol:
        raise InvariantViolation(
            f"Kraus set is not trace preserving: |sum A†A - I| = {defect:.3e}"
        )
    return check_density_matrix(kraus_sum(ks, rho), tol)
