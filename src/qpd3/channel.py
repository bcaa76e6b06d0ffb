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
    frozen,
    kron_all,
    max_abs,
)

#: Pauli operators selected by the channel index set {0, 3}.
_SIGMA = {0: ID2, 3: SIGMA_Z}

#: Three-qubit index triples in operator order.
_TRIPLE_INDICES = tuple(itertools.product((0, 3), repeat=3))

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
    """An ordered, trace-preserving set of Kraus operators on one dimension."""

    dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        ops = tuple(frozen(as_complex_matrix(op)) for op in self.operators)
        for op in ops:
            if op.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {op.shape} does not match dim {self.dim}"
                )
        object.__setattr__(self, "operators", ops)
        defect = completeness_defect(ops)
        if defect > DEFAULT_ATOL:
            raise InvariantViolation(
                f"Kraus set is not trace preserving: |sum A†A - I| = {defect:.3e}"
            )


def completeness_defect(operators) -> float:
    """Max-norm of (sum_k A_k† A_k - I)."""
    ops = [as_complex_matrix(op) for op in operators]
    dim = ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        acc += op.conj().T @ op
    return max_abs(acc - np.eye(dim))


def dephasing_single(params: ChannelParams) -> KrausSet:
    """Single-qubit dephasing channel; ``mu`` is ignored at this arity."""
    p0, p3 = params.error_probabilities()
    return KrausSet(2, (np.sqrt(p0) * ID2, np.sqrt(p3) * SIGMA_Z))


def product_channel(single: KrausSet, n: int) -> KrausSet:
    """Uncorrelated n-qubit extension: all n-fold tensor products of ``single``.

    Operator order follows ``itertools.product`` over the index tuples, with
    tuple position mapping to tensor slot left to right.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n == 1:
        return single
    ops = [
        kron_all(*(single.operators[k] for k in idx))
        for idx in itertools.product(range(len(single.operators)), repeat=n)
    ]
    return KrausSet(single.dim**n, tuple(ops))


def correlated_pair(params: ChannelParams) -> KrausSet:
    """Two-qubit dephasing with memory, indices (i, j) in {0, 3}^2."""
    p = {0: params.error_probabilities()[0], 3: params.error_probabilities()[1]}
    mu = params.mu
    ops = []
    for i, j in itertools.product((0, 3), repeat=2):
        weight = p[i] * ((1.0 - mu) * p[j] + mu * (i == j))
        ops.append(np.sqrt(weight) * kron_all(_SIGMA[i], _SIGMA[j]))
    return KrausSet(4, tuple(ops))


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
    ops = [
        np.sqrt(w) * kron_all(_SIGMA[i], _SIGMA[j], _SIGMA[k])
        for w, (i, j, k) in zip(_triple_weights(params), _TRIPLE_INDICES)
    ]
    return KrausSet(8, tuple(ops))


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
    out = np.zeros_like(rho)
    for op in ks.operators:
        out += op @ rho @ op.conj().T
    return out


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
