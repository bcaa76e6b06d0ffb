"""Small dense complex linear algebra for states and operators up to 8x8.

States and operators are plain complex128 ``numpy.ndarray``s; the helpers add
the validation this package relies on (finiteness, shape checks, and
Hermiticity, unit trace and positivity of states, one by one or as a stack).
The only decomposition is the Hermitian eigenvalue solver of the positivity
check; nothing is inverted.  The three-qubit index layout, BITS and FLIP, is here.
"""

from __future__ import annotations

import numpy as np

#: Default absolute tolerance for all numeric comparisons in this package.
DEFAULT_ATOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: The three-qubit index layout: BITS[x, q] is bit q of basis index x, Alice (q = 0) first.
#: In a move profile 1 is Defect; in a Pauli string 1 is sigma_z and 0 the identity.
BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
BITS.flags.writeable = False

#: The 8x8 anti-identity J: it pairs basis index x with its complement 7 - x.
FLIP = np.eye(8)[::-1]
FLIP.flags.writeable = False


class InvariantViolation(RuntimeError):
    """A numerical invariant (trace preservation, Hermiticity, ...) failed."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def max_abs(a) -> float:
    """Max-norm (largest entrywise modulus)."""
    return float(np.max(np.abs(np.asarray(a))))


def state_defects(rho) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per state of a ``(..., d, d)`` stack: three defects, and whether each is <= DEFAULT_ATOL."""
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    trace = abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    neg = -np.linalg.eigvalsh(rho).min(axis=-1)
    return (herm, trace, neg), (herm <= DEFAULT_ATOL, trace <= DEFAULT_ATOL, neg <= DEFAULT_ATOL)


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, positive semidefinite).

    Each property is checked by :func:`state_defects`.  Returns the coerced
    array on success, raises InvariantViolation on the first failed property.
    """
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    (herm_defect, _, neg), (hermitian, unit_trace, psd) = state_defects(rho)
    if not hermitian:
        raise InvariantViolation(
            f"state is not Hermitian: defect {herm_defect:.3e} > {DEFAULT_ATOL:.1e}"
        )
    if not unit_trace:
        raise InvariantViolation(
            f"state trace {np.trace(rho)} deviates from 1 by more than {DEFAULT_ATOL:.1e}"
        )
    if not psd:
        raise InvariantViolation(
            f"state is not positive semidefinite: smallest eigenvalue {-neg:.3e}"
        )
    return rho
