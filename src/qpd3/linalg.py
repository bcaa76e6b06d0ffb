"""Small dense complex linear algebra for states and operators up to 8x8.

Everything is a plain ``numpy.ndarray`` with dtype complex128.  The helpers
here add the validation this package relies on (finiteness, shape checks,
Hermiticity, unit trace and positivity of states) on top of numpy's
arithmetic.  The only decomposition used is the Hermitian eigenvalue solver
behind the positivity check; nothing is inverted.
"""

from __future__ import annotations

import numpy as np

#: Default absolute tolerance for all numeric comparisons in this package.
DEFAULT_ATOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


def kron_all(*mats) -> np.ndarray:
    """Left-associated Kronecker product of one or more matrices."""
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    out = as_complex_matrix(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_complex_matrix(m))
    return out


def trace(a) -> complex:
    """Sum of diagonal entries; requires a square matrix."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def max_abs(a) -> float:
    """Max-norm (largest entrywise modulus)."""
    return float(np.max(np.abs(np.asarray(a))))


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, positive semidefinite).

    Each property is checked to ``DEFAULT_ATOL``.  Returns the coerced array
    on success, raises InvariantViolation on the first failed property.
    """
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    herm_defect = max_abs(rho - rho.conj().T)
    if herm_defect > DEFAULT_ATOL:
        raise InvariantViolation(
            f"state is not Hermitian: defect {herm_defect:.3e} > {DEFAULT_ATOL:.1e}"
        )
    tr = trace(rho)
    if abs(tr - 1.0) > DEFAULT_ATOL:
        raise InvariantViolation(
            f"state trace {tr} deviates from 1 by more than {DEFAULT_ATOL:.1e}"
        )
    smallest = np.linalg.eigvalsh(rho).min()
    if smallest < -DEFAULT_ATOL:
        raise InvariantViolation(
            f"state is not positive semidefinite: smallest eigenvalue {smallest:.3e}"
        )
    return rho
