"""Unit tests for the small linear-algebra helpers."""

import numpy as np
import pytest

from qpd3.linalg import (
    ID2,
    SIGMA_Z,
    InvariantViolation,
    as_complex_matrix,
    check_density_matrix,
)


def test_matmul_identity_and_pauli():
    np.testing.assert_allclose(ID2 @ SIGMA_Z, SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(SIGMA_Z @ SIGMA_Z, ID2, atol=1e-15)
    # sigma_x sigma_z = -i sigma_y
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(
        sigma_x @ SIGMA_Z, np.array([[0, -1], [1, 0]], dtype=complex), atol=1e-15
    )


def test_trace_cases():
    # check_density_matrix requires a square matrix of unit trace
    proj = np.zeros((8, 8), dtype=complex)
    proj[0, 0] = 1.0
    np.testing.assert_allclose(check_density_matrix(proj), proj)
    for bad in (np.eye(8), 0.5 * proj, np.zeros((8, 8))):
        with pytest.raises(InvariantViolation, match="trace"):
            check_density_matrix(bad)
    with pytest.raises(ValueError):
        check_density_matrix(np.ones((2, 3)) / 2)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_check_density_matrix_rejects_negative_minor():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(check_density_matrix(rho), rho)
    bad = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)  # 2x2 minor negative
    with pytest.raises(InvariantViolation):
        check_density_matrix(bad)


def test_check_density_matrix_rejects_negative_eigenvalue_with_positive_minors():
    # ((1+a)I - aJ)/3 on three levels: every diagonal entry and every 2x2
    # principal minor is positive, but the eigenvalue (1-2a)/3 is not.
    a = 0.9
    rho = np.zeros((8, 8), dtype=complex)
    rho[:3, :3] = ((1 + a) * np.eye(3) - a * np.ones((3, 3))) / 3
    assert np.linalg.eigvalsh(rho).min() == pytest.approx((1 - 2 * a) / 3)
    with pytest.raises(InvariantViolation, match="positive semidefinite"):
        check_density_matrix(rho)


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(InvariantViolation):
        check_density_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        check_density_matrix(np.eye(2, dtype=complex))  # trace 2
    ok = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_allclose(check_density_matrix(ok), ok)
