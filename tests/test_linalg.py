"""Unit and property tests for the small linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpd3.linalg import (
    ID2,
    SIGMA_Z,
    InvariantViolation,
    as_complex_matrix,
    check_density_matrix,
    kron_all,
    max_abs,
    trace,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def random_matrix(draw, n):
    re = draw(st.lists(finite, min_size=n * n, max_size=n * n))
    im = draw(st.lists(finite, min_size=n * n, max_size=n * n))
    return (np.array(re) + 1j * np.array(im)).reshape(n, n)


matrices_2x2 = st.builds(
    lambda re, im: (np.array(re) + 1j * np.array(im)).reshape(2, 2),
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
)


def test_matmul_identity_and_pauli():
    np.testing.assert_allclose(ID2 @ SIGMA_Z, SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(SIGMA_Z @ SIGMA_Z, ID2, atol=1e-15)
    # sigma_x sigma_z = -i sigma_y
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(
        sigma_x @ SIGMA_Z, np.array([[0, -1], [1, 0]], dtype=complex), atol=1e-15
    )


def test_kron_cases():
    np.testing.assert_allclose(kron_all(ID2, ID2), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(kron_all(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]), atol=1e-15)
    np.testing.assert_allclose(
        kron_all(SIGMA_Z, ID2, SIGMA_Z),
        np.diag([1, -1, 1, -1, -1, 1, -1, 1]),
        atol=1e-15,
    )


def test_trace_cases():
    assert trace(np.eye(8)) == pytest.approx(8)
    assert trace(SIGMA_Z) == pytest.approx(0)
    proj = np.zeros((8, 8), dtype=complex)
    proj[0, 0] = 1.0
    assert trace(proj) == pytest.approx(1)
    with pytest.raises(ValueError):
        trace(np.ones((2, 3)))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        trace(np.array([[np.inf, 0], [0, 1]]))


@given(matrices_2x2, matrices_2x2)
@settings(max_examples=50)
def test_trace_cyclic(a, b):
    assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12 * (1 + max_abs(a) * max_abs(b))


@given(matrices_2x2, matrices_2x2, matrices_2x2)
@settings(max_examples=30)
def test_kron_associative(a, b, c):
    np.testing.assert_allclose(
        kron_all(kron_all(a, b), c), kron_all(a, kron_all(b, c)), atol=1e-9
    )


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
