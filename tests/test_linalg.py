"""Unit tests for the small linear-algebra helpers and the three-qubit index layout."""

from pathlib import Path

import numpy as np
import pytest

import qpd3
from qpd3.linalg import (
    BITS,
    FLIP,
    ID2,
    SIGMA_Z,
    InvariantViolation,
    as_complex_matrix,
    check_density_matrix,
    state_defects,
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
    # malformed shapes too: not 2-D, or an empty dimension
    with pytest.raises(ValueError, match="2-D"):
        as_complex_matrix(np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        as_complex_matrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_check_density_matrix_rejects_negative_minor():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(check_density_matrix(rho), rho)
    bad = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)  # 2x2 minor negative
    with pytest.raises(InvariantViolation):
        check_density_matrix(bad)


def negative_eigenvalue_state(a=0.9):
    """((1+a)I - aJ)/3 on three levels: every diagonal entry and every 2x2
    principal minor is positive, but the eigenvalue (1-2a)/3 is not."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[:3, :3] = ((1 + a) * np.eye(3) - a * np.ones((3, 3))) / 3
    return rho


def test_check_density_matrix_rejects_negative_eigenvalue_with_positive_minors():
    a = 0.9
    rho = negative_eigenvalue_state(a)
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


def valid_stack(count=20, seed=5):
    """``count`` random mixed 8x8 states."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3, 8)) + 1j * rng.normal(size=(count, 3, 8))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    weights = rng.dirichlet(np.ones(3), size=count)
    return np.einsum("nk,nki,nkj->nij", weights, vecs, vecs.conj())


def not_hermitian(rho):
    # upper triangle only: eigvalsh reads the lower one, so the spectrum is unchanged
    bad = rho.copy()
    bad[0, 1] += 1e-3
    return bad


#: property index -> a state failing that property alone
BAD_STATES = {
    0: not_hermitian,
    1: lambda rho: 1.01 * rho,  # still Hermitian and positive
    2: lambda rho: negative_eigenvalue_state(),  # Hermitian, unit trace
}


@pytest.mark.parametrize("prop", sorted(BAD_STATES), ids=["hermitian", "trace", "psd"])
def test_state_defects_flags_one_bad_state_in_a_stack(prop):
    stack = valid_stack()
    stack[7] = BAD_STATES[prop](stack[7])
    defects, valid = state_defects(stack)
    for k in range(3):
        assert defects[k].shape == valid[k].shape == (20,)
        want = [7] if k == prop else []
        assert np.flatnonzero(~valid[k]).tolist() == want
    assert np.flatnonzero(~np.all(valid, axis=0)).tolist() == [7]
    # each state of the stack as check_density_matrix judges it alone
    for i, state in enumerate(stack):
        if i == 7:
            with pytest.raises(InvariantViolation):
                check_density_matrix(state)
        else:
            check_density_matrix(state)


def test_state_defects_values():
    stack = valid_stack(3)
    stack[1] = negative_eigenvalue_state()
    stack[2] *= 1.5
    (herm, trace, neg), valid = state_defects(stack)
    assert max(herm[0], trace[0], neg[0]) <= 1e-15
    assert neg[1] == pytest.approx(-(1 - 2 * 0.9) / 3)
    assert trace[2] == pytest.approx(0.5)
    assert np.all(valid, axis=0).tolist() == [True, False, False]


# ---------------------------------------------------------------------------
# the three-qubit index layout, defined once

def test_bits_rows_are_the_basis_indices_alice_first():
    want = [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
            [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert BITS.shape == (8, 3) and BITS.dtype.kind == "i"
    assert BITS.tolist() == want
    assert (BITS @ [4, 2, 1]).tolist() == list(range(8))


def test_flip_pairs_each_index_with_its_complement():
    assert FLIP.shape == (8, 8) and FLIP.dtype == float
    for x in range(8):
        assert np.flatnonzero(FLIP[x]).tolist() == [7 - x] and FLIP[x, 7 - x] == 1.0
    np.testing.assert_array_equal(FLIP @ FLIP, np.eye(8))


@pytest.mark.parametrize("name", ["BITS", "FLIP"])
def test_layout_tables_are_read_only(name):
    table = {"BITS": BITS, "FLIP": FLIP}[name]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    with pytest.raises(ValueError):
        table *= 2


def test_layout_is_spelled_only_in_linalg():
    # every other module takes the index layout from BITS and FLIP
    modules = [path for path in sorted(Path(qpd3.__file__).parent.glob("*.py"))
               if path.name != "linalg.py"]
    assert len(modules) >= 7
    for path in modules:
        text = path.read_text(encoding="utf-8")
        for spelling in ("bin(", "itertools", ">> np.array([2, 1, 0])", "np.eye(8)[::-1]"):
            assert spelling not in text, f"{path.name} spells the layout itself: {spelling}"
