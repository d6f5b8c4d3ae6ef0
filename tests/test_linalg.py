"""Dense linear-algebra kernel: qubit layouts, promotion, partial operations, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    basis_ket,
    dagger,
    herm_eig,
    kron_all,
    partial_trace,
    partial_transpose,
    pauli_product_basis,
    proj,
    promote,
    reorder,
    trace_distance,
    trace_norm,
)
from pbitqkd.states import KEY_SHIELD_LAYOUT, DensityState, rho_h
from reference import check_density, random_density, random_unitary

L4 = ("A", "B", "A'", "B'")


def test_kron_all_matches_numpy():
    a = np.arange(4).reshape(2, 2).astype(complex)
    b = np.eye(2, dtype=complex) * 2
    assert np.allclose(kron_all(a, b, a), np.kron(np.kron(a, b), a))
    with pytest.raises(ValueError):
        kron_all()


def test_promote_in_layout_order():
    # X on A with everything else identity is X ⊗ I ⊗ I ⊗ I
    big = promote(PAULI_X, L4, ["A"])
    assert np.allclose(big, kron_all(PAULI_X, PAULI_I, PAULI_I, PAULI_I))
    # two-factor op on (B, B')
    op = np.kron(PAULI_X, PAULI_Z)
    big = promote(op, L4, ["B", "B'"])
    assert np.allclose(big, kron_all(PAULI_I, PAULI_X, PAULI_I, PAULI_Z))


def test_promote_respects_label_order_not_layout_order():
    # op indexed as (B', B): promoting with labels reversed must transpose the roles
    op = np.kron(PAULI_X, PAULI_Z)  # X on B', Z on B
    big = promote(op, L4, ["B'", "B"])
    assert np.allclose(big, kron_all(PAULI_I, PAULI_Z, PAULI_I, PAULI_X))


def test_promote_refuses_unknown_repeated_or_misshapen():
    with pytest.raises(KeyError):
        promote(PAULI_X, L4, ["Q"])  # a label the layout does not hold
    with pytest.raises(ValueError):
        promote(np.kron(PAULI_X, PAULI_Z), L4, ["B", "B"])  # a repeated label
    with pytest.raises(ValueError):
        promote(np.kron(PAULI_X, PAULI_Z), L4, ["B"])  # 4x4 operator on one qubit


def test_reorder_permutes_factors_and_their_layout():
    rng = np.random.default_rng(2)
    a, b, c, d = (random_density(2, rng) for _ in range(4))
    permuted = ("B'", "A", "B", "A'")
    mat = reorder(kron_all(a, b, c, d), L4, permuted)
    assert np.allclose(mat, kron_all(d, a, b, c))
    back = reorder(mat, permuted, L4)
    assert np.allclose(back, kron_all(a, b, c, d))
    for labels in (["A", "B"], ["A", "A", "B", "B'"], ["A", "B", "A'", "Q"]):
        with pytest.raises(ValueError):  # missing, repeated or unknown qubits
            reorder(mat, L4, labels)
    with pytest.raises(ValueError):
        reorder(np.eye(8), L4, L4)  # a matrix on three qubits


def test_partial_operations_refuse_unknown_labels_and_misshapen_matrices():
    rho = random_density(16, np.random.default_rng(4))
    with pytest.raises(KeyError):
        partial_trace(rho, L4, ["A", "Q"])
    with pytest.raises(KeyError):
        partial_transpose(rho, L4, ["Q"])
    with pytest.raises(ValueError):
        partial_trace(rho[:8, :8], L4, ["A"])
    with pytest.raises(ValueError):
        partial_transpose(rho[:, :8], L4, ["B"])


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(0)
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    lay = ("A", "B")
    red = partial_trace(np.kron(rho_a, rho_b), lay, ["A"])
    assert red.shape == (2, 2)
    assert np.allclose(red, rho_a, atol=1e-12)
    red_b = partial_trace(np.kron(rho_a, rho_b), lay, ["B"])
    assert np.allclose(red_b, rho_b, atol=1e-12)


def test_partial_trace_preserves_trace_and_order():
    rng = np.random.default_rng(1)
    rho = random_density(16, rng)
    red = partial_trace(rho, L4, ["B'", "A"])
    assert abs(np.trace(red) - 1.0) < 1e-12
    # the kept qubits come out in layout order (A, B'), not in the order listed
    a, b, c, d = (random_density(2, rng) for _ in range(4))
    red = partial_trace(kron_all(a, b, c, d), L4, ["B'", "A"])
    assert np.allclose(red, np.kron(a, d), atol=1e-12)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(2)
    rho = random_density(16, rng)
    pt = partial_transpose(rho, L4, ["B", "B'"])
    assert abs(np.trace(pt) - 1.0) < 1e-12
    again = partial_transpose(pt, L4, ["B", "B'"])
    assert np.allclose(again, rho, atol=1e-14)
    # transposing every factor is the full transpose
    full = partial_transpose(rho, L4, list(L4))
    assert np.allclose(full, rho.T, atol=1e-14)


def test_partial_transpose_detects_bell_entanglement():
    bell = proj(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    vals = np.linalg.eigvalsh(partial_transpose(bell, ("A", "B"), ["B"]))
    assert vals.min() < -0.49  # the famous -1/2 eigenvalue


def test_density_state_refuses_unknown_labels_and_misshapen_matrices():
    with pytest.raises(KeyError):
        rho_h(0.5).partial_trace(("A", "Q"))
    with pytest.raises(KeyError):
        rho_h(0.5).partial_transpose(("Q",))
    with pytest.raises(KeyError):
        rho_h(0.5).conjugate_by(PAULI_X, ["Q"])
    with pytest.raises(ValueError):
        DensityState(np.eye(8) / 8, KEY_SHIELD_LAYOUT)  # 3 qubits' matrix on 4 labels
    with pytest.raises(ValueError):
        DensityState(np.eye(4)[:, :2], ("A",))  # not square
    with pytest.raises(ValueError):
        DensityState(np.eye(4) / 4, ("A", "A"))  # a repeated label


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    vals, vecs = herm_eig(PAULI_Z)
    assert np.allclose(vals, [-1, 1])
    assert np.allclose(vecs @ np.diag(vals) @ dagger(vecs), PAULI_Z)


def test_norms_on_paulis():
    assert abs(trace_norm(PAULI_X) - 2.0) < 1e-12
    assert abs(np.sqrt(np.trace(dagger(PAULI_Z) @ PAULI_Z).real) - np.sqrt(2)) < 1e-12


def test_trace_distance_extremes():
    k0, k1 = proj(basis_ket(0, 2)), proj(basis_ket(1, 2))
    assert abs(trace_distance(k0, k1) - 1.0) < 1e-12
    assert trace_distance(k0, k0) == 0.0


def test_pauli_product_basis_orthonormal():
    basis = pauli_product_basis()
    assert [lab for lab, _ in basis][:5] == ["II", "IX", "IY", "IZ", "XI"]
    assert len(basis) == 16
    mats = [m for _, m in basis]
    gram = np.array([[np.trace(dagger(a) @ b) for b in mats] for a in mats])
    assert np.allclose(gram, np.eye(16), atol=1e-12)


def test_random_unitary_and_density():
    rng = np.random.default_rng(3)
    u = random_unitary(4, rng)
    assert np.allclose(dagger(u) @ u, np.eye(4), atol=1e-10)
    rho = random_density(4, rng, rank=2)
    check_density(rho)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 2


def test_check_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_density(np.eye(2) * 0.7)  # wrong trace
    with pytest.raises(ValueError):
        check_density(np.diag([1.2, -0.2]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))  # not Hermitian


def test_basis_ket_and_proj():
    v = basis_ket(2, 4)
    assert v[2] == 1.0 and np.sum(np.abs(v)) == 1.0
    with pytest.raises(ValueError):
        basis_ket(4, 4)
    p = proj(np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(p, 0.5 * np.ones((2, 2)))


# --- property tests -----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_transpose_is_trace_preserving_involution(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(16, rng)
    pt = partial_transpose(rho, L4, ["B", "B'"])
    assert abs(np.trace(pt).real - 1.0) < 1e-10
    assert np.allclose(partial_transpose(pt, L4, ["B", "B'"]), rho, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_distance_triangle_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(4, rng) for _ in range(3))
    dab, dba = trace_distance(a, b), trace_distance(b, a)
    assert abs(dab - dba) < 1e-12
    assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_promote_multiplicativity(seed):
    # promoting commuting-factor ops multiplies: promote(a)promote(b) = promote on both
    rng = np.random.default_rng(seed)
    a = random_unitary(2, rng)
    b = random_unitary(2, rng)
    lhs = promote(a, L4, ["B"]) @ promote(b, L4, ["A'"])
    rhs = promote(np.kron(a, b), L4, ["B", "A'"])
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_contracts_expectations(seed):
    # Tr[rho (O_B ⊗ I)] equals Tr[Tr_{not B}(rho) O_B]
    rng = np.random.default_rng(seed)
    rho = random_density(16, rng)
    o = random_density(2, rng)  # any Hermitian works; density is convenient
    big = promote(o, L4, ["B"])
    red = partial_trace(rho, L4, ["B"])
    assert abs(np.trace(rho @ big) - np.trace(red @ o)) < 1e-10
