"""Reference constructions that the tests check the library against.

No CLI command and no protocol run reaches these, so they live with the
tests: Haar-random unitaries and twistings, Ginibre density matrices, a
density-matrix check, the Bell projectors, expectation values, a Pauli
pattern's hit on Bob's key qubit, the matrix a coefficient table stands for,
the local eigen-systems of the Pauli products and the joint-outcome
projection that the run set-up's tables are checked against.  States are
plain matrices on the arena ``KEY_SHIELD_LAYOUT`` unless a docstring says
otherwise.
"""

import numpy as np

from pbitqkd.linalg import (
    PAULI_EIGVECS, PAULI_PRODUCT_LABELS, PAULI_PRODUCTS, PAULI_X, PAULI_Z, dagger, promote, proj,
    reorder,
)
from pbitqkd.states import _SIDES_LAYOUT, KEY_SHIELD_LAYOUT, bell_vec
from pbitqkd.twist import key_controlled


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is Haar
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph[np.newaxis, :]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix (Ginibre ensemble, optionally rank-restricted)."""
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def check_density(mat: np.ndarray) -> None:
    """Raise ValueError unless ``mat`` is a density matrix within 1e-9."""
    tol = 1e-9
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"not square: shape {mat.shape}")
    herm_dev = np.max(np.abs(mat - dagger(mat)))
    if herm_dev > tol:
        raise ValueError(f"not Hermitian (deviation {herm_dev:.3e})")
    tr = np.trace(mat)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} is not 1")
    vals = np.linalg.eigvalsh(mat)
    if vals.min() < -tol:
        raise ValueError(f"negative eigenvalue {vals.min():.3e}")


def bell_state(k: int) -> np.ndarray:
    """Bell projector |psi_k><psi_k| on A ⊗ B."""
    return proj(bell_vec(k))


def expect(rho: np.ndarray, op: np.ndarray) -> float:
    """Real expectation value Tr[rho op] of a Hermitian observable."""
    return float(np.trace(rho @ op).real)


def pauli_flip(rho: np.ndarray, x: int, z: int) -> np.ndarray:
    """``rho`` with Bob's key qubit B conjugated by Z^z X^x: a copy hit by pattern code 2x + z."""
    op = np.linalg.matrix_power(PAULI_Z, z) @ np.linalg.matrix_power(PAULI_X, x)
    big = promote(op, KEY_SHIELD_LAYOUT, ["B"])
    return big @ rho @ dagger(big)


def random_twisting(rng: np.random.Generator) -> np.ndarray:
    """Twisting with independent Haar-random shield blocks, drawn in key order 00, 01, 10, 11."""
    return key_controlled(*[random_unitary(4, rng) for _ in range(4)])


def reconstruct(coeffs: np.ndarray) -> np.ndarray:
    """Rebuild the matrix sum_jajb s O_ja ⊗ O_jb on A ⊗ B ⊗ A' ⊗ B'."""
    # each O_j is indexed (key row, shield row, key col, shield col)
    basis = PAULI_PRODUCTS.reshape(16, 2, 2, 2, 2)
    out = np.einsum("ab,apqrs,btuvw->ptqurvsw", coeffs, basis, basis)
    return out.reshape(16, 16)


_EIGVALS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}


def local_eigensystem(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of the normalized basis element O_label.

    ``label`` is a string over IXYZ, one letter per qubit; the observable is
    the Pauli product divided by sqrt(2^k), so outcomes are products of ±1
    divided by that normalization (identity factors contribute +1 and are
    "measured" in the computational basis).
    """
    vals = np.array([1.0])
    vecs = np.array([[1.0]], dtype=complex)
    for ch in label:
        if ch not in PAULI_EIGVECS:
            raise ValueError(f"unknown Pauli letter {ch!r}")
        vals = np.kron(vals, _EIGVALS[ch])
        vecs = np.kron(vecs, PAULI_EIGVECS[ch])
    return vals / np.sqrt(2.0 ** len(label)), vecs


def joint_outcome_table(rho: np.ndarray, ja: int, jb: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint outcome distribution for one product-observable pair O_ja ⊗ O_jb.

    ``ja`` and ``jb`` index ``PAULI_PRODUCT_LABELS``, as a coefficient
    table does.  Returns (probs, products): ``probs[k]`` is the probability
    of the k-th joint eigenvector (side-A outcome varying slowest) and
    ``products[k]`` the corresponding product of local eigenvalues
    lambda_a * lambda_b.  The run set-up reads the same statistics off
    ``decompose_two_local``; this projection is their reference.
    """
    vals_a, vecs_a = local_eigensystem(PAULI_PRODUCT_LABELS[ja])
    vals_b, vecs_b = local_eigensystem(PAULI_PRODUCT_LABELS[jb])
    rho = reorder(rho, KEY_SHIELD_LAYOUT, _SIDES_LAYOUT)
    v = np.kron(vecs_a, vecs_b)
    probs = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho, v))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"outcome probabilities sum to {total}, state not normalized?")
    probs = probs / total
    products = np.kron(vals_a, vals_b)
    return probs, products
