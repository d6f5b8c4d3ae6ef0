"""Dense complex linear algebra on a few labeled qubits.

Everything downstream (states, twistings, channels, estimators) works with
explicit dense matrices on a layout: a tuple of qubit labels such as
``("A", "B", "A'", "B'")``, in the order `numpy.kron` builds the matrix.
Protocols at scale never materialize tensor powers, they sample patterns.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = [
    "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z", "kron_all", "partial_trace",
    "partial_transpose", "herm_eig", "trace_norm", "trace_distance", "PAULI_PRODUCT_LABELS",
    "pauli_product_basis",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(a.T)


def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not ops:
        raise ValueError("kron_all needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _axes(layout: tuple[str, ...], labels: Sequence[str]) -> list[int]:
    """Positions of ``labels`` in ``layout``; KeyError on a label it does not hold."""
    missing = [lab for lab in labels if lab not in layout]
    if missing:
        raise KeyError(f"labels {missing} not in layout {layout}")
    return [layout.index(lab) for lab in labels]


def _as_tensor(mat: np.ndarray, layout: tuple[str, ...]) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2 ** len(layout),) * 2:
        raise ValueError(f"matrix shape {mat.shape} does not match the qubits {layout}")
    return mat.reshape((2,) * 2 * len(layout))


def promote(op: np.ndarray, layout: tuple[str, ...], labels: Sequence[str]) -> np.ndarray:
    """Embed ``op`` into the full layout, with an identity on every other qubit.

    ``op`` acts on ``labels``, indexed in the order they are listed (which may
    differ from layout order).
    """
    labels = tuple(labels)
    _axes(layout, labels)
    op = np.asarray(op, dtype=complex)
    if len(set(labels)) != len(labels) or op.shape != (2 ** len(labels),) * 2:
        raise ValueError(f"operator shape {op.shape} does not match qubits {labels}")
    rest = tuple(lab for lab in layout if lab not in labels)
    big = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # big lives on (labels..., rest...); permute its qubits back to layout order
    return reorder(big, labels + rest, layout)


def reorder(mat: np.ndarray, layout: tuple[str, ...], labels: Sequence[str]) -> np.ndarray:
    """``mat`` with its qubits permuted into the order of ``labels``, which names each once."""
    labels = tuple(labels)
    if sorted(labels) != sorted(layout):
        raise ValueError(f"labels {labels} must name the layout {layout} exactly")
    perm = _axes(layout, labels)
    n = len(perm)
    tens = _as_tensor(mat, layout).transpose(perm + [a + n for a in perm])
    return tens.reshape(2**n, 2**n)


def partial_trace(mat: np.ndarray, layout: tuple[str, ...], keep: Sequence[str]) -> np.ndarray:
    """Trace out every qubit not in ``keep``; the kept qubits stay in layout order."""
    _axes(layout, keep)
    tens = _as_tensor(mat, layout)
    n = len(layout)
    # trace axes from the back so positions stay valid
    removed = 0
    for i in reversed(range(n)):
        if layout[i] not in keep:
            tens = np.trace(tens, axis1=i, axis2=i + (n - removed))
            removed += 1
    return tens.reshape((2 ** (n - removed),) * 2)


def partial_transpose(
    mat: np.ndarray, layout: tuple[str, ...], subsystems: Sequence[str]
) -> np.ndarray:
    """Transpose the listed qubits in place (same layout)."""
    tens = _as_tensor(mat, layout)
    n = len(layout)
    perm = list(range(2 * n))
    for i in _axes(layout, subsystems):
        perm[i], perm[i + n] = perm[i + n], perm[i]
    return tens.transpose(perm).reshape(2**n, 2**n)


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Raises ValueError if ``mat`` is not Hermitian within 1e-10 (max-abs).
    """
    mat = np.asarray(mat, dtype=complex)
    dev = np.max(np.abs(mat - dagger(mat))) if mat.size else 0.0
    if dev > 1e-10:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigh(mat)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.sum(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))


#: The labels "II", "IX", ..., "ZZ" of the two-qubit Pauli products, in
#: lexicographic (I<X<Y<Z) order: index j of a coefficient table is O_j.
PAULI_PRODUCT_LABELS = tuple(p1 + p2 for p1, p2 in itertools.product("IXYZ", repeat=2))


def pauli_product_basis() -> list[tuple[str, np.ndarray]]:
    """Hilbert-Schmidt-orthonormal Pauli product basis on two qubits.

    Elements are (P_1 ⊗ P_2)/2, labeled by ``PAULI_PRODUCT_LABELS``.
    """
    return [
        (label, np.kron(PAULIS[label[0]], PAULIS[label[1]]) / 2.0)
        for label in PAULI_PRODUCT_LABELS
    ]


def basis_ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector |index> in C^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def proj(vec: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (vector need not be normalized)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())

