"""Dense complex linear algebra on a few labeled qubits.

Everything downstream (states, twistings, channels, estimators) works with
explicit dense matrices on a layout: a tuple of qubit labels such as
``("A", "B", "A'", "B'")``, in the order `numpy.kron` builds the matrix.
The Paulis come as matrices, their eigenbases (``PAULI_EIGVECS``) and the
(16, 4, 4) table of two-qubit products (``PAULI_PRODUCTS``).  Protocols at
scale never materialize tensor powers, they sample patterns.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = [
    "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z", "PAULI_EIGVECS", "partial_trace",
    "partial_transpose", "herm_eig", "trace_distance", "PAULI_PRODUCT_LABELS", "PAULI_PRODUCTS",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
#: Eigenvector columns of each Pauli, eigenvalue +1 first; identity read in the computational basis.
PAULI_EIGVECS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(a.T)


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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1, half the sum of the singular values of a - b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


#: The labels "II", "IX", ..., "ZZ" of the two-qubit Pauli products, in
#: lexicographic (I<X<Y<Z) order: index j of a coefficient table is O_j.
PAULI_PRODUCT_LABELS = tuple(p1 + p2 for p1, p2 in itertools.product("IXYZ", repeat=2))
#: The Hilbert-Schmidt-orthonormal two-qubit Pauli products O_j = (P_1 ⊗ P_2)/2,
#: a (16, 4, 4) array in the order of ``PAULI_PRODUCT_LABELS``.
PAULI_PRODUCTS = np.stack([np.kron(PAULIS[a], PAULIS[b]) / 2.0 for a, b in PAULI_PRODUCT_LABELS])


def proj(vec: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (vector need not be normalized)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())

