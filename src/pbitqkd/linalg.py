"""Dense complex linear algebra on small labeled tensor factors.

Everything downstream (states, twistings, channels, estimators) works with
explicit dense matrices on a :class:`TensorLayout` -- an ordered tuple of
labeled factors such as ``A ⊗ B ⊗ A' ⊗ B'``.  Dimensions are deliberately
capped (dense only, no sparsity, no symbolic shortcuts); protocols at scale
never materialize tensor powers, they sample patterns instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "TensorLayout",
    "kron_all",
    "partial_trace",
    "partial_transpose",
    "herm_eig",
    "trace_norm",
    "trace_distance",
    "pauli_product_basis",
]

#: Hard cap on the total Hilbert-space dimension of any labeled layout.
MAX_DIM = 256

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


@dataclass(frozen=True)
class TensorLayout:
    """Ordered labeled tensor factors, e.g. ``(("A", 2), ("B", 2), ("A'", 2), ("B'", 2))``.

    The layout fixes the row/column index convention of every matrix that
    claims to live on it: indices run over the factors left to right
    (row-major), exactly as produced by `numpy.kron` in layout order.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lab, d in self.factors:
            if d < 1:
                raise ValueError(f"factor {lab!r} has dimension {d}")
        if self.dim > MAX_DIM:
            raise ValueError(
                f"total dimension {self.dim} exceeds the dense cap {MAX_DIM}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise KeyError(f"no factor labeled {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis(label)][1]

    def restrict(self, labels: Sequence[str]) -> "TensorLayout":
        """Sub-layout of the given labels, in this layout's order."""
        keep = [f for f in self.factors if f[0] in set(labels)]
        if len(keep) != len(set(labels)):
            missing = set(labels) - {lab for lab, _ in keep}
            raise KeyError(f"labels {sorted(missing)} not in layout {self.labels}")
        return TensorLayout(tuple(keep))

    def extend(self, label: str, dim: int) -> "TensorLayout":
        return TensorLayout(self.factors + ((label, dim),))


def _as_tensor(mat: np.ndarray, layout: TensorLayout) -> np.ndarray:
    dims = layout.dims
    return np.asarray(mat, dtype=complex).reshape(dims + dims)


def promote(op: np.ndarray, layout: TensorLayout, labels: Sequence[str]) -> np.ndarray:
    """Embed ``op`` (acting on ``labels``, in the order given) into the full layout.

    Parameters
    ----------
    op : ndarray
        Square matrix on the tensor product of the listed factors, indexed in
        the order the labels are listed (which may differ from layout order).
    layout : TensorLayout
        Target space.
    labels : sequence of str
        Factors ``op`` acts on; every other factor gets an identity.

    Returns
    -------
    ndarray
        ``layout.dim x layout.dim`` matrix.
    """
    labels = list(labels)
    op_dims = tuple(layout.dim_of(lab) for lab in labels)
    d_op = int(np.prod(op_dims)) if op_dims else 1
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_op, d_op):
        raise ValueError(f"operator shape {op.shape} does not match factors {labels}")
    rest = [f for f in layout.factors if f[0] not in set(labels)]
    d_rest = int(np.prod([d for _, d in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    # big lives on (labels..., rest...); permute axes back to layout order
    inter = TensorLayout(tuple((lab, layout.dim_of(lab)) for lab in labels) + tuple(rest))
    return reorder(big, inter, layout.labels)[0]


def reorder(
    mat: np.ndarray, layout: TensorLayout, labels: Sequence[str]
) -> tuple[np.ndarray, TensorLayout]:
    """``mat`` with its tensor factors permuted into the order of ``labels``.

    ``labels`` must name every factor of ``layout`` exactly once.  Returns the
    permuted matrix together with its layout.
    """
    labels = tuple(labels)
    if sorted(labels) != sorted(layout.labels):
        raise ValueError(f"labels {labels} must name the layout {layout.labels} exactly")
    perm = [layout.axis(lab) for lab in labels]
    n = len(perm)
    tens = _as_tensor(mat, layout).transpose(perm + [a + n for a in perm])
    new_layout = TensorLayout(tuple(layout.factors[a] for a in perm))
    return tens.reshape(layout.dim, layout.dim), new_layout


def partial_trace(
    mat: np.ndarray, layout: TensorLayout, keep: Sequence[str]
) -> tuple[np.ndarray, TensorLayout]:
    """Trace out every factor not in ``keep``.

    Returns the reduced matrix together with its (order-preserving) layout.
    """
    keep_set = set(keep)
    for lab in keep_set:
        layout.axis(lab)
    tens = _as_tensor(mat, layout)
    n = len(layout.factors)
    # trace axes from the back so positions stay valid
    removed = 0
    for i in reversed(range(n)):
        lab = layout.factors[i][0]
        if lab in keep_set:
            continue
        tens = np.trace(tens, axis1=i, axis2=i + (n - removed))
        removed += 1
    new_layout = layout.restrict([lab for lab in layout.labels if lab in keep_set])
    d = new_layout.dim
    return tens.reshape(d, d), new_layout


def partial_transpose(
    mat: np.ndarray, layout: TensorLayout, subsystems: Sequence[str]
) -> np.ndarray:
    """Transpose the listed factors in place (same layout)."""
    tens = _as_tensor(mat, layout)
    n = len(layout.factors)
    perm = list(range(2 * n))
    for lab in subsystems:
        i = layout.axis(lab)
        perm[i], perm[i + n] = perm[i + n], perm[i]
    return tens.transpose(perm).reshape(layout.dim, layout.dim)


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Raises ValueError if ``mat`` is not Hermitian within 1e-10 (max-abs).
    """
    mat = np.asarray(mat, dtype=complex)
    dev = np.max(np.abs(mat - dagger(mat))) if mat.size else 0.0
    if dev > 1e-10:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    vals, vecs = np.linalg.eigh(mat)
    return vals, vecs


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.sum(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1."""
    return 0.5 * trace_norm(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))


def pauli_product_basis() -> list[tuple[str, np.ndarray]]:
    """Hilbert-Schmidt-orthonormal Pauli product basis on two qubits.

    Elements are (P_1 ⊗ P_2)/2, labeled "II", "IX", ..., "ZZ" in
    lexicographic (I<X<Y<Z) order.
    """
    return [
        (p1 + p2, np.kron(PAULIS[p1], PAULIS[p2]) / 2.0)
        for p1, p2 in itertools.product("IXYZ", repeat=2)
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

