"""LOCC estimation of twisted observables via product-observable sampling.

The phase-error observable gamma_x(U) is generally entangled across the
Alice/Bob cut, so nobody can measure it directly with local operations.  It
can, however, be expanded over the Hilbert-Schmidt-orthonormal product basis

    gamma_x = sum_{ja,jb} s[ja,jb] * O_ja ⊗ O_jb,
    O_j = (P_1 ⊗ P_2)/2  (single-qubit Paulis on the local key/shield pair),

and each product term is locally measurable: Alice and Bob measure O_ja and
O_jb on a batch of copies and multiply outcomes.  Combining the empirical
group means with the coefficients recovers <gamma_x> and hence the phase
error rate eps_z = (1 - <gamma_x>)/2.

Estimation always goes through per-group means of sampled product
outcomes; nothing in this module evaluates the global observable against the
state behind the estimator's back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import pauli_product_basis, reorder
from .states import _SIDES_LAYOUT, KEY_SHIELD_LAYOUT, DensityState

__all__ = [
    "ProductDecomposition",
    "decompose_two_local",
    "local_eigensystem",
    "pm_signal_ensemble",
    "EstimationResult",
    "estimate_eps_z_locc",
]

_EIGVECS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}
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
        if ch not in _EIGVECS:
            raise ValueError(f"unknown Pauli letter {ch!r}")
        vals = np.kron(vals, _EIGVALS[ch])
        vecs = np.kron(vecs, _EIGVECS[ch])
    return vals / np.sqrt(2.0 ** len(label)), vecs


@dataclass
class ProductDecomposition:
    """Expansion of a two-sided observable over local Pauli product bases.

    coeffs[ja, jb] multiplies O_{ja} ⊗ O_{jb}, with O_{ja} on Alice's factors
    (A, A') and O_{jb} on Bob's (B, B'), in that order.
    """

    labels_a: tuple[str, ...]
    labels_b: tuple[str, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (len(self.labels_a), len(self.labels_b)):
            raise ValueError(
                f"coeff shape {self.coeffs.shape} != "
                f"({len(self.labels_a)}, {len(self.labels_b)})"
            )

    @property
    def hs_norm_sq(self) -> float:
        """||Gamma||_HS² = sum of squared coefficients (the basis is orthonormal)."""
        return float(np.sum(self.coeffs**2))

    def support(self) -> list[tuple[int, int]]:
        ja, jb = np.nonzero(np.abs(self.coeffs) > 1e-12)
        return sorted(zip(ja.tolist(), jb.tolist()))


def decompose_two_local(op: np.ndarray) -> ProductDecomposition:
    """Expand a Hermitian observable on A ⊗ B ⊗ A' ⊗ B' over the two-sided Pauli product basis.

    The sides are (A, A') and (B, B').  Coefficients are
    s[ja, jb] = Tr[(O_ja ⊗ O_jb) op]; for Hermitian input they are real
    (enforced within 1e-9).
    """
    gperm = reorder(op, KEY_SHIELD_LAYOUT, _SIDES_LAYOUT)
    basis = pauli_product_basis()
    mats = np.stack([m for _, m in basis])
    coeffs = np.einsum("aij,bkl,jlik->ab", mats, mats, gperm.reshape(4, 4, 4, 4))
    imag_max = float(np.max(np.abs(coeffs.imag)))
    if imag_max > 1e-9:
        raise ValueError(f"observable is not Hermitian enough (imag coeff {imag_max:.3e})")
    labels = tuple(lab for lab, _ in basis)
    return ProductDecomposition(labels_a=labels, labels_b=labels, coeffs=coeffs.real)


def pm_signal_ensemble(state: DensityState, label_a: str) -> list[tuple[float, DensityState]]:
    """Signal ensemble Alice prepares on Bob's side by measuring one observable.

    Measuring the product observable ``label_a`` (two letters over IXYZ, for
    A and A', identity factors read in the computational basis) on her share
    (A, A') of ``state`` collapses Bob's share (B, B') to a conditional state
    with the outcome's probability.  Returns the (probability, normalized state)
    list in eigenvector order; zero-probability outcomes keep a zero state.
    """
    _, vecs_a = local_eigensystem(label_a)
    rho = reorder(state.mat, state.layout, _SIDES_LAYOUT)
    da = vecs_a.shape[0]
    db = rho.shape[0] // da
    rho4 = rho.reshape(da, db, da, db)
    out = []
    for k in range(da):
        v = vecs_a[:, k]
        cond = np.einsum("i,ipjq,j->pq", v.conj(), rho4, v)
        prob = float(np.trace(cond).real)
        if prob > 1e-15:
            cond = cond / prob
        else:
            prob = 0.0
            cond = np.zeros((db, db), dtype=complex)
        out.append((prob, DensityState(cond, _SIDES_LAYOUT[2:])))
    return out


@dataclass
class EstimationResult:
    """Outcome of one LOCC phase-error estimation."""

    out: float
    eps_z_raw: float
    eps_z: float
    clamped: bool


def estimate_eps_z_locc(
    means: Mapping[tuple[int, int], float],
    decomp: ProductDecomposition,
) -> EstimationResult:
    """Combine per-group product means into a phase-error estimate.

    ``means`` maps (ja, jb) basis-pair indices to the mean of the group's
    sampled products.  Every pair in the decomposition's support must have
    one (pairs with zero coefficient may be omitted -- they cannot
    contribute).  The raw estimate (1 - out)/2 is clamped to [0, 1] with a
    flag; callers keep the raw value for transcripts.
    """
    out = 0.0
    for ja, jb in decomp.support():
        if (ja, jb) not in means:
            raise ValueError(
                f"support pair ({decomp.labels_a[ja]},{decomp.labels_b[jb]}) has no outcomes"
            )
        out += float(decomp.coeffs[ja, jb]) * float(means[ja, jb])
    raw = (1.0 - out) / 2.0
    clamped = not 0.0 <= raw <= 1.0
    eps_z = min(max(raw, 0.0), 1.0)
    return EstimationResult(
        out=out,
        eps_z_raw=raw,
        eps_z=eps_z,
        clamped=clamped,
    )


def best_candidate(results: Sequence[EstimationResult]) -> int:
    """Index of the result with the smallest clamped eps_z (the first on ties)."""
    return int(np.argmin([r.eps_z for r in results]))
