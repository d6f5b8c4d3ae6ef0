"""LOCC estimation of twisted observables via product-observable sampling.

The phase-error observable gamma_x(U) is generally entangled across the
Alice/Bob cut, so nobody can measure it directly with local operations.  It
can, however, be expanded over the Hilbert-Schmidt-orthonormal product basis

    gamma_x = sum_{ja,jb} s[ja,jb] * O_ja ⊗ O_jb,
    O_j = (P_1 ⊗ P_2)/2  (single-qubit Paulis on the local key/shield pair),

and each product term is locally measurable: Alice and Bob measure O_ja and
O_jb on a batch of copies and multiply outcomes.  Combining the empirical
group means with the coefficients recovers <gamma_x> and hence the phase
error rate eps_z = (1 - <gamma_x>)/2.  A decomposition is the real (16, 16)
table s, indexed by ``linalg.PAULI_PRODUCT_LABELS`` on both sides.

Estimation always goes through per-group means of sampled product
outcomes; nothing in this module evaluates the global observable against the
state behind the estimator's back.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .linalg import PAULI_EIGVECS, PAULI_PRODUCT_LABELS, PAULI_PRODUCTS, reorder
from .states import _SIDES_LAYOUT, KEY_SHIELD_LAYOUT, DensityState

__all__ = [
    "decompose_two_local",
    "support_pairs",
    "pm_signal_ensemble",
    "estimate_eps_z_locc",
]


def decompose_two_local(op: np.ndarray) -> np.ndarray:
    """Expand a Hermitian observable on A ⊗ B ⊗ A' ⊗ B' over the two-sided Pauli product basis.

    The sides are (A, A') and (B, B').  Returns the real (16, 16) table
    s[ja, jb] = Tr[(O_ja ⊗ O_jb) op], O_ja on Alice's factors and O_jb on
    Bob's; for Hermitian input the coefficients are real (enforced within 1e-9).
    """
    gperm = reorder(op, KEY_SHIELD_LAYOUT, _SIDES_LAYOUT)
    coeffs = np.einsum("aij,bkl,jlik->ab", PAULI_PRODUCTS, PAULI_PRODUCTS,
                       gperm.reshape(4, 4, 4, 4))
    imag_max = float(np.max(np.abs(coeffs.imag)))
    if imag_max > 1e-9:
        raise ValueError(f"observable is not Hermitian enough (imag coeff {imag_max:.3e})")
    return coeffs.real


def support_pairs(coeffs: np.ndarray) -> list[tuple[int, int]]:
    """The sorted (ja, jb) pairs whose coefficient is nonzero (above 1e-12 in size)."""
    ja, jb = np.nonzero(np.abs(coeffs) > 1e-12)
    return sorted(zip(ja.tolist(), jb.tolist()))


def pm_signal_ensemble(state: DensityState, label_a: str) -> list[tuple[float, DensityState]]:
    """Signal ensemble Alice prepares on Bob's side by measuring one observable.

    Measuring the product observable ``label_a`` (two letters over IXYZ, for
    A and A', identity factors read in the computational basis) on her share
    (A, A') of ``state`` collapses Bob's share (B, B') to a conditional state
    with the outcome's probability.  Returns the (probability, normalized state)
    list in eigenvector order; zero-probability outcomes keep a zero state.
    """
    if label_a not in PAULI_PRODUCT_LABELS:
        raise ValueError(f"need two Pauli letters over IXYZ, got {label_a!r}")
    vecs_a = np.array([[1.0]], dtype=complex)
    for ch in label_a:
        vecs_a = np.kron(vecs_a, PAULI_EIGVECS[ch])
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


def estimate_eps_z_locc(means: Mapping[tuple[int, int], float], coeffs: np.ndarray) -> dict:
    """Combine per-group product means into a phase-error estimate.

    ``means`` maps (ja, jb) basis-pair indices to the mean of the group's
    sampled products; every support pair of the table ``coeffs`` must have
    one.  Returns the transcript's ``{out, eps_z_raw, eps_z, clamped}``:
    out = sum s * mean, the raw estimate (1 - out)/2, and that estimate
    clamped to [0, 1] with a flag.
    """
    out = 0.0
    for ja, jb in support_pairs(coeffs):
        if (ja, jb) not in means:
            pair = f"{PAULI_PRODUCT_LABELS[ja]},{PAULI_PRODUCT_LABELS[jb]}"
            raise ValueError(f"support pair ({pair}) has no outcomes")
        out += float(coeffs[ja, jb]) * float(means[ja, jb])
    raw = (1.0 - out) / 2.0
    return {
        "out": out, "eps_z_raw": raw, "eps_z": min(max(raw, 0.0), 1.0),
        "clamped": not 0.0 <= raw <= 1.0,
    }
