"""State constructors: Bell pairs, the hiding family rho_h, and ccq reductions.

The canonical four-qubit arena is ``A ⊗ B ⊗ A' ⊗ B'``: A/B carry the key
qubits, A'/B' the two-qubit shield.  Every constructor returns the dense
matrix, on the arena in `numpy.kron` order, or on A ⊗ B for a two-qubit
target.  :class:`DensityState` pairs a matrix with its qubit labels; it is
the record that perfbench reads, through ``SourceSpec.base_state`` and
``channels.apply_pauli``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import dagger, herm_eig, proj, promote

__all__ = [
    "KEY_SHIELD_LAYOUT",
    "DensityState",
    "bell_vec",
    "chi_plus_vec",
    "chi_minus_vec",
    "rho_h",
    "sigma_ab",
    "P_STAR",
    "purify",
    "ccq_state",
]

#: Default arena: two key qubits and a two-qubit shield.
KEY_SHIELD_LAYOUT = ("A", "B", "A'", "B'")
#: The arena's qubits by side of the cut: Alice's (A, A'), then Bob's (B, B').
_SIDES_LAYOUT = ("A", "A'", "B", "B'")

#: Threshold value of the mixing weight p at which rho_h becomes PPT.
P_STAR = float(np.sqrt(2.0) / (1.0 + np.sqrt(2.0)))


@dataclass
class DensityState:
    """A density matrix together with the labels of the qubits it lives on."""

    mat: np.ndarray
    layout: tuple[str, ...]

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        if len(set(self.layout)) != len(self.layout):
            raise ValueError(f"repeated qubit labels in {self.layout}")
        d = 2 ** len(self.layout)
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} != layout dim {d}")

    def expect(self, op: np.ndarray) -> float:
        """Real expectation value of a Hermitian observable on the full space."""
        return float(np.trace(self.mat @ op).real)

    def conjugate_by(self, u: np.ndarray, labels: Sequence[str]) -> "DensityState":
        """Return U rho U† with U acting on ``labels``."""
        big = promote(u, self.layout, labels)
        return DensityState(big @ self.mat @ dagger(big), self.layout)


# --- two-qubit vectors -----------------------------------------------------


def bell_vec(k: int) -> np.ndarray:
    """Bell vector |psi_k> on two qubits.

    k = 0: (|00>+|11>)/sqrt2, 1: (|00>-|11>)/sqrt2,
    k = 2: (|01>+|10>)/sqrt2, 3: (|01>-|10>)/sqrt2.
    """
    s = 1.0 / np.sqrt(2.0)
    table = {
        0: [s, 0, 0, s],
        1: [s, 0, 0, -s],
        2: [0, s, s, 0],
        3: [0, s, -s, 0],
    }
    if k not in table:
        raise ValueError(f"Bell index {k} not in 0..3")
    return np.array(table[k], dtype=complex)


# chi± coefficients: c = sqrt(2+sqrt2)/2, s = sqrt(2-sqrt2)/2 (c² + s² = 1)
CHI_C = float(np.sqrt(2.0 + np.sqrt(2.0)) / 2.0)
CHI_S = float(np.sqrt(2.0 - np.sqrt(2.0)) / 2.0)


def chi_plus_vec() -> np.ndarray:
    """|chi+> = c|00> + s|11> with c = sqrt(2+sqrt2)/2, s = sqrt(2-sqrt2)/2."""
    return np.array([CHI_C, 0, 0, CHI_S], dtype=complex)


def chi_minus_vec() -> np.ndarray:
    """|chi-> = s|00> - c|11> (orthogonal completion of |chi+> in span{00,11})."""
    return np.array([CHI_S, 0, 0, -CHI_C], dtype=complex)


# --- the hiding family -----------------------------------------------------


def _rho_blocks(p: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(AB Bell projector, A'B' flag state) pairs with their weights folded in."""
    psi = [proj(bell_vec(k)) for k in range(4)]
    flag0 = 0.5 * (np.diag([1, 0, 0, 0]).astype(complex) + psi[2])  # |00><00| + psi_2
    flag1 = 0.5 * (np.diag([0, 0, 0, 1]).astype(complex) + psi[3])  # |11><11| + psi_3
    chi_p = proj(chi_plus_vec())
    chi_m = proj(chi_minus_vec())
    return [
        (0.5 * p * psi[0], flag0),
        (0.5 * p * psi[1], flag1),
        (0.5 * (1.0 - p) * psi[2], chi_p),
        (0.5 * (1.0 - p) * psi[3], chi_m),
    ]


def rho_h(p: float, kappa: float = 0.0) -> np.ndarray:
    """Four-qubit hiding state on A ⊗ B ⊗ A' ⊗ B'.

    A convex combination of the four Bell states on AB, each flagged by a
    distinct shield state on A'B', mixed with white noise of weight kappa:

        rho = (1-kappa) * sum_i q_i psi_i ⊗ flag_i  +  kappa * I/16,

    with q_0 = q_1 = p/2, q_2 = q_3 = (1-p)/2.  At p = P_STAR and kappa = 0
    the state is invariant under partial transposition of the B B' side, so
    it is PPT (bound entangled) while still carrying a twisted key bit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa = {kappa} outside [0, 1]")
    acc = np.zeros((16, 16), dtype=complex)
    for ab, flag in _rho_blocks(p):
        acc += np.kron(ab, flag)
    return (1.0 - kappa) * acc + kappa * np.eye(16, dtype=complex) / 16.0


def sigma_ab(p: float, kappa: float = 0.0) -> np.ndarray:
    """Two-qubit reduction reached by untwisting rho_h and tracing the shield:

        sigma = (1-kappa) * (p psi_0 + (1-p) psi_2) + kappa * I/4.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa = {kappa} outside [0, 1]")
    mixture = p * proj(bell_vec(0)) + (1.0 - p) * proj(bell_vec(2))
    return (1.0 - kappa) * mixture + kappa * np.eye(4, dtype=complex) / 4.0


# --- purification and ccq reduction ----------------------------------------


def purify(rho: np.ndarray) -> np.ndarray:
    """Canonical purification from the eigendecomposition.

    Returns the (dim, rank) matrix W whose columns are sqrt(l_k) |v_k> over
    the eigenvalues l_k > 1e-12, so rho = W W†, and W read row-major is the
    purification |psi> = sum_k sqrt(l_k) |v_k> ⊗ |k>_E.  The canonical choice
    makes the construction deterministic given the matrix.
    """
    vals, vecs = herm_eig(rho)
    keep = vals > 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size == 0:
        raise ValueError("state has numerical rank 0")
    return vecs * np.sqrt(vals)[np.newaxis, :]


def ccq_state(rho: np.ndarray, purification: np.ndarray | None = None) -> np.ndarray:
    """ccq reduction: measure the key qubits A, B, keep the purifying system E.

    ``rho`` is a state whose key qubits A, B come first: on the arena, or a
    two-qubit (A, B) matrix.  ``purification`` is a (dim, r) matrix W with
    rho = W W† (``purify(rho)`` when not given).  Returns the (4r x 4r) matrix

        sum_ab  P(ab) |ab><ab| ⊗ rho_E(ab),

    block-diagonal in the key ab, with the shield qubits traced out of each
    conditional environment state.
    """
    w = purify(rho) if purification is None else np.asarray(purification, dtype=complex)
    if w.ndim != 2 or w.shape[0] != rho.shape[0]:
        raise ValueError(f"purification shape {w.shape} does not fit a {rho.shape} state")
    env_dim = w.shape[1]
    tens = w.reshape(4, -1, env_dim)  # (key, shield, env)
    out = np.zeros((4 * env_dim, 4 * env_dim), dtype=complex)
    for ab in range(4):
        block = tens[ab]  # (shield, env)
        sl = slice(ab * env_dim, (ab + 1) * env_dim)
        out[sl, sl] = dagger(block) @ block  # trace over the shield qubits
    return out
