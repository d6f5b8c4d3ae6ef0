"""State constructors: Bell pairs, the hiding family rho_h, and ccq reductions.

The canonical four-qubit arena is ``A ⊗ B ⊗ A' ⊗ B'``: A/B carry the key
qubits, A'/B' the two-qubit shield.  All constructors return :class:`DensityState`
objects that pair the dense matrix with its qubit labels, in `numpy.kron` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    _axes,
    basis_ket,
    dagger,
    herm_eig,
    kron_all,
    partial_trace,
    partial_transpose,
    proj,
    promote,
    trace_distance,
)

__all__ = [
    "KEY_SHIELD_LAYOUT",
    "AB_LAYOUT",
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
AB_LAYOUT = ("A", "B")
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

    # --- structure ---------------------------------------------------------

    def partial_trace(self, keep: Sequence[str]) -> "DensityState":
        red = partial_trace(self.mat, self.layout, keep)
        return DensityState(red, tuple(lab for lab in self.layout if lab in keep))

    def partial_transpose(self, subsystems: Sequence[str]) -> np.ndarray:
        return partial_transpose(self.mat, self.layout, subsystems)

    def expect(self, op: np.ndarray) -> float:
        """Real expectation value of a Hermitian observable on the full space."""
        val = np.trace(self.mat @ op)
        return float(val.real)

    def conjugate_by(self, u: np.ndarray, labels: Sequence[str]) -> "DensityState":
        """Return U rho U† with U acting on ``labels``."""
        big = promote(u, self.layout, labels)
        return DensityState(big @ self.mat @ dagger(big), self.layout)

    def distance_to(self, other: "DensityState") -> float:
        if self.layout != other.layout:
            raise ValueError("layout mismatch")
        return trace_distance(self.mat, other.mat)


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
    k00 = proj(kron_all(basis_ket(0, 2), basis_ket(0, 2)))
    k11 = proj(kron_all(basis_ket(1, 2), basis_ket(1, 2)))
    flag0 = 0.5 * (k00 + psi[2])
    flag1 = 0.5 * (k11 + psi[3])
    chi_p = proj(chi_plus_vec())
    chi_m = proj(chi_minus_vec())
    return [
        (0.5 * p * psi[0], flag0),
        (0.5 * p * psi[1], flag1),
        (0.5 * (1.0 - p) * psi[2], chi_p),
        (0.5 * (1.0 - p) * psi[3], chi_m),
    ]


def rho_h(p: float, kappa: float = 0.0) -> DensityState:
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
    mat = (1.0 - kappa) * acc + kappa * np.eye(16, dtype=complex) / 16.0
    return DensityState(mat, KEY_SHIELD_LAYOUT)


def sigma_ab(p: float, kappa: float = 0.0) -> DensityState:
    """Two-qubit reduction reached by untwisting rho_h and tracing the shield:

        sigma = (1-kappa) * (p psi_0 + (1-p) psi_2) + kappa * I/4.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa = {kappa} outside [0, 1]")
    mat = (1.0 - kappa) * (p * proj(bell_vec(0)) + (1.0 - p) * proj(bell_vec(2)))
    mat += kappa * np.eye(4, dtype=complex) / 4.0
    return DensityState(mat, AB_LAYOUT)


# --- purification and ccq reduction ----------------------------------------


def purify(state: DensityState) -> np.ndarray:
    """Canonical purification from the eigendecomposition.

    Returns the (dim, rank) matrix W whose columns are sqrt(l_k) |v_k> over
    the eigenvalues l_k > 1e-12, so rho = W W†, and W read row-major is the
    purification |psi> = sum_k sqrt(l_k) |v_k> ⊗ |k>_E.  The canonical choice
    makes the construction deterministic given the matrix.
    """
    vals, vecs = herm_eig(state.mat)
    keep = vals > 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size == 0:
        raise ValueError("state has numerical rank 0")
    return vecs * np.sqrt(vals)[np.newaxis, :]


def ccq_state(state: DensityState, purification: np.ndarray | None = None) -> np.ndarray:
    """ccq reduction: measure the key qubits A, B, keep the purifying system E.

    ``purification`` is a (dim, r) matrix W with rho = W W† on the state's
    qubits (``purify(state)`` when not given).  Returns the (4r x 4r) matrix

        sum_ab  P(ab) |ab><ab| ⊗ rho_E(ab),

    block-diagonal in the key ab, with the shield qubits traced out of each
    conditional environment state.
    """
    w = purify(state) if purification is None else np.asarray(purification, dtype=complex)
    if w.ndim != 2 or w.shape[0] != state.mat.shape[0]:
        raise ValueError(f"purification shape {w.shape} does not fit a {state.mat.shape} state")
    n = len(state.layout)
    key_axes = _axes(state.layout, ("A", "B"))
    other_axes = [i for i in range(n) if i not in key_axes]
    # reorder to (key..., other..., env)
    tens = w.reshape((2,) * n + (-1,)).transpose(key_axes + other_axes + [n])
    env_dim = tens.shape[-1]
    tens = tens.reshape(4, 2 ** (n - 2), env_dim)
    out = np.zeros((4 * env_dim, 4 * env_dim), dtype=complex)
    for ab in range(4):
        block = tens[ab]  # (other, env)
        sl = slice(ab * env_dim, (ab + 1) * env_dim)
        out[sl, sl] = dagger(block) @ block  # trace over the shield qubits
    return out
