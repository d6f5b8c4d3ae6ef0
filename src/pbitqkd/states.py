"""State constructors: Bell pairs, the hiding family rho_h, and ccq reductions.

The canonical four-factor arena is ``A ⊗ B ⊗ A' ⊗ B'``: A/B carry the key
qubits, A'/B' the two-qubit shield.  All constructors return :class:`DensityState`
objects that pair the dense matrix with its :class:`~pbitqkd.linalg.TensorLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    TensorLayout,
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
KEY_SHIELD_LAYOUT = TensorLayout((("A", 2), ("B", 2), ("A'", 2), ("B'", 2)))
AB_LAYOUT = TensorLayout((("A", 2), ("B", 2)))

#: Threshold value of the mixing weight p at which rho_h becomes PPT.
P_STAR = float(np.sqrt(2.0) / (1.0 + np.sqrt(2.0)))


@dataclass
class DensityState:
    """A density matrix together with the labeled layout it lives on."""

    mat: np.ndarray
    layout: TensorLayout

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.layout.dim
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} != layout dim {d}")

    # --- structure ---------------------------------------------------------

    def partial_trace(self, keep: Sequence[str]) -> "DensityState":
        red, lay = partial_trace(self.mat, self.layout, keep)
        return DensityState(red, lay)

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


def purify(state: DensityState) -> tuple[np.ndarray, TensorLayout]:
    """Canonical purification from the eigendecomposition.

    Returns (vector, layout) where the environment factor E has dimension
    equal to the numerical rank (eigenvalues > 1e-12).  The canonical choice
    |psi> = sum_k sqrt(l_k) |v_k> ⊗ |k>_E makes the construction
    deterministic given the matrix.
    """
    vals, vecs = herm_eig(state.mat)
    keep = vals > 1e-12
    vals, vecs = vals[keep], vecs[:, keep]
    rank = int(vals.size)
    if rank == 0:
        raise ValueError("state has numerical rank 0")
    # columns of vecs, scaled; |psi> components indexed by (system, env)
    vec = (vecs * np.sqrt(vals)[np.newaxis, :]).reshape(-1)
    return vec, state.layout.extend("E", rank)


def ccq_state(state: DensityState | tuple[np.ndarray, TensorLayout]) -> DensityState:
    """ccq reduction: measure the key factors A, B, keep the purifying system E.

    Accepts either a DensityState (purified canonically here) or an explicit
    (vector, layout) purification with an environment factor E.  The output
    lives on (A, B, E) and equals

        sum_ab  P(ab) |ab><ab| ⊗ rho_E(ab)

    with the shield factors traced out of each conditional environment state.
    """
    if isinstance(state, DensityState):
        vec, layout = purify(state)
    else:
        vec, layout = state
    key_labels = ("A", "B")
    dims = layout.dims
    tens = np.asarray(vec, dtype=complex).reshape(dims)
    n = len(dims)
    key_axes = [layout.axis(lab) for lab in key_labels]
    env_axis = layout.axis("E")
    other_axes = [i for i in range(n) if i not in key_axes and i != env_axis]
    # reorder to (key..., other..., env)
    tens = tens.transpose(key_axes + other_axes + [env_axis])
    key_dim = int(np.prod([dims[i] for i in key_axes]))
    other_dim = int(np.prod([dims[i] for i in other_axes])) if other_axes else 1
    env_dim = dims[env_axis]
    tens = tens.reshape(key_dim, other_dim, env_dim)
    out_layout = TensorLayout(
        tuple((lab, layout.dim_of(lab)) for lab in key_labels) + (("E", env_dim),)
    )
    out = np.zeros((key_dim * env_dim, key_dim * env_dim), dtype=complex)
    for ab in range(key_dim):
        block = tens[ab]  # (other, env)
        rho_e = dagger(block) @ block  # trace over the shield factors
        sl = slice(ab * env_dim, (ab + 1) * env_dim)
        out[sl, sl] = rho_e
    return DensityState(out, out_layout)
