"""Twisting operators: key-controlled shield unitaries and the twisted observables.

A twisting on ``A ⊗ B ⊗ A' ⊗ B'`` (a qubit key pair and a two-qubit shield)
is a block-diagonal unitary

    U = sum_ij |ij><ij|_AB ⊗ U_ij

controlled by the computational key basis.  Twistings leave computational
key measurements alone (``gamma_z`` commutes with every one of them) but move
the phase-error observable to the conjugated ``gamma_x(U)``, which is what
the LOCC estimation machinery has to track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, kron_all, promote, PAULI_X, PAULI_Z
from .states import KEY_SHIELD_LAYOUT, CHI_C, CHI_S, DensityState, bell_vec, proj

__all__ = [
    "TwistingOp",
    "identity_twisting",
    "build_u_h",
    "make_pdit",
    "untwist_and_trace",
    "gamma_z",
    "gamma_x",
]

#: Block keys: the key values ij of A and B, in the row-major order of the blocks.
_KEYS = ("00", "01", "10", "11")


@dataclass
class TwistingOp:
    """Block data of a twisting: the four 4×4 shield blocks U_ij of a qubit key."""

    blocks: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if set(self.blocks) != set(_KEYS):
            raise ValueError(f"block keys {sorted(self.blocks)} != {list(_KEYS)}")
        shapes = {np.asarray(b).shape for b in self.blocks.values()}
        if shapes != {(4, 4)}:
            raise ValueError(f"blocks must all be 4x4, got {shapes}")
        self.blocks = {k: np.asarray(v, dtype=complex) for k, v in self.blocks.items()}

    def assemble(self) -> np.ndarray:
        """Full block-diagonal unitary on A ⊗ B ⊗ A' ⊗ B', blocks in (i, j) row-major order."""
        out = np.zeros((16, 16), dtype=complex)
        for n, key in enumerate(_KEYS):
            out[4 * n : 4 * n + 4, 4 * n : 4 * n + 4] = self.blocks[key]
        return out


def identity_twisting() -> TwistingOp:
    """The trivial twisting of a qubit key and a two-qubit shield (every block an identity)."""
    return TwistingOp({k: np.eye(4, dtype=complex) for k in _KEYS})


def build_u_h() -> TwistingOp:
    """Twisting whose pdit reproduces the hiding family's key structure.

    The blocks combine a controlled shield phase with two Hermitian basis
    rotations on A'B': V1 maps the shield Bell vectors psi_2/psi_3 onto
    |01>/|10> (a Hadamard-type rotation of the middle block) and V2 maps the
    chi± vectors onto |00>/|11>.  Even-parity key blocks get V1, odd-parity
    blocks V2, and key value i = 1 on A additionally flips the shield phase
    (a controlled-Z between A and A').  Untwisting rho_h with this operator
    and tracing the shield yields sigma_ab exactly.
    """
    r = 1.0 / np.sqrt(2.0)
    v1 = np.array(
        [
            [1, 0, 0, 0],
            [0, r, r, 0],
            [0, r, -r, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    v2 = np.array(
        [
            [CHI_C, 0, 0, CHI_S],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [CHI_S, 0, 0, -CHI_C],
        ],
        dtype=complex,
    )
    z_shield = np.kron(PAULI_Z, np.eye(2))  # sigma_z on A', identity on B'
    blocks = {
        "00": dagger(v1),
        "01": dagger(v2),
        "10": dagger(v2) @ z_shield,
        "11": dagger(v1) @ z_shield,
    }
    return TwistingOp(blocks)


def make_pdit(tw: TwistingOp, anc: np.ndarray) -> DensityState:
    """Twisted maximally-entangled core U (psi_0 ⊗ anc) U† on A ⊗ B ⊗ A' ⊗ B'.

    ``anc`` is the shield state, a 4×4 matrix on A' ⊗ B'.
    """
    anc_mat = np.asarray(anc, dtype=complex)
    if anc_mat.shape != (4, 4):
        raise ValueError(f"ancilla shape {anc_mat.shape} != shield dim 4")
    core = np.kron(proj(bell_vec(0)), anc_mat)
    u = tw.assemble()
    return DensityState(u @ core @ dagger(u), KEY_SHIELD_LAYOUT)


def untwist_and_trace(state: DensityState, tw: TwistingOp) -> DensityState:
    """Undo the twisting and keep only the key factors: Tr_shield(U† rho U)."""
    u = tw.assemble()
    undone = dagger(u) @ state.mat @ u
    return DensityState(undone, state.layout).partial_trace(("A", "B"))


def gamma_z(layout: tuple[str, ...] = KEY_SHIELD_LAYOUT) -> np.ndarray:
    """Key-correlation observable sigma_z ⊗ sigma_z on the two key qubits.

    Commutes with every twisting (the blocks are key-diagonal), so its
    statistics survive twisting exactly; <gamma_z> = 1 - 2*eps_x.
    """
    return promote(kron_all(PAULI_Z, PAULI_Z), layout, layout[:2])


def gamma_x(tw: TwistingOp) -> np.ndarray:
    """Twisted phase-error observable U (sigma_x ⊗ sigma_x ⊗ I) U† on A ⊗ B ⊗ A' ⊗ B'.

    On an untwisted ideal core <sigma_x sigma_x> = 1; conjugating by the
    twisting makes the observable followable through the shield:
    <gamma_x> = 1 - 2*eps_z on the twisted state.
    """
    xx = promote(kron_all(PAULI_X, PAULI_X), KEY_SHIELD_LAYOUT, ["A", "B"])
    u = tw.assemble()
    return u @ xx @ dagger(u)
