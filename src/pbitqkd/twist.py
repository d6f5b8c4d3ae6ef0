"""Twisting operators: key-controlled shield unitaries and the twisted observables.

A twisting on ``A ⊗ B ⊗ A' ⊗ B'`` (a qubit key pair and a two-qubit shield)
is a block-diagonal unitary

    U = sum_ij |ij><ij|_AB ⊗ U_ij

controlled by the computational key basis; a twisting here is that 16×16
matrix, and ``key_controlled`` builds one from its four shield blocks.
Twistings leave computational key measurements alone (``gamma_z`` commutes
with every one of them) but move the phase-error observable to the
conjugated ``gamma_x(U)``, which is what the LOCC estimation machinery has
to track.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, partial_trace, promote, PAULI_X, PAULI_Z
from .states import KEY_SHIELD_LAYOUT, CHI_C, CHI_S, bell_vec, proj

__all__ = [
    "key_controlled",
    "identity_twisting",
    "build_u_h",
    "make_pdit",
    "untwist_and_trace",
    "gamma_z",
    "gamma_x",
]


def key_controlled(
    u00: np.ndarray, u01: np.ndarray, u10: np.ndarray, u11: np.ndarray
) -> np.ndarray:
    """The twisting sum_ij |ij><ij| ⊗ U_ij of 4×4 shield blocks in key order 00, 01, 10, 11."""
    out = np.zeros((16, 16), dtype=complex)
    for n, block in enumerate((u00, u01, u10, u11)):
        out[4 * n : 4 * n + 4, 4 * n : 4 * n + 4] = block
    return out


def identity_twisting() -> np.ndarray:
    """The trivial twisting of a qubit key and a two-qubit shield."""
    return np.eye(16, dtype=complex)


def build_u_h() -> np.ndarray:
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
    return key_controlled(dagger(v1), dagger(v2), dagger(v2) @ z_shield, dagger(v1) @ z_shield)


def make_pdit(u: np.ndarray, anc: np.ndarray) -> np.ndarray:
    """Twisted maximally-entangled core U (psi_0 ⊗ anc) U† on A ⊗ B ⊗ A' ⊗ B'.

    ``anc`` is the shield state, a 4×4 matrix on A' ⊗ B'.
    """
    anc_mat = np.asarray(anc, dtype=complex)
    if anc_mat.shape != (4, 4):
        raise ValueError(f"ancilla shape {anc_mat.shape} != shield dim 4")
    core = np.kron(proj(bell_vec(0)), anc_mat)
    return u @ core @ dagger(u)


def untwist_and_trace(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Undo the twisting U and keep only the key factors: Tr_shield(U† rho U) on A ⊗ B."""
    return partial_trace(dagger(u) @ rho @ u, KEY_SHIELD_LAYOUT, ("A", "B"))


def gamma_z(layout: tuple[str, ...] = KEY_SHIELD_LAYOUT) -> np.ndarray:
    """Key-correlation observable sigma_z ⊗ sigma_z on the two key qubits.

    Commutes with every twisting (the blocks are key-diagonal), so its
    statistics survive twisting exactly; <gamma_z> = 1 - 2*eps_x.
    """
    return promote(np.kron(PAULI_Z, PAULI_Z), layout, layout[:2])


def gamma_x(u: np.ndarray) -> np.ndarray:
    """Twisted phase-error observable U (sigma_x ⊗ sigma_x ⊗ I) U† on A ⊗ B ⊗ A' ⊗ B'.

    On an untwisted ideal core <sigma_x sigma_x> = 1; conjugating by the
    twisting makes the observable followable through the shield:
    <gamma_x> = 1 - 2*eps_z on the twisted state.
    """
    xx = promote(np.kron(PAULI_X, PAULI_X), KEY_SHIELD_LAYOUT, ["A", "B"])
    return u @ xx @ dagger(u)
