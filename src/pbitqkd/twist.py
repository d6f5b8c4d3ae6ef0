"""Twisting operators: key-controlled shield unitaries and the twisted observables.

A twisting on ``C^d ⊗ C^d ⊗ H_shield`` is a block-diagonal unitary

    U = sum_ij |ij><ij|_AB ⊗ U_ij

controlled by the computational key basis.  Twistings leave computational
key measurements alone (``gamma_z`` commutes with every one of them) but move
the phase-error observable to the conjugated ``gamma_x(U)``, which is what
the LOCC estimation machinery has to track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TensorLayout, dagger, kron_all, promote, random_unitary, PAULI_X, PAULI_Z
from .states import KEY_SHIELD_LAYOUT, CHI_C, CHI_S, DensityState, phi_d_vec, proj

__all__ = [
    "TwistingOp",
    "identity_twisting",
    "random_twisting",
    "build_u_h",
    "make_pdit",
    "untwist_and_trace",
    "gamma_z",
    "gamma_x",
]


@dataclass
class TwistingOp:
    """Block data of a twisting: key dimension d and the d² shield blocks U_ij."""

    d: int
    blocks: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.d < 2 or self.d > 9:
            raise ValueError(f"key dimension d = {self.d} unsupported (need 2..9)")
        expected = {f"{i}{j}" for i in range(self.d) for j in range(self.d)}
        if set(self.blocks) != expected:
            raise ValueError(f"block keys {sorted(self.blocks)} != {sorted(expected)}")
        shapes = {np.asarray(b).shape for b in self.blocks.values()}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent block shapes {shapes}")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"blocks must be square, got {shape}")
        self.blocks = {k: np.asarray(v, dtype=complex) for k, v in self.blocks.items()}

    @property
    def d_prime(self) -> int:
        return next(iter(self.blocks.values())).shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[f"{i}{j}"]

    def assemble(self, layout: TensorLayout = KEY_SHIELD_LAYOUT) -> np.ndarray:
        """Full block-diagonal unitary on a layout whose first two factors are A, B.

        The remaining factors form the shield; their total dimension must be
        d_prime.  Blocks sit on the diagonal in (i, j) row-major order.
        """
        dims = layout.dims
        if len(dims) < 3 or dims[0] != self.d or dims[1] != self.d:
            raise ValueError(f"layout dims {dims} do not start with ({self.d}, {self.d})")
        shield = int(np.prod(dims[2:]))
        if shield != self.d_prime:
            raise ValueError(f"shield dim {shield} != block dim {self.d_prime}")
        out = np.zeros((layout.dim, layout.dim), dtype=complex)
        for i in range(self.d):
            for j in range(self.d):
                k = (i * self.d + j) * self.d_prime
                out[k : k + self.d_prime, k : k + self.d_prime] = self.block(i, j)
        return out


def identity_twisting() -> TwistingOp:
    """The trivial twisting of a qubit key and a two-qubit shield (every block an identity)."""
    return TwistingOp(2, {f"{i}{j}": np.eye(4, dtype=complex) for i in range(2) for j in range(2)})


def random_twisting(d: int, d_prime: int, rng: np.random.Generator) -> TwistingOp:
    """Twisting with independent Haar-random shield blocks."""
    return TwistingOp(
        d,
        {f"{i}{j}": random_unitary(d_prime, rng) for i in range(d) for j in range(d)},
    )


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
    return TwistingOp(2, blocks)


def make_pdit(tw: TwistingOp, anc: np.ndarray) -> DensityState:
    """Twisted maximally-entangled core U (Phi_d ⊗ anc) U† on A ⊗ B ⊗ A' ⊗ B'.

    ``anc`` is the shield state, a matrix of dimension d_prime.
    """
    anc_mat = np.asarray(anc, dtype=complex)
    if anc_mat.shape != (tw.d_prime, tw.d_prime):
        raise ValueError(f"ancilla shape {anc_mat.shape} != shield dim {tw.d_prime}")
    core = np.kron(proj(phi_d_vec(tw.d)), anc_mat)
    u = tw.assemble(KEY_SHIELD_LAYOUT)
    return DensityState(u @ core @ dagger(u), KEY_SHIELD_LAYOUT)


def untwist_and_trace(state: DensityState, tw: TwistingOp) -> DensityState:
    """Undo the twisting and keep only the key factors: Tr_shield(U† rho U)."""
    u = tw.assemble(state.layout)
    undone = dagger(u) @ state.mat @ u
    keep = state.layout.labels[:2]
    return DensityState(undone, state.layout).partial_trace(keep)


def gamma_z(layout: TensorLayout = KEY_SHIELD_LAYOUT) -> np.ndarray:
    """Key-correlation observable sigma_z ⊗ sigma_z on the two key qubits.

    Commutes with every twisting (the blocks are key-diagonal), so its
    statistics survive twisting exactly; <gamma_z> = 1 - 2*eps_x.
    """
    a, b = layout.labels[:2]
    if layout.dim_of(a) != 2 or layout.dim_of(b) != 2:
        raise ValueError("gamma_z is defined for qubit keys")
    return promote(kron_all(PAULI_Z, PAULI_Z), layout, [a, b])


def gamma_x(tw: TwistingOp) -> np.ndarray:
    """Twisted phase-error observable U (sigma_x ⊗ sigma_x ⊗ I) U† on A ⊗ B ⊗ A' ⊗ B'.

    On an untwisted ideal core <sigma_x sigma_x> = 1; conjugating by the
    twisting makes the observable followable through the shield:
    <gamma_x> = 1 - 2*eps_z on the twisted state.
    """
    xx = promote(kron_all(PAULI_X, PAULI_X), KEY_SHIELD_LAYOUT, ["A", "B"])
    u = tw.assemble(KEY_SHIELD_LAYOUT)
    return u @ xx @ dagger(u)
