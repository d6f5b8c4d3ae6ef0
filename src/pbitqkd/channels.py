"""Pauli attack patterns and the binding channel that prepares the hiding family.

Two noise mechanisms appear in protocol runs:

* independent (or fixed-weight) X/Z Pauli patterns on Bob's key qubit --
  the adversarially-flavored noise class the estimators are calibrated
  against; a model XORs each copy's pattern code 2x + z into the run's one
  uint8 code array and states that code's law;
* the binding channel: a six-branch Kraus map on Bob's key/shield pair
  B ⊗ B' that turns two maximally entangled pairs into the hiding state
  rho_h(p, kappa) exactly (white noise enters as a convex mix with the
  completely randomizing channel on the same pair).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .canonical import canonical_json, from_fields, json_real
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PAULIS, dagger, promote
from .states import CHI_C, CHI_S, KEY_SHIELD_LAYOUT, DensityState

__all__ = [
    "PauliNoiseModel",
    "apply_pauli",
    "POVM_M0",
    "POVM_M1",
    "binding_channel_kraus",
    "binding_channel_apply",
    "channel_branches",
]

#: Copies per slice of uniforms in per-copy sampling: one slice and its
#: temporaries are all a sampler holds besides its output.
_SAMPLE_CHUNK = 1 << 16


def _uniform_slices(n: int, rng: np.random.Generator):
    """The uniforms of one ``rng.random(n)``, as (slice, uniforms) pairs.

    They are drawn one slice of _SAMPLE_CHUNK copies at a time; PCG64 spends
    one 64-bit word per double, so they are the numbers a single
    ``rng.random(n)`` would give, and the next draw is the same.  Every slice's
    uniforms are a view of one reused buffer, so a caller must not keep them
    once the next iteration starts.
    """
    buf = np.empty(min(n, _SAMPLE_CHUNK))
    for start in range(0, n, _SAMPLE_CHUNK):
        stop = min(n, start + _SAMPLE_CHUNK)
        yield slice(start, stop), rng.random(out=buf[: stop - start])


@dataclass(frozen=True)
class PauliNoiseModel:
    """iid or fixed-weight X/Z flip patterns on the B factor of each copy.

    mode "iid": every copy independently gets an X flip with probability
    eps_x and a Z flip with probability eps_z.  mode "fixed_weight": exactly
    round(n*eps_x) X flips and round(n*eps_z) Z flips land on uniformly
    random positions (sampled without replacement, X and Z independent).
    A copy's flips are its pattern code 2x + z, whose law is ``code_law``.
    """

    eps_x: float
    eps_z: float
    mode: str = "iid"

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_x <= 1.0 or not 0.0 <= self.eps_z <= 1.0:
            raise ValueError("flip probabilities must lie in [0, 1]")
        if self.mode not in ("iid", "fixed_weight"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def sample_pattern(self, codes: np.ndarray, rng: np.random.Generator) -> None:
        """XOR each copy's pattern code 2x + z into the uint8 ``codes``, in place.

        The X flips are drawn first, then the Z flips: each from one
        ``rng.random(n)`` (slice by slice) in mode "iid", or from one
        ``rng.choice`` of its count of positions, if nonzero, in mode
        "fixed_weight".  A rate of 0 writes nothing (an iid model still draws),
        so a model of strength 0 may be handed read-only codes.
        """
        n = len(codes)
        for bit, eps in ((2, self.eps_x), (1, self.eps_z)):
            if self.mode == "iid":
                for sl, u in _uniform_slices(n, rng):
                    if eps:
                        codes[sl] ^= (u < eps).view(np.uint8) * np.uint8(bit)
                u = None  # a view of the spent sampler's buffer: the Z draws make their own
            elif k := int(round(n * eps)):
                codes[rng.choice(n, size=k, replace=False)] ^= bit

    def code_law(self) -> np.ndarray:
        """The (4,) law of a copy's pattern code 2x + z (a fixed-weight model's at its rates)."""
        return np.outer([1.0 - self.eps_x, self.eps_x], [1.0 - self.eps_z, self.eps_z]).ravel()

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "PauliNoiseModel":
        return from_fields(cls, d, {"eps_x": json_real, "eps_z": json_real})


def apply_pauli(state: DensityState, x: int, z: int, label: str = "B") -> DensityState:
    """Conjugate one labeled qubit factor by sigma_z^z sigma_x^x (phases cancel)."""
    op = np.linalg.matrix_power(PAULI_Z, z) @ np.linalg.matrix_power(PAULI_X, x)
    return state.conjugate_by(op, [label])


# --- the binding channel -----------------------------------------------------

# Two-outcome shield measurement used by the non-key-flipping branches: a
# diagonal POVM pair with M0†M0 + M1†M1 = I (c² + s² = 1 on each entry).
POVM_M0 = np.diag([CHI_C, CHI_S]).astype(complex)
POVM_M1 = np.diag([CHI_S, CHI_C]).astype(complex)
_KET = {0: np.array([[1, 0], [0, 0]], complex), 1: np.array([[0, 0], [0, 1]], complex)}


def binding_channel_kraus(p: float, kappa: float = 0.0) -> list[tuple[str, np.ndarray]]:
    """Labeled Kraus operators of the binding channel on B ⊗ B'.

    Six branches realize the flagged-Bell mixture (branch probabilities on a
    double maximally-entangled input: p/4 each for 1a/1b/2/3 and (1-p)/2 each
    for 4a/4b); for kappa > 0 the whole map is mixed with the completely
    randomizing channel on the pair (16 extra Pauli-product operators), which
    adds the white-noise term of rho_h.  Completeness sum K†K = I holds for
    every (p, kappa).
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= kappa <= 1.0:
        raise ValueError("p and kappa must lie in [0, 1]")
    six: list[tuple[str, np.ndarray]] = [
        ("1a", np.sqrt(p / 2.0) * np.kron(PAULI_I, _KET[0])),
        ("1b", np.sqrt(p / 2.0) * np.kron(PAULI_Z, _KET[1])),
        ("2", np.sqrt(p / 4.0) * np.kron(PAULI_Z, PAULI_Y)),
        ("3", np.sqrt(p / 4.0) * np.kron(PAULI_I, PAULI_X)),
        ("4a", np.sqrt(1.0 - p) * np.kron(PAULI_X, POVM_M0)),
        ("4b", np.sqrt(1.0 - p) * np.kron(PAULI_Y, PAULI_Z @ POVM_M1)),
    ]
    ops = [(lab, np.sqrt(1.0 - kappa) * k) for lab, k in six]
    if kappa > 0.0:
        ops += [(f"r{a}{b}", np.sqrt(kappa) / 4.0 * np.kron(pa, pb))
                for a, pa in PAULIS.items() for b, pb in PAULIS.items()]
    return ops


def binding_channel_apply(rho: np.ndarray, p: float, kappa: float = 0.0) -> np.ndarray:
    """Apply the binding channel, sum_k K rho K† on B ⊗ B', to a state on the arena."""
    bigs = [promote(k, KEY_SHIELD_LAYOUT, ("B", "B'")) for _, k in binding_channel_kraus(p, kappa)]
    return sum(big @ rho @ dagger(big) for big in bigs)


def channel_branches(
    rho: np.ndarray, kraus: Sequence[tuple[str, np.ndarray]]
) -> list[tuple[str, float, np.ndarray]]:
    """Branch probabilities and normalized post-states for each Kraus operator on B ⊗ B'."""
    out = []
    for lab, k in kraus:
        big = promote(k, KEY_SHIELD_LAYOUT, ("B", "B'"))
        post = big @ rho @ dagger(big)
        prob = float(np.trace(post).real)
        out.append((lab, prob, post / prob if prob > 1e-15 else post))
    return out
