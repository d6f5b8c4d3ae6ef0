"""Byte pins of the physics layer: the twistings, Pauli tables, states and run set-up.

The transcript pins see these arrays only through the draws they move, and a
1-ulp move of a table entry need not move a draw.  So each array is pinned
here by the first 16 hex digits of the sha256 of its bytes.
"""

import hashlib

import numpy as np

from pbitqkd.channels import PauliNoiseModel
from pbitqkd.linalg import PAULI_PRODUCTS
from pbitqkd.protocol import _ANCILLAS, ProtocolConfig, SourceSpec, _setup
from pbitqkd.states import P_STAR, rho_h
from pbitqkd.twist import build_u_h, gamma_x, identity_twisting, make_pdit

PINS = {
    "twisting:u_h": "6395a705da36478b",
    "twisting:identity": "f4539e27394c2ed1",
    "gamma_x:u_h": "f5b366ef3b791c34",
    "gamma_x:identity": "ebd06cd84ac4e581",
    "PAULI_PRODUCTS": "e00649ea20512e8e",
    "rho_h": "ac637a8f0b4b1832",
    "make_pdit:u_h:comp00": "c69beeb44321f882",
    "make_pdit:u_h:maximally_mixed": "bdb9a35f4663ed5d",
    "make_pdit:identity:comp00": "c69beeb44321f882",
    "make_pdit:identity:maximally_mixed": "5ba7f38628f87e9b",
    "setup:keyed_pbit:plus": "d52e296b648505be",
    "setup:keyed_pbit:joint16": "e5e942f80d92b1d5",
    "setup:keyed_pbit:decomp:identity": "ad2a7d35db2c0954",
    "setup:keyed_pbit:decomp:u_h": "3414c5fd7336ab57",
    "setup:rho_h:plus": "7b231f351591b5cf",
    "setup:rho_h:joint16": "b8211352b32a848f",
    "setup:rho_h:decomp:identity": "ad2a7d35db2c0954",
    "setup:rho_h:decomp:u_h": "3414c5fd7336ab57",
}


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def physics_digests() -> dict[str, str]:
    twistings = {"u_h": build_u_h(), "identity": identity_twisting()}
    out = {f"twisting:{name}": digest(u) for name, u in twistings.items()}
    out.update({f"gamma_x:{name}": digest(gamma_x(u)) for name, u in twistings.items()})
    out["PAULI_PRODUCTS"] = digest(PAULI_PRODUCTS)
    out["rho_h"] = digest(rho_h(P_STAR, 0.001))
    for name, u in twistings.items():
        for anc in ("comp00", "maximally_mixed"):
            out[f"make_pdit:{name}:{anc}"] = digest(make_pdit(u, _ANCILLAS[anc]()))
    sources = {
        "keyed_pbit": SourceSpec(kind="pbit", noise=PauliNoiseModel(0.02, 0.01)),
        "rho_h": SourceSpec(p=P_STAR, kappa=0.001),
    }
    for name, source in sources.items():
        setup = _setup(source, ProtocolConfig.candidates)
        out[f"setup:{name}:plus"] = digest(setup.plus)
        out[f"setup:{name}:joint16"] = digest(setup.joint16)
        for cand, coeffs in setup.decomps.items():
            out[f"setup:{name}:decomp:{cand}"] = digest(coeffs)
    return out


def test_physics_layer_bytes_are_pinned():
    assert physics_digests() == PINS
