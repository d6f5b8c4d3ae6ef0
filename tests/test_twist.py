"""Twisting operators: block structure, the hiding twist, twisted observables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd.linalg import dagger, kron_all, proj, trace_distance
from pbitqkd.linalg import PAULI_X, PAULI_Z
from pbitqkd.states import (
    P_STAR,
    basis_ket,
    bell_vec,
    rho_h,
    sigma_ab,
)
from pbitqkd.twist import (
    TwistingOp,
    build_u_h,
    gamma_x,
    gamma_z,
    identity_twisting,
    make_pdit,
    untwist_and_trace,
)
from reference import check_density, random_twisting


def rng_for(seed):
    return np.random.default_rng(seed)


def test_identity_twisting_assembles_to_identity():
    tw = identity_twisting()
    assert np.allclose(tw.assemble(), np.eye(16))
    assert max(np.abs(dagger(b) @ b - np.eye(4)).max() for b in tw.blocks.values()) <= 1e-10


def test_twisting_op_validation():
    eye = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        TwistingOp({"00": eye})  # missing blocks
    with pytest.raises(ValueError):
        TwistingOp({f"{i}{j}": np.eye(3 if i else 4, dtype=complex)
                    for i in range(2) for j in range(2)})  # inconsistent shapes


def test_assemble_block_placement():
    # block U_ij must sit on rows/cols (i*d + j)*d' .. +d'
    blocks = {f"{i}{j}": np.eye(4, dtype=complex) * (1 if (i, j) != (1, 0) else 1j)
              for i in range(2) for j in range(2)}
    u = TwistingOp(blocks).assemble()
    sl = slice(2 * 4, 3 * 4)  # key |10> is index 2
    assert np.allclose(u[sl, sl], 1j * np.eye(4))


def test_random_twisting_is_unitary():
    tw = random_twisting(rng_for(0))
    assert max(np.abs(dagger(b) @ b - np.eye(4)).max() for b in tw.blocks.values()) <= 1e-10
    u = tw.assemble()
    assert np.max(np.abs(dagger(u) @ u - np.eye(16))) < 1e-10


def test_u_h_is_unitary():
    blocks = build_u_h().blocks.values()
    assert max(np.abs(dagger(b) @ b - np.eye(4)).max() for b in blocks) <= 1e-12


def test_untwisting_rho_h_yields_sigma_ab():
    """The central structural identity: Tr_shield(U† rho_h U) = sigma_ab."""
    tw = build_u_h()
    for p, kappa in [(P_STAR, 0.0), (0.5858, 0.001), (0.25, 0.05)]:
        out = untwist_and_trace(rho_h(p, kappa), tw)
        assert out.distance_to(sigma_ab(p, kappa)) < 1e-12


def test_pdit_core_round_trip():
    # untwisting the pdit and tracing the shield gives back the Phi projector
    tw = build_u_h()
    anc = proj(kron_all(basis_ket(0, 2), basis_ket(0, 2)))
    pdit = make_pdit(tw, anc)
    check_density(pdit.mat)
    back = untwist_and_trace(pdit, tw)
    assert trace_distance(back.mat, proj(bell_vec(0))) < 1e-12


def test_make_pdit_checks_ancilla_shape():
    with pytest.raises(ValueError):
        make_pdit(build_u_h(), np.eye(3) / 3.0)


def test_gamma_z_form_and_invariance():
    gz = gamma_z()
    assert np.allclose(gz, kron_all(PAULI_Z, PAULI_Z, np.eye(4)))
    for seed in range(5):
        u = random_twisting(rng_for(seed)).assemble()
        assert np.linalg.norm(u @ gz @ dagger(u) - gz, 2) < 1e-10


def test_gamma_x_of_identity_twist():
    gx = gamma_x(identity_twisting())
    assert np.allclose(gx, kron_all(PAULI_X, PAULI_X, np.eye(4)))


def test_gamma_x_expectations():
    # on its own pdit the twisted observable reads 1 (no phase error)
    tw = build_u_h()
    anc = proj(kron_all(basis_ket(0, 2), basis_ket(0, 2)))
    pdit = make_pdit(tw, anc)
    assert abs(pdit.expect(gamma_x(tw)) - 1.0) < 1e-12
    # the hiding mixture separates matched from mismatched untwistings:
    # its own observable still reads 1, the untwisted one reads 0
    rho = rho_h(P_STAR, 0.0)
    assert abs(rho.expect(gamma_x(tw)) - 1.0) < 1e-12
    assert abs(rho.expect(gamma_x(identity_twisting()))) < 1e-12


def test_gamma_x_is_unitary_and_hermitian():
    for seed in range(3):
        gx = gamma_x(random_twisting(rng_for(seed)))
        assert np.max(np.abs(gx - dagger(gx))) < 1e-12
        assert np.max(np.abs(gx @ gx - np.eye(16))) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_twistings_never_move_gamma_z(seed):
    u = random_twisting(rng_for(seed)).assemble()
    gz = gamma_z()
    assert np.linalg.norm(u @ gz @ dagger(u) - gz, 2) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_pdit_key_statistics_survive_twisting(seed):
    # twistings are key-diagonal: the computational key distribution of the
    # core (perfectly correlated, each value 1/2) is untouched, and each
    # single key qubit stays maximally mixed
    tw = random_twisting(rng_for(seed))
    anc = np.eye(4, dtype=complex) / 4.0
    pdit = make_pdit(tw, anc)
    key = pdit.partial_trace(("A", "B"))
    diag = np.real(np.diag(key.mat))
    assert np.allclose(diag, [0.5, 0.0, 0.0, 0.5], atol=1e-10)
    a = pdit.partial_trace(("A",))
    assert np.allclose(a.mat, np.eye(2) / 2.0, atol=1e-10)
