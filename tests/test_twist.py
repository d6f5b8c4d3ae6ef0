"""Twisting operators: block structure, the hiding twist, twisted observables."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd.linalg import dagger, partial_trace, proj, trace_distance
from pbitqkd.linalg import PAULI_X, PAULI_Z
from pbitqkd.states import (
    KEY_SHIELD_LAYOUT,
    P_STAR,
    bell_vec,
    rho_h,
    sigma_ab,
)
from pbitqkd.twist import (
    build_u_h,
    gamma_x,
    gamma_z,
    identity_twisting,
    key_controlled,
    make_pdit,
    untwist_and_trace,
)
from reference import check_density, expect, random_twisting

#: |00><00| on the shield A'B'
COMP00 = np.diag([1, 0, 0, 0]).astype(complex)


def rng_for(seed):
    return np.random.default_rng(seed)


def blocks_of(u):
    """The four 4×4 key blocks on the diagonal of a 16×16 twisting, in key order."""
    return [u[4 * n : 4 * n + 4, 4 * n : 4 * n + 4] for n in range(4)]


def assert_key_block_diagonal(u):
    off = u.copy()
    for n in range(4):
        off[4 * n : 4 * n + 4, 4 * n : 4 * n + 4] = 0
    assert not off.any()


def test_identity_twisting_assembles_to_identity():
    u = identity_twisting()
    assert u.shape == (16, 16) and u.dtype == complex
    assert np.array_equal(u, np.eye(16))


def test_twisting_op_validation():
    eye = np.eye(4, dtype=complex)
    with pytest.raises(TypeError):
        key_controlled(eye)  # missing blocks
    with pytest.raises(ValueError):
        key_controlled(eye, eye, np.eye(3, dtype=complex), eye)  # a misshapen block


def test_assemble_block_placement():
    # block U_ij must sit on rows/cols (i*d + j)*d' .. +d', and nothing off the diagonal
    blocks = [np.full((4, 4), n + 1j * n, dtype=complex) + np.eye(4) for n in range(4)]
    u = key_controlled(*blocks)
    assert u.shape == (16, 16) and u.dtype == complex
    for block, placed in zip(blocks, blocks_of(u)):
        assert np.array_equal(placed, block)
    assert_key_block_diagonal(u)


def test_random_twisting_is_unitary():
    u = random_twisting(rng_for(0))
    assert max(np.abs(dagger(b) @ b - np.eye(4)).max() for b in blocks_of(u)) <= 1e-10
    assert_key_block_diagonal(u)
    assert np.max(np.abs(dagger(u) @ u - np.eye(16))) < 1e-10


def test_u_h_is_unitary():
    u = build_u_h()
    assert max(np.abs(dagger(b) @ b - np.eye(4)).max() for b in blocks_of(u)) <= 1e-12
    assert_key_block_diagonal(u)


def test_untwisting_rho_h_yields_sigma_ab():
    """The central structural identity: Tr_shield(U† rho_h U) = sigma_ab."""
    tw = build_u_h()
    for p, kappa in [(P_STAR, 0.0), (0.5858, 0.001), (0.25, 0.05)]:
        out = untwist_and_trace(rho_h(p, kappa), tw)
        assert trace_distance(out, sigma_ab(p, kappa)) < 1e-12


def test_pdit_core_round_trip():
    # untwisting the pdit and tracing the shield gives back the Phi projector
    tw = build_u_h()
    pdit = make_pdit(tw, COMP00)
    check_density(pdit)
    back = untwist_and_trace(pdit, tw)
    assert trace_distance(back, proj(bell_vec(0))) < 1e-12


def test_make_pdit_checks_ancilla_shape():
    with pytest.raises(ValueError):
        make_pdit(build_u_h(), np.eye(3) / 3.0)


def test_gamma_z_form_and_invariance():
    gz = gamma_z()
    assert np.allclose(gz, reduce(np.kron, (PAULI_Z, PAULI_Z, np.eye(4))))
    for seed in range(5):
        u = random_twisting(rng_for(seed))
        assert np.linalg.norm(u @ gz @ dagger(u) - gz, 2) < 1e-10


def test_gamma_x_of_identity_twist():
    gx = gamma_x(identity_twisting())
    assert np.allclose(gx, reduce(np.kron, (PAULI_X, PAULI_X, np.eye(4))))


def test_gamma_x_expectations():
    # on its own pdit the twisted observable reads 1 (no phase error)
    tw = build_u_h()
    pdit = make_pdit(tw, COMP00)
    assert abs(expect(pdit, gamma_x(tw)) - 1.0) < 1e-12
    # the hiding mixture separates matched from mismatched untwistings:
    # its own observable still reads 1, the untwisted one reads 0
    rho = rho_h(P_STAR, 0.0)
    assert abs(expect(rho, gamma_x(tw)) - 1.0) < 1e-12
    assert abs(expect(rho, gamma_x(identity_twisting()))) < 1e-12


def test_gamma_x_is_unitary_and_hermitian():
    for seed in range(3):
        gx = gamma_x(random_twisting(rng_for(seed)))
        assert np.max(np.abs(gx - dagger(gx))) < 1e-12
        assert np.max(np.abs(gx @ gx - np.eye(16))) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_twistings_never_move_gamma_z(seed):
    u = random_twisting(rng_for(seed))
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
    key = partial_trace(pdit, KEY_SHIELD_LAYOUT, ("A", "B"))
    diag = np.real(np.diag(key))
    assert np.allclose(diag, [0.5, 0.0, 0.0, 0.5], atol=1e-10)
    a = partial_trace(pdit, KEY_SHIELD_LAYOUT, ("A",))
    assert np.allclose(a, np.eye(2) / 2.0, atol=1e-10)
