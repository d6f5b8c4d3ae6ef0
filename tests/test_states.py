"""State constructors: Bell family, chi vectors, the hiding family, ccq reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd.linalg import (
    herm_eig,
    partial_trace,
    partial_transpose,
    proj,
    trace_distance,
)
from pbitqkd.states import (
    CHI_C,
    CHI_S,
    KEY_SHIELD_LAYOUT,
    P_STAR,
    DensityState,
    bell_vec,
    ccq_state,
    chi_minus_vec,
    chi_plus_vec,
    purify,
    rho_h,
    sigma_ab,
)
from reference import bell_state, check_density, random_density, random_unitary


def test_p_star_value():
    # sqrt(2)/(1+sqrt(2)) = 2 - sqrt(2)
    assert abs(P_STAR - (2.0 - np.sqrt(2.0))) < 1e-15
    assert abs(P_STAR - 0.585786437626905) < 1e-12


def test_bell_vectors_orthonormal():
    vs = [bell_vec(k) for k in range(4)]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert np.allclose(gram, np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        bell_vec(4)


def test_bell_state_is_projector():
    st0 = bell_state(0)
    assert st0.shape == (4, 4)
    assert np.allclose(st0 @ st0, st0, atol=1e-14)
    check_density(st0)


def test_chi_vectors():
    cp, cm = chi_plus_vec(), chi_minus_vec()
    assert abs(np.vdot(cp, cp) - 1.0) < 1e-14
    assert abs(np.vdot(cm, cm) - 1.0) < 1e-14
    assert abs(np.vdot(cp, cm)) < 1e-14
    assert abs(CHI_C**2 + CHI_S**2 - 1.0) < 1e-14
    # the coefficients that make the hiding construction tick: c² - s² = 1/sqrt2
    assert abs(CHI_C**2 - CHI_S**2 - 1.0 / np.sqrt(2.0)) < 1e-14


def test_rho_h_is_a_state():
    for p, kappa in [(0.0, 0.0), (P_STAR, 0.0), (0.5858, 0.001), (1.0, 0.3)]:
        rho = rho_h(p, kappa)
        check_density(rho)
        assert rho.shape == (16, 16)
    with pytest.raises(ValueError):
        rho_h(-0.1)
    with pytest.raises(ValueError):
        rho_h(0.5, 1.5)


def test_rho_h_kappa_is_white_noise_mixing():
    p = 0.4
    pure = rho_h(p, 0.0)
    mixed = rho_h(p, 0.2)
    assert np.allclose(mixed, 0.8 * pure + 0.2 * np.eye(16) / 16.0, atol=1e-14)


def test_rho_h_ppt_exactly_at_p_star():
    vals, _ = herm_eig(partial_transpose(rho_h(P_STAR, 0.0), KEY_SHIELD_LAYOUT, ["B", "B'"]))
    assert vals.min() >= -1e-10
    # off p* (at kappa = 0) the partial transpose picks up negative eigenvalues
    for p in (P_STAR - 0.01, P_STAR + 0.01):
        vals, _ = herm_eig(partial_transpose(rho_h(p, 0.0), KEY_SHIELD_LAYOUT, ["B", "B'"]))
        assert vals.min() < -1e-6


def test_rho_h_shield_flags_reduce_correctly():
    # tracing the shield leaves the Bell mixture with weights p/2, p/2, (1-p)/2, (1-p)/2
    p = 0.3
    red = partial_trace(rho_h(p, 0.0), KEY_SHIELD_LAYOUT, ("A", "B"))
    expected = 0.5 * p * (proj(bell_vec(0)) + proj(bell_vec(1)))
    expected += 0.5 * (1 - p) * (proj(bell_vec(2)) + proj(bell_vec(3)))
    assert trace_distance(red, expected) < 1e-12


def test_sigma_ab_structure():
    p, kappa = 0.7, 0.05
    sig = sigma_ab(p, kappa)
    check_density(sig)
    expected = (1 - kappa) * (p * proj(bell_vec(0)) + (1 - p) * proj(bell_vec(2)))
    expected += kappa * np.eye(4) / 4.0
    assert trace_distance(sig, expected) < 1e-14


def test_density_state_expect_and_conjugate():
    rho = DensityState(bell_state(0), ("A", "B"))
    zz = np.kron(np.diag([1, -1]).astype(complex), np.diag([1, -1]).astype(complex))
    assert abs(rho.expect(zz) - 1.0) < 1e-14
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    rotated = rho.conjugate_by(u, ["A"])
    assert abs(np.trace(rotated.mat) - 1.0) < 1e-12


def test_purify_round_trip():
    rng = np.random.default_rng(7)
    rho = random_density(4, rng, rank=3)
    w = purify(rho)
    assert w.shape == (4, 3)  # one column per nonzero eigenvalue: the numerical rank
    # tracing the environment recovers the state
    assert trace_distance(w @ w.conj().T, rho) < 1e-10


def _key_blocks(ccq):
    """The (env x env) diagonal blocks of a ccq matrix, in key order 00, 01, 10, 11."""
    env = ccq.shape[0] // 4
    return [ccq[k * env : (k + 1) * env, k * env : (k + 1) * env] for k in range(4)]


def test_ccq_state_of_classical_input():
    # a classically correlated AB state has a ccq with the same diagonal weights
    mat = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    ccq = ccq_state(mat)
    check_density(ccq)
    # key marginal weights survive
    key_probs = np.array([np.trace(block).real for block in _key_blocks(ccq)])
    assert np.allclose(key_probs, [0.5, 0, 0, 0.5], atol=1e-12)


def test_ccq_state_is_block_diagonal_in_the_key():
    rng = np.random.default_rng(11)
    rho = random_density(16, rng)
    ccq = ccq_state(rho)
    check_density(ccq)
    env = ccq.shape[0] // 4
    assert ccq.shape == (4 * env, 4 * env)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            block = ccq[a * env : (a + 1) * env, b * env : (b + 1) * env]
            assert np.max(np.abs(block)) < 1e-14


def test_ccq_accepts_explicit_purification():
    rng = np.random.default_rng(13)
    rho = random_density(16, rng)
    w = purify(rho)
    assert trace_distance(ccq_state(rho), ccq_state(rho, w)) < 1e-12
    for bad in (w[:8], w.reshape(-1)):  # rows that do not fit the state, or no columns
        with pytest.raises(ValueError):
            ccq_state(rho, bad)


def test_ccq_invariant_under_key_controlled_shield_unitaries():
    # the structural fact behind the security argument, in miniature
    rng = np.random.default_rng(17)
    rho = random_density(16, rng)
    w = purify(rho)
    # build a key-controlled unitary U = sum |ij><ij| ⊗ U_ij on A B A' B'
    u = np.zeros((16, 16), dtype=complex)
    for key in range(4):
        u[key * 4 : (key + 1) * 4, key * 4 : (key + 1) * 4] = random_unitary(4, rng)
    assert trace_distance(ccq_state(rho, w), ccq_state(rho, u @ w)) < 1e-10


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_rho_h_always_a_state(p, kappa):
    check_density(rho_h(p, kappa))


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.2))
@settings(max_examples=40, deadline=None)
def test_sigma_ab_is_untwisted_shield_trace_of_rho_h(p, kappa):
    # structural identity used everywhere downstream; the twisting version is
    # exercised in the twist tests -- here the shield-traced Bell weights match
    sig = sigma_ab(p, kappa)
    assert abs(sig[0, 0].real + sig[3, 3].real - (
        (1 - kappa) * p + kappa / 2.0)) < 1e-12
