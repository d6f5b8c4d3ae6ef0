"""LOCC estimation: coefficient tables, outcome tables, the phase estimator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd.channels import apply_pauli
from pbitqkd.estimation import (
    decompose_two_local,
    estimate_eps_z_locc,
    pm_signal_ensemble,
    support_pairs,
)
from pbitqkd.linalg import PAULI_PRODUCT_LABELS, PAULI_PRODUCTS, dagger, trace_distance
from pbitqkd.states import KEY_SHIELD_LAYOUT, DensityState
from pbitqkd.twist import build_u_h, gamma_x, identity_twisting, make_pdit
from reference import (
    joint_outcome_table,
    local_eigensystem,
    random_density,
    random_twisting,
    reconstruct,
)


def u_h_pbit():
    return make_pdit(build_u_h(), np.diag([1, 0, 0, 0]).astype(complex))


def exact_records(state, coeffs):
    """Per-pair exact means of the product outcomes."""
    out = {}
    for ja, jb in support_pairs(coeffs):
        probs, products = joint_outcome_table(state, ja, jb)
        out[(ja, jb)] = float(np.dot(probs, products))
    return out


def test_local_eigensystem_shapes_and_values():
    vals, vecs = local_eigensystem("XZ")
    assert vals.shape == (4,) and vecs.shape == (4, 4)
    # columns are orthonormal
    assert np.max(np.abs(dagger(vecs) @ vecs - np.eye(4))) < 1e-12
    # eigenvalues of the *normalized* product observable: ±1/2 on two qubits
    assert set(np.round(vals, 12)) == {0.5, -0.5}
    with pytest.raises(ValueError):
        local_eigensystem("XQ")


def test_local_eigensystem_diagonalizes_the_basis_element():
    for label in ("IX", "ZZ", "YX", "II"):
        vals, vecs = local_eigensystem(label)
        rebuilt = vecs @ np.diag(vals) @ dagger(vecs)
        basis_element = PAULI_PRODUCTS[PAULI_PRODUCT_LABELS.index(label)]
        assert np.max(np.abs(rebuilt - basis_element)) < 1e-12, label


def test_decompose_reconstructs_gamma_x():
    for tw in (build_u_h(), identity_twisting()):
        gx = gamma_x(tw)
        dec = decompose_two_local(gx)
        assert trace_distance(reconstruct(dec), gx) < 1e-10


def test_decomposition_norm_is_sixteen_for_twisted_observables():
    # gamma_x(U) is unitary on a 16-dim space: HS-norm² = 16 for every twisting
    rng = np.random.default_rng(0)
    for _ in range(10):
        dec = decompose_two_local(gamma_x(random_twisting(rng)))
        assert abs(float(np.sum(dec**2)) - 16.0) < 1e-9


def test_decompose_rejects_non_hermitian():
    m = np.zeros((16, 16), dtype=complex)
    m[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        decompose_two_local(m)


def test_support_pairs_lists_the_nonzero_coefficients_in_order():
    coeffs = np.zeros((16, 16))
    coeffs[5, 0], coeffs[0, 15], coeffs[3, 3] = 2.0, 1.0, 1e-13  # 1e-13 counts as zero
    assert support_pairs(coeffs) == [(0, 15), (5, 0)]
    assert abs(float(np.sum(coeffs**2)) - 5.0) < 1e-15
    assert support_pairs(np.zeros((16, 16))) == []


def test_pm_signal_ensemble_refuses_labels_that_are_not_two_pauli_letters():
    state = u_h_pbit()
    for label in ("XQ", "X", "XYZ", "", "xz"):
        with pytest.raises(ValueError, match="two Pauli letters"):
            pm_signal_ensemble(state, label)


def test_joint_outcome_table_matches_direct_expectation():
    state = u_h_pbit()
    dec = decompose_two_local(gamma_x(build_u_h()))
    for ja, jb in support_pairs(dec):
        probs, products = joint_outcome_table(state, ja, jb)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs.min() >= 0.0
        mean = float(np.dot(probs, products))
        obs_a, obs_b = PAULI_PRODUCTS[ja], PAULI_PRODUCTS[jb]
        # assemble O_a ⊗ O_b in layout order (A, A') x (B, B')
        direct = _expect_product(state, obs_a, obs_b)
        assert abs(mean - direct) < 1e-10


def _expect_product(state, obs_a, obs_b):
    """<O_a ⊗ O_b> with O_a on (A, A') and O_b on (B, B')."""
    from pbitqkd.linalg import promote

    big = promote(obs_a, state.layout, ["A", "A'"]) @ promote(
        obs_b, state.layout, ["B", "B'"]
    )
    return float(np.real(np.trace(state.mat @ big)))


def test_estimator_on_exact_means_recovers_zero_phase_error():
    state = u_h_pbit()
    dec = decompose_two_local(gamma_x(build_u_h()))
    res = estimate_eps_z_locc(exact_records(state, dec), dec)
    assert set(res) == {"out", "eps_z_raw", "eps_z", "clamped"}
    assert abs(res["out"] - 1.0) < 1e-10
    assert res["eps_z"] == 0.0 or res["eps_z"] < 1e-10


def test_pattern_expectations_on_u_h_pbit():
    """Exact <gamma_x> of the pbit hit by each Pauli pattern on B.

    Z flips the sign outright; an X flip moves the value to ±1/sqrt2 because
    the hiding twist stores half the phase information in the shield.
    """
    state = u_h_pbit()
    gx = gamma_x(build_u_h())
    expected = {
        (0, 0): 1.0,
        (0, 1): -1.0,
        (1, 0): 1.0 / np.sqrt(2.0),
        (1, 1): -1.0 / np.sqrt(2.0),
    }
    for (x, z), val in expected.items():
        hit = apply_pauli(state, x, z)
        assert abs(hit.expect(gx) - val) < 1e-12, (x, z)


def test_estimator_tracks_planted_pattern_mixtures():
    """eps_z on an iid-pattern mixture equals the exact mixture expectation."""
    state = u_h_pbit()
    dec = decompose_two_local(gamma_x(build_u_h()))
    eps_x_plant, eps_z_plant = 0.11, 0.05
    mix = None
    for x in (0, 1):
        for z in (0, 1):
            w = (eps_x_plant if x else 1 - eps_x_plant) * (
                eps_z_plant if z else 1 - eps_z_plant
            )
            term = w * apply_pauli(state, x, z).mat
            mix = term if mix is None else mix + term
    mixed = DensityState(mix, state.layout)
    res = estimate_eps_z_locc(exact_records(mixed, dec), dec)
    truth = (1.0 - mixed.expect(gamma_x(build_u_h()))) / 2.0
    assert abs(res["eps_z"] - truth) < 1e-10
    assert truth > 0.0  # the plant actually moved the phase error


def test_estimator_requires_support_coverage():
    dec = decompose_two_local(gamma_x(build_u_h()))
    records = exact_records(u_h_pbit(), dec)
    ja, jb = max(records)
    del records[ja, jb]
    # the missing pair is named by its labels
    pair = f"({PAULI_PRODUCT_LABELS[ja]},{PAULI_PRODUCT_LABELS[jb]})"
    with pytest.raises(ValueError, match=f"support pair {re.escape(pair)} has no outcomes"):
        estimate_eps_z_locc(records, dec)
    with pytest.raises(ValueError):
        estimate_eps_z_locc({}, dec)


def test_estimator_clamps_and_flags():
    coeffs = np.zeros((16, 16))
    xx = PAULI_PRODUCT_LABELS.index("XX")
    coeffs[xx, xx] = 4.0
    res = estimate_eps_z_locc({(xx, xx): 1.0}, coeffs)
    assert res["clamped"] and res["eps_z"] == 0.0 and res["eps_z_raw"] < 0.0
    res = estimate_eps_z_locc({(xx, xx): 0.0}, coeffs)
    assert not res["clamped"] and res["eps_z"] == res["eps_z_raw"] == 0.5


def test_sampling_concentrates_with_m():
    state = u_h_pbit()
    dec = decompose_two_local(gamma_x(build_u_h()))
    rng = np.random.default_rng(12)
    records = {}
    for pair in support_pairs(dec):
        probs, products = joint_outcome_table(state, *pair)
        records[pair] = products[rng.choice(probs.size, size=20000, p=probs)].mean()
    res = estimate_eps_z_locc(records, dec)
    assert res["eps_z"] < 0.02  # truth is 0; generous envelope at m' = 20000


def test_optimal_untwist_prefers_the_matching_candidate():
    from pbitqkd.states import P_STAR, rho_h

    state = rho_h(P_STAR, 0.0)
    dec_good = decompose_two_local(gamma_x(build_u_h()))
    dec_bad = decompose_two_local(gamma_x(identity_twisting()))
    records = exact_records(state, dec_good)
    records.update(exact_records(state, dec_bad))
    bad, good = (estimate_eps_z_locc(records, dec)["eps_z"] for dec in (dec_bad, dec_good))
    assert good < 1e-10
    assert abs(bad - 0.5) < 1e-10  # mismatched candidate reads 1/2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_decomposition_reconstruction_is_lossless(seed):
    rng = np.random.default_rng(seed)
    gx = gamma_x(random_twisting(rng))
    dec = decompose_two_local(gx)
    assert np.max(np.abs(reconstruct(dec) - gx)) < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_outcome_tables_average_to_observable_expectation(seed):
    # sum over the support of s * table-mean reproduces <gamma_x> exactly
    rng = np.random.default_rng(seed)
    tw = random_twisting(rng)
    gx = gamma_x(tw)
    state = DensityState(random_density(16, rng), KEY_SHIELD_LAYOUT)
    dec = decompose_two_local(gx)
    total = 0.0
    for ja, jb in support_pairs(dec):
        probs, products = joint_outcome_table(state, ja, jb)
        total += dec[ja, jb] * float(np.dot(probs, products))
    assert abs(total - state.expect(gx)) < 1e-8

