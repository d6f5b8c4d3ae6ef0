"""Pauli noise patterns, the two-outcome shield POVM, and the binding channel."""

import json
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd import channels
from pbitqkd.channels import (
    POVM_M0,
    POVM_M1,
    PauliNoiseModel,
    apply_pauli,
    binding_channel_apply,
    binding_channel_kraus,
    channel_branches,
)
from pbitqkd.linalg import dagger, proj, trace_distance
from pbitqkd.states import (
    P_STAR,
    DensityState,
    bell_vec,
    rho_h,
)
from reference import bell_state, check_density


def double_phi():
    """Phi ⊗ Phi arranged on A B A' B' (first pair = key, second = shield)."""
    phi = proj(bell_vec(0))
    return np.kron(phi, phi)


def test_pauli_noise_model_validation():
    with pytest.raises(ValueError):
        PauliNoiseModel(1.5, 0.0)
    with pytest.raises(ValueError):
        PauliNoiseModel(0.1, 0.1, mode="other")


def _codes(model, n, rng):
    """The pattern codes ``model`` XORs into n zeros, and their (x, z) bits."""
    codes = np.zeros(n, dtype=np.uint8)
    model.sample_pattern(codes, rng)
    return codes, codes >> 1, codes & 1


def test_pauli_noise_iid_rates():
    model = PauliNoiseModel(0.25, 0.1)
    _, x, z = _codes(model, 200000, np.random.default_rng(0))
    assert abs(x.mean() - 0.25) < 5e-3
    assert abs(z.mean() - 0.10) < 5e-3


def test_pauli_noise_iid_draws_the_uniforms_of_one_array(monkeypatch):
    monkeypatch.setattr(channels, "_SAMPLE_CHUNK", 777)  # slice boundaries inside the input
    model = PauliNoiseModel(0.25, 0.1)
    for n in (0, 776, 777, 5000):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        codes, x, z = _codes(model, n, rng)
        assert codes.dtype == np.uint8
        assert np.array_equal(x, ref.random(n) < 0.25)
        assert np.array_equal(z, ref.random(n) < 0.1)
        assert rng.random() == ref.random()  # exactly one uniform per copy and flip


@pytest.mark.parametrize("mode", ["iid", "fixed_weight"])
def test_sample_pattern_xors_into_the_codes_it_is_given(mode):
    model = PauliNoiseModel(0.3, 0.2, mode=mode)
    start = np.random.default_rng(5).integers(0, 4, size=3000, dtype=np.uint8)
    codes = start.copy()
    model.sample_pattern(codes, np.random.default_rng(6))
    fresh, _, _ = _codes(model, 3000, np.random.default_rng(6))
    assert np.array_equal(codes, start ^ fresh)


def test_pauli_noise_iid_memory_holds_no_n_sized_uniforms():
    n = 10**6
    model = PauliNoiseModel(0.02, 0.01)
    tracemalloc.start()
    try:
        _codes(model, n, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one code byte per copy; the uniforms and every other temporary live for
    # one slice (an n-sized float64 uniform array alone is 8 bytes per copy)
    assert peak < n + 64 * channels._SAMPLE_CHUNK


def test_pauli_noise_fixed_weight_exact():
    model = PauliNoiseModel(0.1, 0.05, mode="fixed_weight")
    _, x, z = _codes(model, 1000, np.random.default_rng(1))
    assert int(x.sum()) == 100
    assert int(z.sum()) == 50


@pytest.mark.parametrize("model", [
    PauliNoiseModel(0.25, 0.1),
    PauliNoiseModel(0.02, 0.0),
    PauliNoiseModel(0.1, 0.05, mode="fixed_weight"),
    PauliNoiseModel(0.5, 0.3, mode="fixed_weight"),
], ids=["iid", "iid-x-only", "fixed-weight", "fixed-weight-wide"])
def test_code_law_matches_the_sampled_code_frequencies(model):
    n = 10**6
    law = model.code_law()
    assert law.shape == (4,) and law.sum() == pytest.approx(1.0, abs=1e-15)
    codes, _, _ = _codes(model, n, np.random.default_rng(11))
    freq = np.bincount(codes, minlength=4) / n
    # a binomial band of two-sided probability 1e-9 per code; a fixed-weight
    # model's code counts spread less than binomial ones
    z = NormalDist().inv_cdf(1 - 0.5e-9)
    band = z * np.sqrt(law * (1 - law) / n)
    assert np.all(np.abs(freq - law) <= band)


def test_pauli_noise_json_round_trip():
    # the bytes of the former json.dumps(asdict(model), sort_keys=True, separators=(",", ":"))
    for model, text in [
        (PauliNoiseModel(0.3, 0.0, mode="fixed_weight"),
         '{"eps_x":0.3,"eps_z":0.0,"mode":"fixed_weight"}'),
        (PauliNoiseModel(0.02, 0.01), '{"eps_x":0.02,"eps_z":0.01,"mode":"iid"}'),
        (PauliNoiseModel(0, 1), '{"eps_x":0,"eps_z":1,"mode":"iid"}'),
        (PauliNoiseModel(np.float64(0.1), 1e-300), '{"eps_x":0.1,"eps_z":1e-300,"mode":"iid"}'),
    ]:
        assert model.to_json() == text
        assert PauliNoiseModel.from_dict(json.loads(text)) == model


def test_apply_pauli_moves_bell_states():
    # X on B maps psi_0 to psi_2, Z on B maps psi_0 to psi_1
    psi0 = DensityState(bell_state(0), ("A", "B"))
    assert trace_distance(apply_pauli(psi0, 1, 0).mat, bell_state(2)) < 1e-12
    assert trace_distance(apply_pauli(psi0, 0, 1).mat, bell_state(1)) < 1e-12
    assert trace_distance(apply_pauli(psi0, 0, 0).mat, psi0.mat) == 0.0


def test_povm_completeness():
    comp = dagger(POVM_M0) @ POVM_M0 + dagger(POVM_M1) @ POVM_M1
    assert np.max(np.abs(comp - np.eye(2))) < 1e-14


def test_binding_kraus_completeness_across_parameters():
    for p in (0.0, 0.3, P_STAR, 1.0):
        for kappa in (0.0, 0.001, 0.2, 1.0):
            ops = binding_channel_kraus(p, kappa)
            total = sum(dagger(k) @ k for _, k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-12, (p, kappa)
    with pytest.raises(ValueError):
        binding_channel_kraus(-0.1)


def test_binding_channel_prepares_the_hiding_state():
    src = double_phi()
    for p, kappa in [(P_STAR, 0.0), (0.5858, 0.001), (0.3, 0.05)]:
        out = binding_channel_apply(src, p, kappa)
        assert trace_distance(out, rho_h(p, kappa)) < 1e-12


def test_branch_probabilities_on_double_phi():
    src = double_phi()
    p = 0.4
    branches = channel_branches(src, binding_channel_kraus(p, 0.0))
    probs = {lab: pr for lab, pr, _ in branches}
    for lab in ("1a", "1b", "2", "3"):
        assert abs(probs[lab] - p / 4.0) < 1e-12, lab
    for lab in ("4a", "4b"):
        assert abs(probs[lab] - (1 - p) / 2.0) < 1e-12, lab
    assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_branch_posteriors_are_states():
    src = double_phi()
    for lab, prob, post in channel_branches(src, binding_channel_kraus(0.3, 0.01)):
        if prob > 1e-12:
            check_density(post)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_binding_channel_is_trace_preserving(p, kappa):
    ops = binding_channel_kraus(p, kappa)
    total = sum(dagger(k) @ k for _, k in ops)
    assert np.max(np.abs(total - np.eye(4))) < 1e-11


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_apply_pauli_is_an_involution(x, z):
    x, z = x % 2, z % 2
    state = DensityState(bell_state(1), ("A", "B"))
    twice = apply_pauli(apply_pauli(state, x, z), x, z)
    assert trace_distance(twice.mat, state.mat) < 1e-12
