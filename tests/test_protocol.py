"""End-to-end protocol runs: configs, determinism, aborts, transcripts."""

import dataclasses
import hashlib
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd import bounds, channels, estimation, protocol
from pbitqkd.ecpa import pa_length, syndrome_stats
from pbitqkd.estimation import pm_signal_ensemble
from pbitqkd.protocol import (
    ProtocolConfig,
    SourceSpec,
    Transcript,
    canonical_json,
    model_estimates,
    run_estimate,
    run_pm,
    run_ppp,
    twisting_by_name,
)
from pbitqkd.states import KEY_SHIELD_LAYOUT, P_STAR, DensityState, rho_h
from pbitqkd.twist import build_u_h, gamma_z, make_pdit
from pbitqkd.linalg import PAULI_PRODUCT_LABELS, PAULI_PRODUCTS
from reference import expect, joint_outcome_table, pauli_flip


# the smallest configuration that completes without aborting: same shape as
# the large-n acceptance run but cheap enough for the unit suite
DESK_PPP = {
    "n": 100000,
    "seed": 0,
    "s": 40,
    "delta": 0.05,
    "m_x": 4000,
    "m_prime": 10600,
    "source": {"p": P_STAR, "kappa": 0.001},
}

# pm needs a light test load: n_c = ceil(sqrt(n s) log2(n) / delta) per
# observable must fit three times over on each side
DESK_PM = {
    "n": 100000,
    "seed": 1,
    "s": 1,
    "delta": 0.5,
    "m_x": 2000,
    "source": {"p": P_STAR, "kappa": 0.0},
}


# the noisy keyed pbit source: the configs that deliver key bits
KEYED_SOURCE = {
    "kind": "pbit", "twisting": "u_h", "ancilla": "comp00",
    "noise": {"eps_x": 0.02, "eps_z": 0.01},
}
KEYED_PPP = {
    "n": 200_000, "seed": 7, "s": 40, "delta": 0.05, "m_x": 4000, "m_prime": 4000,
    "source": KEYED_SOURCE,
}
KEYED_PM = {"n": 200_000, "seed": 7, "s": 1, "delta": 0.5, "m_x": 2000, "source": KEYED_SOURCE}
FIXED_WEIGHT_SOURCE = {
    **KEYED_SOURCE, "noise": {"eps_x": 0.05, "eps_z": 0.05, "mode": "fixed_weight"},
}


def test_source_spec_round_trip():
    spec = SourceSpec(kind="rho_h", p=0.3, kappa=0.02)
    again = SourceSpec.from_dict(spec.to_dict())
    assert again == spec
    pbit = SourceSpec(kind="pbit", twisting="u_h", ancilla="maximally_mixed")
    assert SourceSpec.from_dict(pbit.to_dict()) == pbit


def test_source_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SourceSpec(kind="telepathy")


@pytest.mark.parametrize("make", [
    lambda: SourceSpec(kind="rho_h", twisting="moebius"),  # named before the kind rule
    lambda: SourceSpec(kind="pbit", ancilla="bar"),
    lambda: ProtocolConfig(n=100, seed=0, candidates=("u_h", "foo")),
])
def test_unknown_names_are_rejected_at_construction(make):
    with pytest.raises(ValueError, match="unknown"):
        make()


# a field the source's kind does not read keeps its default, or is refused
@pytest.mark.parametrize("entries, unread", [
    ({"kind": "pbit", "p": 0.5}, "p"),
    ({"kind": "pbit", "kappa": 0.01}, "kappa"),
    ({"kind": "pbit", "p": 0.5, "kappa": 0.01}, "p or kappa"),
    ({"noise": channels.PauliNoiseModel(0.1, 0.0)}, "noise"),
    ({"noise": channels.PauliNoiseModel(0.0, 0.0)}, "noise"),  # a model, even of strength 0
    ({"twisting": "identity"}, "twisting"),
    ({"kind": "rho_h", "ancilla": "maximally_mixed"}, "ancilla"),
])
def test_a_source_refuses_fields_its_kind_does_not_read(entries, unread):
    kind = entries.get("kind", "rho_h")
    with pytest.raises(ValueError, match=f"^a {kind} source reads no {unread}$"):
        SourceSpec(**entries)
    # at their defaults they pass
    SourceSpec(kind="pbit", p=P_STAR, kappa=0.0)
    SourceSpec(kind="rho_h", twisting="u_h", ancilla="comp00", noise=None)


# every reader refuses a key that names no field, and names the closest field
@pytest.mark.parametrize("read, entries, message", [
    (ProtocolConfig.from_dict, {"n": 5000, "seed": 1, "eev": 0.3},
     "eev: unknown key (did you mean 'eve'?)"),
    (SourceSpec.from_dict, {"kind": "rho_h", "kapa": 0.2},
     "kapa: unknown key (did you mean 'kappa'?)"),
    (channels.PauliNoiseModel.from_dict, {"eps_x": 0.1, "eps_z": 0.0, "mdoe": "iid"},
     "mdoe: unknown key (did you mean 'mode'?)"),
    (SourceSpec.from_dict, {"zzz": 1}, "zzz: unknown key"),
])
def test_readers_refuse_keys_that_name_no_field(read, entries, message):
    with pytest.raises(ValueError) as exc:
        read(entries)
    assert str(exc.value) == message


@pytest.mark.parametrize("make", [
    lambda: ProtocolConfig(n=100, seed=0, candidates=()),
    lambda: run_estimate(SourceSpec(), 1, 10, 10, ()),
])
def test_an_empty_candidate_list_is_rejected(make):
    with pytest.raises(ValueError, match="need at least one candidate twisting"):
        make()


def test_source_base_states_have_the_right_shape():
    assert SourceSpec(kind="rho_h", p=0.4, kappa=0.01).base_state().mat.shape == (16, 16)
    assert SourceSpec(kind="pbit").base_state().mat.shape == (16, 16)


def test_config_json_round_trip():
    cfg = ProtocolConfig.from_dict(DESK_PPP)
    text = json.dumps(cfg.to_dict())
    again = ProtocolConfig.from_dict(json.loads(text))
    assert again == cfg
    assert again.m_x == 4000 and again.m_prime == 10600
    assert again.source.p == pytest.approx(P_STAR)


# every field set that its source kind reads
FULL_CONFIG = {
    "source": {
        "kind": "pbit", "kappa": 0, "twisting": "u_h", "ancilla": "maximally_mixed",
        "noise": {"eps_x": 0.02, "eps_z": 0, "mode": "fixed_weight"},
    },
    "eve": {"eps_x": 0, "eps_z": 0.01}, "candidates": ["u_h", "identity"],
    "n": 60000, "seed": 9, "s": 20, "delta": 0.1, "m_x": 1000, "m_prime": 2000,
    "ec_block": 8, "beta_b": 1e-6, "threads": 2,
}


# sha256[:16] of the config echo a transcript carries
@pytest.mark.parametrize("cfg, digest", [
    (FULL_CONFIG, "9a033f642b41588e"),
    ({"n": 5000, "seed": 1, "eve": 0.3}, "6c67fa64dd80f6fa"),
])
def test_config_echo_is_byte_identical(cfg, digest):
    config = ProtocolConfig.from_dict(cfg)
    text = canonical_json(config.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert ProtocolConfig.from_dict(config.to_dict()) == config


def test_canonical_json_writes_numpy_floating_scalars_as_floats():
    payload = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "f16": np.float16(1.5),
        "nonfinite": [np.float64("nan"), np.float32("inf"), -np.float64("inf"), float("nan")],
        "py": (1, 2.5, True, None, "x"),
        "nested": {"b": np.float32(-3.25), "a": [np.float64(1e300)]},
    }
    assert canonical_json(payload) == (
        '{"f16":1.5,"f32":0.10000000149011612,"f64":0.1,"nested":{"a":[1e+300],"b":-3.25},'
        '"nonfinite":[null,null,null,null],"py":[1,2.5,true,null,"x"]}'
    )


def test_config_nulls_mean_none_only_where_none_is_the_default():
    cfg = ProtocolConfig.from_dict({**FULL_CONFIG, "eve": None, "m_x": None, "beta_b": None})
    assert cfg.eve is None and cfg.m_x is None and cfg.beta_b is None
    noiseless = {**FULL_CONFIG["source"], "noise": None}
    assert ProtocolConfig.from_dict({**FULL_CONFIG, "source": noiseless}).source.noise is None
    for key in ("s", "n"):
        with pytest.raises(TypeError):
            ProtocolConfig.from_dict({**FULL_CONFIG, key: None})
    with pytest.raises(TypeError):
        ProtocolConfig.from_dict({k: v for k, v in FULL_CONFIG.items() if k != "n"})


def test_eve_accepts_bare_number_as_bit_flip_strength():
    cfg = ProtocolConfig.from_dict({**DESK_PPP, "eve": 0.3})
    assert cfg.eve is not None
    assert cfg.eve.eps_x == pytest.approx(0.3)
    assert cfg.eve.eps_z == pytest.approx(0.0)
    # the dict form remains canonical
    cfg2 = ProtocolConfig.from_dict({**DESK_PPP, "eve": {"eps_x": 0.1, "eps_z": 0.2}})
    assert cfg2.eve.eps_x == pytest.approx(0.1)
    assert cfg2.eve.eps_z == pytest.approx(0.2)


def test_config_rejects_tiny_n():
    with pytest.raises(ValueError):
        ProtocolConfig(n=2, seed=0)


def test_every_n_below_2_to_the_60_is_accepted():
    # the solver's n for s = 40, delta = 0.05 lies below the bound
    ProtocolConfig(n=1092670364752616128, seed=0)
    ProtocolConfig(n=2**60 - 1, seed=0)


@pytest.mark.parametrize("make", [
    lambda: SourceSpec(p=1.5),
    lambda: SourceSpec(kind="pbit", kappa=-0.1),  # out of range before its kind
    lambda: SourceSpec(p=math.nan),
    lambda: ProtocolConfig(n=100, seed=0, s=0),
    lambda: ProtocolConfig(n=100, seed=0, delta=1.0),
    lambda: ProtocolConfig(n=100, seed=0, delta=math.nan),
    lambda: ProtocolConfig(n=100, seed=-1),
    lambda: ProtocolConfig(n=100, seed=0, ec_block=0),
    lambda: ProtocolConfig(n=100, seed=0, ec_block=-2),
    lambda: ProtocolConfig(n=100, seed=0, ec_block=33),  # past what the decoder can search
    lambda: ProtocolConfig(n=100, seed=0, m_x=0),
    lambda: ProtocolConfig(n=100, seed=0, m_x=-5),
    lambda: ProtocolConfig(n=100, seed=0, m_prime=-3),
    lambda: ProtocolConfig(n=100, seed=0, threads=0),
    lambda: ProtocolConfig(n=2**60, seed=0),  # a run addresses fewer than 2^60 copies
])
def test_out_of_range_values_are_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


def test_largest_decodable_ec_block_is_accepted():
    ProtocolConfig(n=100, seed=0, ec_block=32)


def test_ppp_transcript_is_byte_deterministic():
    cfg = ProtocolConfig.from_dict(DESK_PPP)
    a = run_ppp(cfg).to_json()
    b = run_ppp(cfg).to_json()
    assert a == b


def test_ppp_completes_at_desk_scale_budgets():
    cfg = ProtocolConfig.from_dict(DESK_PPP)
    t = run_ppp(cfg)
    assert not t.abort and t.abort_reason is None
    names = [e["event"] for e in t.events]
    assert names == [
        "configure", "distribute", "assign_positions", "measure_bit_error",
        "measure_phase_groups", "estimate", "error_correct",
        "privacy_amplify", "complete",
    ]
    est = t.estimates
    assert 0.0 <= est["eps_x_hat"] <= 1.0
    assert 0.0 <= est["eps_z_hat"] <= 0.5
    assert est["rate"] == pytest.approx(max(est["rate_raw"], 0.0))
    m_x, m_z = est["m_x"], est["m_z"]
    assert est["net_rate"] == pytest.approx((1.0 - (m_x + m_z) / cfg.n) * est["rate"])
    assert est["best_candidate"] in cfg.candidates
    assert set(est["candidates"]) == set(cfg.candidates)
    # nine support pairs between the two candidate decompositions
    assert len(est["group_counts"]) == 9
    assert all("|" in label for label in est["group_counts"])
    assert sum(est["group_counts"].values()) == m_z
    assert m_x + m_z + t.key["raw_len"] == cfg.n


def test_ppp_security_block_reports_the_failure_bound():
    t = run_ppp(ProtocolConfig.from_dict(DESK_PPP))
    sec = t.security
    assert sec["r"] >= 4 * 40
    assert sec["vacuous"] is True  # desk-scale n cannot reach a useful bound
    assert sec["bound_params"]["n"] == 100000


def test_ppp_requires_explicit_budgets_at_desk_scale():
    cfg = ProtocolConfig(n=100000, seed=0)
    t = run_ppp(cfg)
    assert t.abort
    assert t.abort_reason.startswith("parameters_infeasible")
    assert [e["event"] for e in t.events] == ["configure", "abort"]
    assert t.key["final_len"] == 0 and t.key["final_key_empty"]


def test_ppp_aborts_when_budgets_swallow_all_copies():
    cfg = ProtocolConfig.from_dict({**DESK_PPP, "m_x": 12000, "m_prime": 20000})
    t = run_ppp(cfg)
    assert t.abort
    assert "leaves no key copies" in t.abort_reason


def test_ppp_aborts_under_heavy_intercept():
    cfg = ProtocolConfig.from_dict({**DESK_PPP, "eve": 0.3})
    t = run_ppp(cfg)
    assert t.abort
    assert t.abort_reason == "rate_nonpositive"
    assert [e["event"] for e in t.events][-1] == "abort"
    assert t.estimates["rate"] == 0.0
    assert t.key["alice_hex"] == "" and t.key["final_len"] == 0


@pytest.mark.parametrize("run, cfg, reason", [
    (run_ppp, {**DESK_PPP, "m_x": 12000, "m_prime": 20000}, "parameters_infeasible"),
    (run_pm, {**DESK_PM, "n": 1000}, "parameters_infeasible"),
    (run_pm, {**DESK_PM, "m_prime": 10**6}, "insufficient_samples"),
    (run_ppp, {**DESK_PPP, "eve": 0.3}, "rate_nonpositive"),
])
def test_every_abort_path_builds_the_same_empty_key(run, cfg, reason):
    completed_key_fields = set(run_ppp(ProtocolConfig.from_dict(DESK_PPP)).key)
    t = run(ProtocolConfig.from_dict(cfg))
    assert t.abort
    assert t.events[-1]["event"] == "abort"
    assert t.abort_reason.startswith(reason)
    assert set(t.key) == completed_key_fields
    assert t.key["final_len"] == 0 and t.key["final_key_empty"]


def test_ppp_pbit_source_phase_noise_hits_only_the_phase_estimate():
    # Z-pattern noise on the key qubit never flips key bits, but it does
    # plant genuine phase errors that the estimator must pick up
    cfg = ProtocolConfig.from_dict({
        "n": 20000, "seed": 7, "m_x": 1000, "m_prime": 1000,
        "source": {"kind": "pbit", "noise": {"eps_x": 0.0, "eps_z": 0.25}},
    })
    t = run_ppp(cfg)
    assert not t.abort
    assert t.estimates["eps_x_hat"] == pytest.approx(0.0, abs=1e-12)
    assert t.estimates["eps_z_hat"] == pytest.approx(0.25, abs=0.05)


def test_pm_confirms_receipt_before_bases():
    t = run_pm(ProtocolConfig.from_dict(DESK_PM))
    names = [e["event"] for e in t.events]
    assert "receipt_confirmed" in names and "bases_announced" in names
    assert names.index("receipt_confirmed") < names.index("bases_announced")


def test_pm_completes_with_uncoordinated_sampling():
    cfg = ProtocolConfig.from_dict(DESK_PM)
    t = run_pm(cfg)
    assert not t.abort
    names = [e["event"] for e in t.events]
    assert names == [
        "configure", "prepare_and_send", "measure", "receipt_confirmed",
        "bases_announced", "sift", "measure_bit_error", "measure_phase_groups",
        "estimate", "error_correct", "privacy_amplify", "complete",
    ]
    est = t.estimates
    n_c = math.ceil(math.sqrt(cfg.n * cfg.s) * math.log2(cfg.n) / cfg.delta)
    assert est["n_c"] == n_c
    # matched counts concentrate near n_c^2 / n per pair
    expect = n_c * n_c / cfg.n
    for count in est["group_counts"].values():
        assert 0.5 * expect < count < 2.0 * expect
    assert est["rate"] > 0.0
    assert run_pm(cfg).to_json() == t.to_json()


def test_pm_aborts_when_test_load_exceeds_n():
    cfg = ProtocolConfig.from_dict({**DESK_PM, "s": 40, "delta": 0.05})
    t = run_pm(cfg)
    assert t.abort
    assert t.abort_reason.startswith("parameters_infeasible")
    assert "test load" in t.abort_reason


def test_transcript_json_round_trip():
    t = run_ppp(ProtocolConfig.from_dict(DESK_PPP))
    text = t.to_json()
    again = Transcript(**json.loads(text))
    assert again.to_json() == text
    assert again.abort == t.abort
    assert again.estimates["rate"] == pytest.approx(t.estimates["rate"])
    payload = json.loads(text)
    assert set(payload) == {
        "abort", "abort_reason", "config", "estimates", "events",
        "key", "protocol", "schema", "security",
    }


def test_twisting_by_name_resolves_known_names():
    assert np.array_equal(twisting_by_name("identity"), np.eye(16))
    assert np.array_equal(twisting_by_name("u_h"), build_u_h())
    with pytest.raises(ValueError):
        twisting_by_name("moebius")


def test_pm_signal_ensemble_is_a_valid_ensemble():
    core = make_pdit(build_u_h(), np.diag([1, 0, 0, 0]).astype(complex))
    for label in ("ZZ", "XI", "XX"):
        ens = pm_signal_ensemble(core, label)
        probs = [p for p, _ in ens]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        for p, state in ens:
            if p > 0:
                assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
                eigs = np.linalg.eigvalsh(state)
                assert eigs.min() > -1e-10
                assert state.shape == (4, 4)  # Bob's qubits (B, B')


def test_pm_signal_ensemble_on_hiding_state_matches_partial_trace():
    # averaging the ensemble reproduces Bob's reduced state exactly
    state = rho_h(0.3, 0.02)
    ens = pm_signal_ensemble(state, "ZX")
    avg = sum(p * s for p, s in ens)
    from pbitqkd.linalg import partial_trace

    reduced = partial_trace(state, KEY_SHIELD_LAYOUT, keep=("B", "B'"))
    np.testing.assert_allclose(avg, reduced, atol=1e-12)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_small_runs_are_reproducible_for_any_seed(seed):
    cfg = ProtocolConfig.from_dict({
        "n": 2000, "seed": seed, "m_x": 200, "m_prime": 150,
        "source": {"p": P_STAR, "kappa": 0.0},
    })
    t1, t2 = run_ppp(cfg), run_ppp(cfg)
    assert t1.to_json() == t2.to_json()
    assert isinstance(t1.abort, bool)


# sha256[:16] of the transcript JSON; a change here changes every rerun's bytes
# and needs a TRANSCRIPT_SCHEMA bump
REFERENCE_TRANSCRIPTS = [
    (run_ppp, DESK_PPP, "f60955fe87d52c87"),
    (run_pm, DESK_PM, "9d62e28be4d69bbf"),
    (run_ppp, {**DESK_PPP, "eve": 0.3}, "6c777fdfe5ca3e11"),
    (run_ppp, KEYED_PPP, "d5e82a60eb230723"),
    (run_pm, KEYED_PM, "e0b6eeee15b06fe5"),
    (run_ppp, {**DESK_PPP, "m_x": 12000, "m_prime": 20000}, "e846a20493c542a3"),
    (run_pm, {**DESK_PM, "n": 1000}, "d5346a85ba470273"),
    (run_pm, {**DESK_PM, "m_prime": 10**6}, "a1859c4be8eb5368"),
    # rho_h at p*: one pattern code, key stage across several sampler slices
    (run_ppp, {**DESK_PPP, "n": 300000, "seed": 2, "source": {"p": P_STAR, "kappa": 0.0}},
     "0d12d89b7ec55705"),
    # an Eve of strength 0 makes her draws but flips nothing: one pattern code
    (run_ppp, {**DESK_PPP, "eve": 0}, "d847df772a27cf5b"),
    (run_pm, {**DESK_PM, "eve": {"eps_x": 0, "eps_z": 0, "mode": "fixed_weight"}},
     "8efb265a418de335"),
    # a phase-only Eve on the keyed source
    (run_ppp, {**KEYED_PPP, "eve": {"eps_x": 0, "eps_z": 0.27}}, "106a1cb8ed99b5e4"),
    # fixed-weight source noise
    (run_ppp, {**KEYED_PPP, "source": FIXED_WEIGHT_SOURCE}, "34804ed3f7d75625"),
    (run_pm, {**KEYED_PM, "source": FIXED_WEIGHT_SOURCE}, "e0be3f0e8a960236"),
    (run_ppp, {**DESK_PPP, "source": {"p": 0.3, "kappa": 0.2}}, "687eb649a6f104c2"),
    (run_pm, {**DESK_PM, "source": {"kind": "pbit", "twisting": "identity",
                                    "ancilla": "maximally_mixed"}}, "40478b3472057089"),
    # source noise and an Eve that both flip X and Z: their codes XOR per copy
    (run_ppp, {**KEYED_PPP, "eve": {"eps_x": 0.1, "eps_z": 0.05, "mode": "fixed_weight"}},
     "2413722b4a6ad415"),
    (run_pm, {**KEYED_PM, "eve": {"eps_x": 0.05, "eps_z": 0.05}}, "e5d0076a82c264ac"),
    # non-default EC blocks: 7 reveals every block (rows = 7), 32 keeps a key
    (run_ppp, {**KEYED_PPP, "ec_block": 7}, "6d9f2a222f57fbd6"),
    (run_ppp, {**KEYED_PPP, "ec_block": 32}, "0a0f06b9ac476cac"),
    # solver-filled budgets: infeasible at this n, with the solver's binding constraint
    (run_ppp, {"n": 100000, "seed": 0}, "33242b4c6fc12bc6"),
]


def _public_counts(doc: dict, setup) -> tuple[int, int, dict, int]:
    """(k_x, m_x, group_counts, raw_len) read back from a transcript's published numbers."""
    est = doc["estimates"]
    pairs = {label: pair for pair, label in setup.labels.items()}
    m_x = est["m_x"]
    k_x = round(m_x * (1.0 - est["eps_x_hat"]))  # eps_x_hat = (m_x - k_x) / m_x
    group_counts = {  # a group's mean is (2k - m) / (4m)
        pairs[label]: (round(m * (1.0 + 4.0 * est["group_means"][label]) / 2.0), m)
        for label, m in est["group_counts"].items()
    }
    return k_x, m_x, group_counts, doc["key"]["raw_len"]


def _assert_decision_replays(config: ProtocolConfig, text: str) -> None:
    """decide, on the counts the transcript publishes, gives back everything it decided."""
    doc = json.loads(text)
    setup = protocol._setup(config.source, config.candidates)
    decision = protocol.decide(config, setup, *_public_counts(doc, setup))
    estimates = decision.estimates
    if doc["protocol"] == "pm":
        estimates = {**estimates, "n_c": config.n_c}
    ec = doc["key"]["ec"]
    assert canonical_json(
        [estimates, decision.security, decision.abort_reason, decision.ec, decision.final_len]
    ) == canonical_json([
        doc["estimates"], doc["security"], doc["abort_reason"],
        ec and {k: v for k, v in ec.items() if k != "residual_disagreements"},
        doc["key"]["final_len"],
    ])


@pytest.mark.parametrize("run, cfg, digest", REFERENCE_TRANSCRIPTS)
def test_reference_transcripts_are_byte_identical(run, cfg, digest):
    config = ProtocolConfig.from_dict(cfg)
    text = run(config).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    if '"event":"estimate"' in text:  # the run reached measurement
        _assert_decision_replays(config, text)


# decide on hand-built counts of the noiseless pbit: the truth at code 0 for the
# phase groups, and the bit-error count picks the outcome
PBIT_DECIDE = ProtocolConfig(n=200_000, seed=0, m_x=4000, m_prime=4000,
                             source=SourceSpec(kind="pbit"))


@pytest.mark.parametrize("k_x, reason, rows, key_stage", [
    (2000, "rate_nonpositive", None, False),  # eps_x_hat = 0.5
    (3600, None, 16, False),  # eps_x_hat = 0.1: EC's reveal path
    (3960, None, 8, True),  # eps_x_hat = 0.01: a keyed completion
])
def test_decide_judges_hand_built_counts(k_x, reason, rows, key_stage):
    config = PBIT_DECIDE
    setup = protocol._setup(config.source, config.candidates)
    m = config.m_prime
    group_counts = {(ja, jb): (round(m * float(setup.plus[0, ja, jb])), m)
                    for ja, jb in setup.support}
    raw_len = config.n - config.m_x - len(setup.support) * m
    decision = protocol.decide(config, setup, k_x, config.m_x, group_counts, raw_len)
    assert decision == protocol.decide(config, setup, k_x, config.m_x, group_counts, raw_len)
    est = decision.estimates
    assert est["eps_x_hat"] == pytest.approx((config.m_x - k_x) / config.m_x, abs=1e-15)
    assert est["eps_z_hat"] == pytest.approx(0.0, abs=1e-3)
    assert decision.event == {"event": "estimate", "eps_x_hat": est["eps_x_hat"],
                              "eps_z_hat": est["eps_z_hat"], "best_candidate": est["best_candidate"]}
    assert decision.security["bound_params"]["m_z"] == len(setup.support) * m
    assert (decision.abort_reason, decision.key_stage, decision.raw_len) == (reason, key_stage, raw_len)
    if reason is not None:
        assert decision.ec is None and decision.final_len == 0 and est["rate"] == 0.0
        return
    assert decision.ec == syndrome_stats(raw_len, est["eps_x_hat"], config.ec_block)
    assert decision.ec["rows_per_block"] == rows
    assert decision.final_len == pa_length(raw_len, est["eps_x_hat"], est["eps_z_hat"],
                                           decision.ec["syndrome_bits"], config.s)
    assert (decision.final_len > 0) == key_stage


@pytest.mark.parametrize("candidates", [("identity", "u_h"), ("u_h", "identity")])
def test_tied_candidates_pick_the_first(candidates):
    # every group mean 0 gives out = 0, so each candidate reads eps_z = 1/2 exactly
    setup = protocol._setup(SourceSpec(kind="pbit"), candidates)
    est = protocol._estimates(setup, 10_000, 50, 100, dict.fromkeys(setup.support, (50, 100)))
    assert [c["eps_z"] for c in est["candidates"].values()] == [0.5, 0.5]
    assert est["best_candidate"] == candidates[0]


def test_decide_takes_no_rng_and_no_array():
    params = inspect.signature(protocol.decide).parameters
    assert list(params) == ["config", "setup", "k_x", "m_x", "group_counts", "raw_len"]
    assert [params[name].annotation for name in ("k_x", "m_x", "raw_len")] == ["int"] * 3


# the desk rho_h runs complete on EC's reveal path, where the final key is empty:
# they draw no key bit, correct nothing and hash nothing, and keep their bytes
@pytest.mark.parametrize("run, cfg, digest", [REFERENCE_TRANSCRIPTS[i] for i in (0, 1, 8)])
def test_reveal_path_draws_no_key(monkeypatch, run, cfg, digest):
    def refuse(*args, **kwargs):
        raise AssertionError("the reveal path reached the key stage")

    for name in ("_sample_key_bits", "error_correct", "toeplitz_apply"):
        monkeypatch.setattr(protocol, name, refuse)
    transcript = run(ProtocolConfig.from_dict(cfg))
    assert not transcript.abort and transcript.key["ec"]["rows_per_block"] == 16
    text = transcript.to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_equal_sources_share_one_setup():
    protocol._setup.cache_clear()
    for _ in range(2):  # equal but distinct SourceSpec objects
        run_ppp(ProtocolConfig.from_dict({**DESK_PPP, "n": 20000, "m_x": 1000, "m_prime": 1000}))
    info = protocol._setup.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cached_setup_is_read_only():
    setup = protocol._setup(SourceSpec(kind="pbit"), ("identity", "u_h"))
    arrays = [setup.plus, setup.joint16, *setup.decomps.values()]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.5
    with pytest.raises(TypeError):
        setup.decomps["u_h"] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.plus = np.ones((4, 16, 16))


def _eigenbasis_tables(source, support):
    """The set-up's tables by projecting each code's conjugated state onto each pair's joint
    eigenbasis: (plus of sigma_z sigma_z, joint16, {pair: plus}), each indexed by code 2x + z."""
    base = source.base_state().mat
    components = [pauli_flip(base, code >> 1, code & 1) for code in range(4)]
    zz_plus = np.clip([(1.0 + expect(c, gamma_z())) / 2.0 for c in components], 0.0, 1.0)
    zz = PAULI_PRODUCT_LABELS.index("ZZ")
    joint16 = np.array([joint_outcome_table(c, zz, zz)[0] for c in components])
    group_plus = {}
    for pair in support:
        plus = []
        for c in components:
            probs, products = joint_outcome_table(c, *pair)
            plus.append(probs[products > 0].sum())
        group_plus[pair] = np.clip(plus, 0.0, 1.0)
    return zz_plus, joint16, group_plus


@pytest.mark.parametrize("source", [
    {"p": P_STAR, "kappa": 0.0},
    {"p": P_STAR, "kappa": 0.001},
    {"p": 0.3, "kappa": 0.2},
    {"p": 1.0, "kappa": 0.0},
    {"p": 0.0, "kappa": 1.0},
    {"kind": "pbit", "twisting": "u_h", "ancilla": "comp00"},
    {"kind": "pbit", "twisting": "u_h", "ancilla": "maximally_mixed"},
    {"kind": "pbit", "twisting": "identity", "ancilla": "comp00"},
    {"kind": "pbit", "twisting": "identity", "ancilla": "maximally_mixed"},
    KEYED_SOURCE,
], ids=lambda source: json.dumps(source))
def test_setup_tables_match_the_eigenbasis_projections(source):
    spec = SourceSpec.from_dict(source)
    setup = protocol._setup(spec, ("identity", "u_h"))
    zz_plus, joint16, group_plus = _eigenbasis_tables(spec, setup.support)
    zi = PAULI_PRODUCT_LABELS.index("ZI")
    np.testing.assert_allclose(setup.plus[:, zi, zi], zz_plus, rtol=0, atol=1e-12)
    np.testing.assert_allclose(setup.joint16, joint16, rtol=0, atol=1e-12)
    assert set(group_plus) == set(setup.support)
    for (ja, jb), plus in group_plus.items():
        np.testing.assert_allclose(setup.plus[:, ja, jb], plus, rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", [
    {"p": P_STAR, "kappa": 0.001},
    {"p": 0.3, "kappa": 0.2},
    {"kind": "pbit", "twisting": "u_h", "ancilla": "comp00"},
    {"kind": "pbit", "twisting": "u_h", "ancilla": "maximally_mixed"},
    {"kind": "pbit", "twisting": "identity", "ancilla": "maximally_mixed"},
], ids=lambda source: json.dumps(source))
def test_pm_conversion_reproduces_the_run_tables(source):
    # the prepare-and-measure conversion: Alice measures O_ja and so prepares Bob's
    # ensemble, Bob measures O_jb; the product reads +1 with the set-up's plus[0, ja, jb]
    spec = SourceSpec.from_dict(source)
    plus = protocol._setup(spec, ("identity", "u_h")).plus[0]
    rho = spec.base_state().mat
    worst = 0.0
    for ja, label in enumerate(PAULI_PRODUCT_LABELS):
        # the sign of Alice's outcome k, eigenvector order: an I letter reads +1
        signs = np.kron(*([1, 1] if ch == "I" else [1, -1] for ch in label))
        ensemble = pm_signal_ensemble(rho, label)
        for jb in range(16):
            bob = 2.0 * PAULI_PRODUCTS[jb]  # the Pauli product P_jb itself
            prob = sum(p * (1.0 + s * np.trace(sigma @ bob).real) / 2.0
                       for (p, sigma), s in zip(ensemble, signs))
            worst = max(worst, abs(prob - plus[ja, jb]))
    assert worst <= 1e-12


# runs on sources that share cache entries: kappa -0.0 equals 0.0 as a key,
# and the keyed source serves ppp, pm and the estimation round
SMALL_RHO = {"n": 20000, "seed": 3, "m_x": 1000, "m_prime": 1000,
             "source": {"p": P_STAR, "kappa": 0.0}}
NEG_ZERO = {**SMALL_RHO, "source": {"p": P_STAR, "kappa": -0.0}}


def _transcript_job(run, cfg):
    return lambda: run(ProtocolConfig.from_dict(cfg)).to_json()


CACHE_JOBS = {  # name -> (source, job)
    "rho_h kappa 0.0": (SMALL_RHO["source"], _transcript_job(run_ppp, SMALL_RHO)),
    "rho_h kappa -0.0": (NEG_ZERO["source"], _transcript_job(run_ppp, NEG_ZERO)),
    "keyed ppp": (KEYED_SOURCE, _transcript_job(run_ppp, KEYED_PPP)),
    "keyed pm": (KEYED_SOURCE, _transcript_job(run_pm, KEYED_PM)),
    "estimate": (KEYED_SOURCE, lambda: canonical_json(
        run_estimate(SourceSpec.from_dict(KEYED_SOURCE), 5, 2000, 400, ("identity", "u_h")))),
}


# a rho_h ppp, the Eve ppp, the keyed pm and the keyed and rho_h estimation rounds
NO_EIGENBASIS_JOBS = [
    *[(_transcript_job(run, cfg), digest) for run, cfg, digest in
      (REFERENCE_TRANSCRIPTS[i] for i in (0, 2, 4))],
    (CACHE_JOBS["estimate"][1], "afaed1c85efeaa4a"),
    (lambda: canonical_json(run_estimate(
        SourceSpec.from_dict(DESK_PPP["source"]), 5, 4000, 10600, ("identity", "u_h"))),
     "05832dc5610ce386"),
]


def test_run_path_builds_no_eigenbasis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run path built an eigenbasis")

    # a run reads its tables off one Pauli expansion: neither a signal ensemble
    # nor an eigendecomposition is built
    monkeypatch.setattr(estimation, "pm_signal_ensemble", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    protocol._setup.cache_clear()  # so every set-up is built under the patch
    try:
        for job, digest in NO_EIGENBASIS_JOBS:
            assert hashlib.sha256(job().encode()).hexdigest()[:16] == digest
    finally:
        protocol._setup.cache_clear()


def test_setup_expands_each_source_once(monkeypatch):
    # one Pauli expansion and one computational law of the source serve all four
    # pattern codes: no conjugated copy of the state is built
    calls = {"decompose_two_local": 0, "_computational_law": 0}

    def counted(name):
        fn = getattr(protocol, name)

        def count(*args):
            calls[name] += 1
            return fn(*args)

        return count

    for name in calls:
        monkeypatch.setattr(protocol, name, counted(name))

    def refuse(*args, **kwargs):
        raise AssertionError("the set-up conjugated the source state")

    monkeypatch.setattr(DensityState, "conjugate_by", refuse)
    candidates = ("identity", "u_h")
    try:
        # the benchmark's sources: rho_h(p*, 0.001), the keyed pbit and rho_h(p*, 0)
        for source in (DESK_PPP["source"], KEYED_SOURCE, {"p": P_STAR, "kappa": 0.0}):
            protocol._setup.cache_clear()
            calls.update(dict.fromkeys(calls, 0))
            protocol._setup(SourceSpec.from_dict(source), candidates)
            assert calls == {"decompose_two_local": 1 + len(candidates), "_computational_law": 1}
        protocol._setup.cache_clear()
        for job, digest in NO_EIGENBASIS_JOBS:
            assert hashlib.sha256(job().encode()).hexdigest()[:16] == digest
    finally:
        protocol._setup.cache_clear()


def test_estimation_rounds_make_no_solver_attempt(monkeypatch):
    def refuse(*args):
        raise AssertionError("an estimation round ran the parameter solver")

    monkeypatch.setattr(bounds, "_attempt", refuse)
    for job, digest in NO_EIGENBASIS_JOBS[-2:]:
        assert hashlib.sha256(job().encode()).hexdigest()[:16] == digest


# an estimation round refuses what a run's config refuses
@pytest.mark.parametrize("args, error", [
    ((1, 0, 10, ("u_h",)), "need m_x >= 1 and m_prime >= 1"),
    ((1, 10, 0, ("u_h",)), "need m_x >= 1 and m_prime >= 1"),
    ((-1, 10, 10, ("u_h",)), "need seed >= 0"),
    ((1, 10, 10, ("u_h", "foo")), "unknown candidate twisting 'foo'"),
])
def test_estimation_round_refusals(args, error):
    with pytest.raises(ValueError, match=error):
        run_estimate(SourceSpec(), *args)


@pytest.mark.parametrize("name", ["rho_h kappa -0.0", "keyed ppp", "keyed pm", "estimate"])
def test_transcripts_do_not_depend_on_the_cache(name):
    source, job = CACHE_JOBS[name]
    protocol._setup.cache_clear()
    cold = job()
    protocol._setup.cache_clear()
    # warm it with the other jobs in reverse order, those on another source
    # first, so an entry served for the wrong source would show
    others = [other for other in reversed(CACHE_JOBS) if other != name]
    for other in sorted(others, key=lambda other: CACHE_JOBS[other][0] == source):
        CACHE_JOBS[other][1]()
    assert protocol._setup.cache_info().hits > 0
    assert job() == cold


def _broadcast_categorical(probs_by_code, codes, rng):
    # the n x categories reference formula
    cum = np.cumsum(probs_by_code, axis=1)
    cum = cum / cum[:, -1:]
    u = rng.random(codes.size)
    return (u[:, None] > cum[codes]).sum(axis=1)


class _Uniforms:
    """Generator stand-in that hands out a fixed sequence of uniforms in order."""

    def __init__(self, values):
        self.values, self.pos = values, 0

    def random(self, size=None, out=None):
        if out is not None:  # fill a caller's buffer, as Generator.random(out=...) does
            out[...] = self.random(out.size)
            return out
        out = self.values[self.pos : self.pos + (1 if size is None else size)]
        self.pos += out.size
        return out[0] if size is None else out


def _categorical_input(case):
    """(probs, codes, rng, an identical rng) for one sampler-vs-reference comparison."""
    if case == "on_bounds":
        # multiples of 1/16 keep the cumsum exact, and every uniform is some j/16,
        # so uniforms land on bounds and pin ">" against ">="
        gen = np.random.default_rng(0)
        probs = np.stack([np.bincount(gen.integers(16, size=16), minlength=16) / 16 for _ in range(4)])
        codes = gen.integers(0, 4, size=5000).astype(np.uint8)
        values = gen.integers(16, size=codes.size + 1) / 16
        return probs, codes, _Uniforms(values), _Uniforms(values)
    seed = 0 if case in ("one_code", "zero_stride") else case
    gen = np.random.default_rng(seed)
    probs = gen.random((4, 16)) * (gen.random((4, 16)) < 0.6)  # zero-probability categories
    probs[1] = 0.0
    probs[1, gen.integers(16)] = 1.0  # all mass in one category
    probs[3, 0] += 0.1  # every row has mass
    codes = gen.choice(np.array([0, 1, 3], dtype=np.uint8), size=5000)  # code 2 never occurs
    if case == "one_code":
        codes = np.full(5000, 3, dtype=np.uint8)  # every copy on one code, in a real array
    if case == "zero_stride":
        codes = _zero_stride_codes(3, 5000)  # one code, as _pattern_codes gives rho_h
    return probs, codes, np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)


class _NoScan(np.ndarray):
    """Codes on which any ufunc (a min, a max, a comparison) fails the test."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("a value scan ran on zero-stride codes")


def _zero_stride_codes(code: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.uint8(code), n).view(_NoScan)


@pytest.mark.parametrize("case", [*range(5), "one_code", "zero_stride", "on_bounds"])
def test_sample_categorical_matches_broadcast_formula(monkeypatch, case):
    # the key bits are those of the categorical outcome k = 4 ka + kb
    monkeypatch.setattr(channels, "_SAMPLE_CHUNK", 777)  # slice boundaries inside the input
    probs, codes, rng_a, rng_b = _categorical_input(case)
    alice, err = protocol._sample_key_bits(probs, codes, rng_a)
    k = _broadcast_categorical(probs, np.asarray(codes), rng_b)
    assert alice.dtype == err.dtype == np.uint8
    assert np.array_equal(alice, k >> 3)
    assert np.array_equal(err, (k >> 3) ^ ((k >> 1) & 1))
    assert rng_a.random() == rng_b.random()  # exactly one uniform per copy


def test_sample_key_bits_memory_is_linear_without_a_category_table():
    n = 10**6
    gen = np.random.default_rng(0)
    probs = gen.random((4, 16))
    for n_codes in (4, 1):
        codes = gen.integers(0, n_codes, size=n).astype(np.uint8)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            protocol._sample_key_bits(probs, codes, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one output byte per copy for Alice's bits and one for the error pattern; the
        # uniforms and every other temporary live for one slice (an n-sized float64
        # uniform array alone is 8 bytes per copy)
        assert peak < 2 * n + 64 * channels._SAMPLE_CHUNK, n_codes


def _sample_signs(p_plus, codes, rng):
    # the measurement core's former per-copy outcome array, kept as the reference
    u = rng.random(codes.size)
    return np.where(u < p_plus[codes], 1.0, -1.0)


# sizes around the sampler's 65536-copy slices
@pytest.mark.parametrize("m", [1, 65535, 65536, 65537, 200001])
@pytest.mark.parametrize("kind", ["zero_stride", "mixed"])
@pytest.mark.parametrize("scale", [1.0, 0.25])
def test_sample_mean_equals_the_mean_of_the_outcome_array(m, kind, scale):
    # the mean taken from the count sampler's +1 count
    gen = np.random.default_rng(m)
    p_plus = gen.random(4)
    if kind == "zero_stride":
        codes = _zero_stride_codes(2, m)
    else:
        codes = gen.integers(0, 4, size=m).astype(np.uint8)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    mean = protocol._count_mean(protocol._sample_count(p_plus, codes, rng_a), m, scale)
    assert mean == float((scale * _sample_signs(p_plus, np.asarray(codes), rng_b)).mean())
    assert rng_a.random() == rng_b.random()  # exactly one uniform per copy


@settings(max_examples=50, deadline=None)
@given(
    mk=st.integers(1, 200_000).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    scale=st.sampled_from([1.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_mean_equals_the_array_mean(mk, scale, seed):
    # code 0 always reads +scale and code 1 never does, so k copies read +scale
    m, k = mk
    codes = np.random.default_rng(seed).permutation(np.repeat(np.uint8([0, 1]), [k, m - k]))
    assert protocol._sample_count(np.array([1.0, 0.0, 0.0, 0.0]), codes, np.random.default_rng(0)) == k
    mean = protocol._count_mean(k, m, scale)
    assert mean == scale * (2 * k - m) / m == np.where(codes == 0, scale, -scale).mean()


SIZES = (4, 5, 17, 65537, 10**6)


def _skip_half_a_word(*rngs):
    """An odd number of uint32 draws, which leaves half a word buffered."""
    for rng in rngs:
        rng.integers(0, 1000, size=3, dtype=np.uint32)


@pytest.mark.parametrize("n, kind", [
    *(pytest.param(n, "mixed", id=str(n)) for n in SIZES),
    *(pytest.param(n, "equal", id=f"equal-{n}") for n in SIZES),
    *(pytest.param(n, "zero_stride", id=f"zero-stride-{n}") for n in SIZES),
])
@pytest.mark.parametrize("uint32_first", [False, True])
def test_shuffle_draws_the_permutation_of_the_same_size(n, kind, uint32_first):
    # run_ppp shuffles its uint8 codes in place of gathering codes[rng.permutation(n)],
    # and zero-stride codes (every rho_h run) take only the draws, found from the
    # stride with no value scan; the transcripts stay the same only while numpy
    # draws all of them from one Fisher-Yates loop
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    if uint32_first:
        _skip_half_a_word(rng_a, rng_b)
    if kind == "zero_stride":
        c0 = c = _zero_stride_codes(2, n)  # read-only: a write would fail
    else:
        c0 = (np.full(n, 2, dtype=np.uint8) if kind == "equal"
              else np.random.default_rng(n).integers(0, 4, size=n).astype(np.uint8))
        c = c0.copy()
    protocol._shuffle_codes(c, rng_a)
    assert np.array_equal(np.asarray(c), np.asarray(c0)[rng_b.permutation(n)])
    assert rng_a.random() == rng_b.random()
    assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("uint32_first", [False, True])
def test_basis_labels_draw_the_permutation_of_the_same_size(n, uint32_first):
    # _basis_labels shuffles an int32 arange in place of taking rng.permutation(n)'s
    # int64 one: the same permutation, and the generator ends in the same state
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    if uint32_first:
        _skip_half_a_word(rng_a, rng_b)
    labels, n_c = (0, 3, 7), max(1, n // 4)
    expected = np.full(n, -1, dtype=np.int8)
    perm = rng_b.permutation(n)
    for i, label in enumerate(labels):
        expected[perm[i * n_c : (i + 1) * n_c]] = label
    assert np.array_equal(protocol._basis_labels(n, labels, n_c, rng_a), expected)
    assert rng_a.random() == rng_b.random()
    assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


# the agreement test's sources: the noiseless comp00 pbit and one with iid flips
NOISELESS_PBIT = SourceSpec(kind="pbit", twisting="u_h", ancilla="comp00")
IID_PBIT = SourceSpec(kind="pbit", noise=channels.PauliNoiseModel(0.05, 0.11))
EVE = channels.PauliNoiseModel(0.1, 0.0)
NO_FLIPS = channels.PauliNoiseModel(0.0, 0.0)
NO_FLIPS_FIXED = channels.PauliNoiseModel(0.0, 0.0, "fixed_weight")


@pytest.mark.parametrize("source, eve, zero_stride", [
    pytest.param(SourceSpec(p=P_STAR, kappa=0.001), None, True, id="rho_h"),
    # a rho_h source reads no noise, so it refuses one
    pytest.param({"noise": channels.PauliNoiseModel(0.1, 0.1)}, None, ValueError,
                 id="rho_h-noise-ignored"),
    pytest.param(NOISELESS_PBIT, None, True, id="noiseless-pbit"),
    pytest.param(SourceSpec.from_dict(KEYED_SOURCE), None, False, id="noisy-pbit"),
    pytest.param(SourceSpec(p=P_STAR, kappa=0.001), EVE, False, id="rho_h-eve"),
    pytest.param(NOISELESS_PBIT, EVE, False, id="noiseless-pbit-eve"),
    # models of strength 0 flip nothing, whatever their mode
    pytest.param(SourceSpec(p=P_STAR, kappa=0.001), NO_FLIPS, True, id="rho_h-eve-0"),
    pytest.param(NOISELESS_PBIT, NO_FLIPS_FIXED, True, id="noiseless-pbit-fixed-eve-0"),
    pytest.param(SourceSpec(kind="pbit", noise=NO_FLIPS), NO_FLIPS_FIXED, True,
                 id="pbit-noise-0-eve-0"),
    pytest.param(SourceSpec(kind="pbit", noise=NO_FLIPS), EVE, False, id="pbit-noise-0-eve"),
])
def test_pattern_codes_are_zero_stride_exactly_without_noise_or_eve(source, eve, zero_stride):
    if zero_stride is ValueError:
        with pytest.raises(ValueError, match="a rho_h source reads no noise"):
            SourceSpec(**source)
        return
    # every copy has code 0 when no model flips anything, and then no n-sized array is made
    n = 1000
    rng = np.random.default_rng(0)
    codes = protocol._pattern_codes(source, eve, n, rng)
    assert codes.shape == (n,) and codes.dtype == np.uint8
    assert (codes.strides == (0,)) is zero_stride
    assert codes.flags.writeable is not zero_stride
    # every model makes its draws, even one that flips nothing, and no other draw is made
    again = np.random.default_rng(0)
    expected = np.zeros(n, dtype=np.uint8)
    for model in (source.noise, eve):
        if model is not None:
            model.sample_pattern(expected, again)
    assert np.array_equal(codes, expected)
    assert rng.random() == again.random()


def _traced_peak(run, config: ProtocolConfig, abort: bool = False) -> int:
    """A run's tracemalloc peak in bytes, after an untraced warm-up."""
    run(config)  # the set-up cache and lazily imported modules stay outside the trace
    tracemalloc.start()
    try:
        transcript = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transcript.abort is abort  # every stage before the key ran, unless it aborts
    return peak


# a ppp run on rho_h has zero-stride codes (no array) and completes on EC's
# reveal path with no key drawn; its test samples keep only their +1 counts, so
# it holds one group's uniforms at a time (0.10 MB here), whatever n is
@pytest.mark.parametrize("n", [10**6, 10**7])
def test_rho_h_ppp_peak_memory_is_free_of_n(n):
    peak = _traced_peak(run_ppp, ProtocolConfig.from_dict({**DESK_PPP, "n": n, "seed": 1}))
    assert peak < 0.15e6  # rho_h(p*, 0.001); seed 0 aborts


# with a model that flips something, the pattern stage holds the one uint8 code
# array and one sampler slice's uniforms and flags (10 slices' bytes); a 0.3 Eve
# aborts the rho_h run and sends the keyed one down EC's reveal path, so no later
# stage holds more
@pytest.mark.parametrize("cfg, abort", [
    ({**DESK_PPP, "eve": 0.3}, True),
    ({**KEYED_PPP, "eve": 0.3}, False),
], ids=["rho_h", "keyed-pbit"])
def test_a_run_with_noise_holds_one_code_byte_per_copy(cfg, abort):
    config = ProtocolConfig.from_dict({**cfg, "n": 10**6})
    assert _traced_peak(run_ppp, config, abort) < config.n + 12 * channels._SAMPLE_CHUNK


# bytes per copy a run holds at its peak: a rho_h pm run holds its int8 basis
# labels, the int32 permutation that makes them and the gathered key codes;
# keyed pm peaks in the key stage
@pytest.mark.parametrize("run, cfg, bound", [
    (run_pm, {**DESK_PM, "n": 10**6}, 7.0),
    (run_pm, {**KEYED_PM, "n": 10**6}, 25.0),
])
def test_run_peak_memory_per_copy(run, cfg, bound):
    config = ProtocolConfig.from_dict(cfg)
    assert _traced_peak(run, config) / config.n <= bound


@pytest.mark.parametrize("source", [NOISELESS_PBIT, IID_PBIT], ids=["noiseless", "iid"])
def test_model_estimates_match_2000_estimation_rounds(source):
    rounds, m = 2000, 400
    model = model_estimates(source, m, m)
    runs = [run_estimate(source, seed, m, m, ("identity", "u_h")) for seed in range(rounds)]
    eps_x = np.array([r["eps_x_hat"] for r in runs])
    checks = [(np.array([r["candidates"]["u_h"]["eps_z_raw"] for r in runs]),
               model["candidates"]["u_h"]["eps_z_raw"])]
    if source.noise is None:  # no bit errors at all, so no spread to compare
        assert not eps_x.any() and model["eps_x_hat"]["mean"] < 1e-12
    else:
        checks.append((eps_x, model["eps_x_hat"]))
    for x, moments in checks:
        assert abs(x.mean() - moments["mean"]) <= 4 * moments["se"] / math.sqrt(rounds)
        assert abs(x.std(ddof=1) / moments["se"] - 1) <= 4 / math.sqrt(2 * rounds - 2)


def test_model_estimates_give_the_documented_spreads():
    # sd * sqrt(m') of the u_h phase estimate on the noiseless pbit, rho_H(p*, 0)
    # and criterion 8's widest grid cell; then the truth at criterion 12's budget
    widest = SourceSpec(kind="pbit", noise=channels.PauliNoiseModel(0.11, 0.11))
    scaled = [20 * model_estimates(s, 1, 400)["candidates"]["u_h"]["eps_z_raw"]["se"]
              for s in (NOISELESS_PBIT, SourceSpec(p=P_STAR), widest)]
    assert scaled == pytest.approx([0.3062, 0.4204, 0.4038], rel=1e-3)
    crit12 = model_estimates(SourceSpec(p=P_STAR, kappa=0.001), 4000, 10600)
    assert set(crit12["candidates"]) == {"identity", "u_h"}  # every twisting
    got = [m[k] for m in (crit12["eps_x_hat"], crit12["candidates"]["u_h"]["eps_z_raw"])
           for k in ("mean", "se")]
    assert got == pytest.approx([0.41430, 0.00779, 5.0e-4, 0.004085], rel=1e-3)


@pytest.mark.parametrize("m_x, m_prime", [(0, 400), (400, 0), (-1, 400)])
def test_model_estimates_reject_empty_budgets(m_x, m_prime):
    with pytest.raises(ValueError):
        model_estimates(NOISELESS_PBIT, m_x, m_prime)
