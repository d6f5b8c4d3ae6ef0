"""Acceptance gate: thirteen checks, one test function per criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Every check asserts the stated tolerance verbatim.  Criteria 8 and 12 set
recovery/positivity targets that the estimator's sampling spread at the
stated sample sizes cannot meet; they are implemented exactly as stated and
fail honestly -- the measured values are in the assertion messages and the
variance analysis is in README.md.
"""

import math
import time

import mpmath as mp
import numpy as np

from pbitqkd.bounds import (
    BoundParams,
    binary_entropy,
    choose_params,
    composable_insecurity,
    definetti_log2,
    estimation_failure_terms,
    frequency_deviation_log2,
    group_average_error_bound,
    key_rate,
    log2_hoeffding_tail,
    protocol_failure_bound,
    substring_sampling_bound,
)
from pbitqkd.channels import POVM_M0, POVM_M1, apply_pauli, binding_channel_apply
from pbitqkd.cli import _six_state_deviation
from pbitqkd.estimation import decompose_two_local, estimate_eps_z_locc, support_pairs
from pbitqkd.linalg import (
    basis_ket,
    herm_eig,
    kron_all,
    proj,
    trace_distance,
)
from pbitqkd.protocol import ProtocolConfig, run_pm, run_ppp
from pbitqkd.states import (
    KEY_SHIELD_LAYOUT,
    P_STAR,
    DensityState,
    bell_vec,
    ccq_state,
    purify,
    rho_h,
    sigma_ab,
)
from pbitqkd.twist import (
    build_u_h,
    gamma_x,
    gamma_z,
    make_pdit,
    untwist_and_trace,
)
from reference import joint_outcome_table, random_density, random_twisting

mp.mp.dps = 30


def _double_phi() -> DensityState:
    vec = kron_all(bell_vec(0), bell_vec(0))
    return DensityState(np.outer(vec, vec.conj()), KEY_SHIELD_LAYOUT)


def test_criterion_01_ppt_window_of_the_hiding_state():
    t0 = time.monotonic()
    vals, _ = herm_eig(rho_h(P_STAR, 0.0).partial_transpose(("B", "B'")))
    assert vals.min() >= -1e-10
    # PPT persists across kappa in [0, 0.01] at the critical point ...
    for kappa in np.linspace(0.0, 0.01, 11):
        v, _ = herm_eig(rho_h(P_STAR, float(kappa)).partial_transpose(("B", "B'")))
        assert v.min() >= -1e-10, f"kappa = {kappa}"
    # ... and across a nonempty p-interval around it once kappa > 0
    for p in np.linspace(P_STAR - 1e-3, P_STAR + 1e-3, 9):
        v, _ = herm_eig(rho_h(float(p), 0.01).partial_transpose(("B", "B'")))
        assert v.min() >= -1e-10, f"p = {p}"
    elapsed = time.monotonic() - t0
    print(f"min PT eigenvalue at (p*, 0): {vals.min():.3e}; elapsed {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_02_untwisting_reduces_to_the_target_state():
    t0 = time.monotonic()
    tw = build_u_h()
    devs = {}
    for p, kappa in ((P_STAR, 0.0), (0.5858, 0.001)):
        devs[(p, kappa)] = untwist_and_trace(rho_h(p, kappa), tw).distance_to(
            sigma_ab(p, kappa)
        )
        assert devs[(p, kappa)] <= 1e-9, (p, kappa)
    elapsed = time.monotonic() - t0
    print(f"untwisting trace distances: {devs}; elapsed {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_03_binding_channel_and_povm_identities():
    phi2 = _double_phi()
    devs = {}
    for p in (P_STAR, 0.3):
        devs[p] = binding_channel_apply(phi2, p, 0.0).distance_to(rho_h(p, 0.0))
        assert devs[p] <= 1e-9, p
    povm_dev = float(
        np.abs(POVM_M0.conj().T @ POVM_M0 + POVM_M1.conj().T @ POVM_M1 - np.eye(2)).max()
    )
    print(f"channel-output trace distances: {devs}; POVM completeness dev {povm_dev:.2e}")
    assert povm_dev <= 1e-12


def test_criterion_04_key_rate_at_the_working_point():
    rate = key_rate(0.5858, 0.0)
    print(f"key_rate(0.5858, 0) = {rate:.6f}")
    assert abs(rate - 0.0213) <= 5e-4


def test_criterion_05_phase_observable_invariant_under_twisting():
    rng = np.random.default_rng(5)
    gz = gamma_z(KEY_SHIELD_LAYOUT)
    worst = 0.0
    for _ in range(100):
        u = random_twisting(rng).assemble()
        worst = max(worst, float(np.linalg.norm(u @ gz @ u.conj().T - gz, 2)))
    print(f"worst ||U Gz U^dag - Gz|| over 100 twistings: {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_06_decomposition_norm_is_sixteen():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        dec = decompose_two_local(gamma_x(random_twisting(rng)))
        worst = max(worst, abs(float(np.sum(dec**2)) - 16.0))
    print(f"worst |sum s^2 - 16| over 100 twistings: {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_07_ccq_state_invariant_under_shield_twisting():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        rho = DensityState(random_density(16, rng), KEY_SHIELD_LAYOUT)
        w = purify(rho)
        u = random_twisting(rng).assemble()
        dev = trace_distance(ccq_state(rho, w), ccq_state(rho, u @ w))
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    print(f"worst ccq trace distance over 50 (rho, U) pairs: {worst:.2e}; "
          f"elapsed {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_08_locc_estimator_recovers_planted_phase_errors():
    tw = build_u_h()
    pbit = make_pdit(tw, proj(kron_all(basis_ket(0, 2), basis_ket(0, 2))))
    dec = decompose_two_local(gamma_x(tw))
    gx = gamma_x(tw)
    grid = [(ex, ez) for ex in (0.0, 0.05, 0.11) for ez in (0.0, 0.05, 0.11)]

    def planted_mixture(ex, ez):
        acc = np.zeros_like(pbit.mat)
        for x in (0, 1):
            for z in (0, 1):
                w = (ex if x else 1.0 - ex) * (ez if z else 1.0 - ez)
                if w > 0.0:
                    acc = acc + w * apply_pauli(pbit, x, z, "B").mat
        return DensityState(acc, pbit.layout)

    rng = np.random.default_rng(20260815)
    trials, m_prime, hits = 200, 400, 0
    for trial in range(trials):
        mix = planted_mixture(*grid[trial % len(grid)])
        truth = (1.0 - float(mix.expect(gx).real)) / 2.0
        records = {}
        for ja, jb in support_pairs(dec):
            probs, products = joint_outcome_table(mix, ja, jb)
            idx = rng.choice(len(products), size=m_prime, p=probs)
            records[(ja, jb)] = products[idx].mean()
        est = estimate_eps_z_locc(records, dec)["eps_z"]
        if abs(est - truth) <= 0.02:
            hits += 1
    rate = hits / trials
    print(f"recovered eps_z within +/-0.02 in {hits}/{trials} = {rate:.1%} of trials")
    assert rate >= 0.95, (
        f"recovery rate {rate:.1%} < 95%: the estimator's spread at m' = 400 "
        f"per group (std ~ 0.015) exceeds the +/-0.02 window; documented "
        f"failure, see README.md"
    )


def test_criterion_09_sampling_bound_holds_in_monte_carlo():
    rng = np.random.default_rng(9)
    total, trials, checked = 10_000, 2000, 0
    for frac in (0.3, 0.5):
        ngood = int(frac * total)
        for k in (500, 1000, 2000, 5000):
            for eps in (0.05, 0.08, 0.12):
                bound = substring_sampling_bound(k, eps, 2)
                if bound >= 1.0:
                    continue
                draws = rng.hypergeometric(ngood, total - ngood, k, size=trials)
                tv = np.abs(draws / k - ngood / total)
                emp = float((tv >= eps).mean())
                assert emp <= bound, (frac, k, eps, emp, bound)
                checked += 1
    print(f"bound respected at all {checked} non-vacuous grid points")
    assert checked >= 6  # the grid must actually exercise the bound


def test_criterion_10_bound_formulas_match_high_precision_oracle():
    REL = 1e-9

    def close_log2(ours, oracle):
        olog = float(mp.log(oracle, 2))
        return abs(ours - olog) <= REL * max(1.0, abs(olog))

    def mp_entropy(x):
        x = mp.mpf(x)
        if x == 0 or x == 1:
            return mp.mpf(0)
        return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)

    # mean-deviation tail
    assert close_log2(
        log2_hoeffding_tail(256000, 0.05), 2 * mp.exp(-2 * mp.mpf(256000) * mp.mpf("0.05") ** 2)
    )
    # substring sampling
    assert close_log2(
        math.log2(substring_sampling_bound(10**4, 0.05, 2)),
        2 * mp.exp(-mp.mpf(10**4) * mp.mpf("0.05") ** 2 / 16),
    )
    # frequency deviation
    n, delta, r, z = 10**6, 0.01, 100, 2
    oracle = -mp.mpf(n) * (mp.mpf(delta) ** 2 / 4 - mp_entropy(mp.mpf(r) / n)) + z * mp.log(
        mp.mpf(n) / 2 + 1, 2
    )
    assert abs(frequency_deviation_log2(n, delta, r, z) - float(oracle)) <= REL * abs(float(oracle))
    # exchangeability tail, both dimension conventions
    for power in (1, 2):
        oracle = 2 * mp.exp(
            -mp.mpf(10**4) * 161 / (2 * (10**4 + 10**4)) + mp.mpf("0.5") * 16**power * mp.log(10**4)
        )
        assert close_log2(definetti_log2(10**4, 10**4, 160, 16, dim_power=power), oracle)
    # three-term estimation failure
    n, m, delta, r, d, t, hs2 = 10**6, 16000, 0.05, 160, 2, 16, 16.0
    terms = estimation_failure_terms(n, m, delta, r, d, t, hs2)
    mprime = mp.mpf(m) / t
    e1 = 2 * mp.exp(-mp.mpf(n) * (r + 1) / (2 * (2 * m + n)) + mp.mpf("0.5") * d * d * mp.log(n))
    e2 = (t + 1) * mp.power(
        2,
        -(mp.mpf(delta) ** 2 / (4 * t * hs2) - mp_entropy(mp.mpf(r) / mprime)) * mprime
        + d * mp.log(mprime / 2 + 1, 2),
    )
    e3 = d * mp.exp(-mp.mpf(m) * mp.mpf(delta) ** 2 / (8 * d * hs2))
    assert close_log2(terms.log2_e1, e1)
    assert close_log2(terms.log2_e2, e2)
    assert close_log2(terms.log2_e3, e3)
    assert close_log2(terms.log2_total, e1 + e2 + e3)
    # group-average transfer factor
    assert close_log2(
        math.log2(group_average_error_bound(16, 4.0, 0.01)), mp.sqrt(16) * 4 * mp.mpf("0.01")
    )
    # aggregate four-term bound at solver scale, plus the insecurity it implies
    sol = choose_params(40, 0.05)
    assert sol.feasible
    fb = protocol_failure_bound(
        BoundParams(n=sol.n, m_x=sol.m_x, m_z=sol.m_z, delta=0.05, r=sol.r, s=40)
    )
    nmp, mx, mz, dl = mp.mpf(sol.n), mp.mpf(sol.m_x), mp.mpf(sol.m_z), mp.mpf("0.05")
    d, dp = 2, 4
    t = d * d * dp
    t1 = 2 * mp.exp(-mx * dl**2 / 16)
    t2 = 2 * mp.exp(-(nmp - mz) * (sol.r + 1) / (2 * nmp)
                    + mp.mpf("0.5") * d**4 * dp**2 * mp.log(nmp - mz))
    gap = dl**2 / (36 * t * t * d * d * dp) - mp_entropy(sol.r * t * t / mz)
    t3 = (t * t + 1) * mp.power(
        2, -gap * (mz / (t * t)) + dp * d * d * mp.log(mz / (2 * t * t) + 1, 2)
    )
    t4 = 2 * mp.exp(-mz * dl**2 / (144 * dp * d * d))
    assert close_log2(fb.log2_f, t1 + t2 + t3 + t4)
    insec = composable_insecurity(fb.f, 2.0**-40)
    assert 0.0 < insec < 1e-5

    # the solver's outputs satisfy every prescription inequality on re-check
    s, delta, d, dp = 40, 0.05, 2, 4
    t = d * d * dp
    mp_, r, n = sol.m_prime, sol.r, sol.n
    assert sol.m_x == math.ceil(16 * s / delta**2)
    assert r >= 4 * s and r >= d**4 * dp**2 * math.log(n)
    target = delta**2 / (72 * t * t * d * d * dp)
    assert binary_entropy(r / mp_) <= target
    assert mp_ * target >= 2 * dp * d * d * math.log2(mp_ / 2 + 1)
    assert mp_ >= 144 * s * t * t * d * d * dp / delta**2 - 2 * math.log2(t)
    assert mp_ >= (s + 1) * 144 * dp * d * d / (t * t * delta**2)
    assert sol.m_z == t * t * mp_
    assert sol.m_x + sol.m_z < n
    print(f"all six bound families within rel 1e-9; solver n = {sol.n:.4e}, "
          f"insecurity = {insec:.3e}")


def test_criterion_11_signal_ensembles_match_the_six_state_pattern():
    dev = _six_state_deviation(_double_phi())
    print(f"six-state ensemble max deviation: {dev:.2e}")
    assert dev <= 1e-12


def test_criterion_12_end_to_end_runs_yield_positive_rate_and_catch_eve():
    t0 = time.monotonic()
    base = {
        "n": 100000, "s": 40, "delta": 0.05, "m_x": 4000, "m_prime": 10600,
        "source": {"p": P_STAR, "kappa": 0.001},
    }
    good = aborts = 0
    for seed in range(20):
        t = run_ppp(ProtocolConfig.from_dict({**base, "seed": seed}))
        est = t.estimates
        if (not t.abort and est["eps_z_hat"] <= 0.01
                and key_rate(est["eps_x_hat"], est["eps_z_hat"]) > 0.0):
            good += 1
        te = run_ppp(ProtocolConfig.from_dict({**base, "seed": seed, "eve": 0.3}))
        aborts += int(te.abort)
    elapsed = time.monotonic() - t0
    print(f"no-Eve positive-rate runs: {good}/20; Eve-intercept aborts: "
          f"{aborts}/20; elapsed {elapsed:.1f}s")
    assert elapsed < 300.0
    assert good >= 18 and aborts >= 20, (
        f"no-Eve positive-rate runs {good}/20 (need >= 18), Eve aborts "
        f"{aborts}/20 (need 20): at this budget one seed passes with probability "
        f"0.651 +- 0.001 (the exact count law judged by protocol.decide), so "
        f"P(>= 18/20) ~ 1.2%; documented failure, see README.md"
    )


def test_criterion_13_transcripts_are_byte_identical():
    cfg = ProtocolConfig.from_dict({
        "n": 100000, "seed": 3, "s": 40, "delta": 0.05, "m_x": 4000,
        "m_prime": 10600, "source": {"p": P_STAR, "kappa": 0.001},
    })
    assert run_ppp(cfg).to_json() == run_ppp(cfg).to_json()
    cfg_pm = ProtocolConfig.from_dict({
        "n": 100000, "seed": 3, "s": 1, "delta": 0.5, "m_x": 2000,
        "source": {"p": P_STAR, "kappa": 0.0},
    })
    assert run_pm(cfg_pm).to_json() == run_pm(cfg_pm).to_json()
    print("ppp and pm transcripts byte-identical across repeated invocations")
