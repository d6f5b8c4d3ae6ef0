"""Security-bound formulas against an independent 30-digit re-evaluation.

Every closed-form bound is recomputed here with mpmath at 30 significant
digits, straight from the formula text, and compared in log2 space at
relative 1e-9.  The parameter solver's outputs are re-checked against each
inequality they claim to satisfy.
"""

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd import bounds
from pbitqkd.bounds import (
    BoundParams,
    binary_entropy,
    check_solver_args,
    choose_params,
    composable_insecurity,
    definetti_log2,
    estimation_failure_terms,
    frequency_deviation_log2,
    group_average_error_bound,
    key_rate,
    log2_hoeffding_tail,
    log2_substring_sampling_bound,
    protocol_failure_bound,
    relaxation_budget,
    substring_sampling_bound,
)
from pbitqkd.canonical import canonical_json
from pbitqkd.cli import EXIT_OK, EXIT_USAGE, main
from pbitqkd.protocol import ProtocolConfig

mp.mp.dps = 30

REL = 1e-9


def close_log2(ours_log2, oracle_value):
    """Compare a log2-space value against an mpmath value at relative 1e-9."""
    oracle_log2 = mp.log(oracle_value, 2)
    if oracle_log2 == 0:
        return abs(ours_log2) < REL
    return abs(ours_log2 - float(oracle_log2)) <= REL * abs(float(oracle_log2))


def mp_entropy(x):
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


# --- binary entropy and rates ---------------------------------------------------


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5858) - 0.97869) < 5e-5
    with pytest.raises(ValueError):
        binary_entropy(-0.01)


def test_binary_entropy_against_oracle():
    for x in (0.01, 0.11, 0.3, 0.5858, 0.999):
        assert abs(binary_entropy(x) - float(mp_entropy(x))) < 1e-12


def test_key_rate_examples():
    assert abs(key_rate(0.5858, 0.0) - 0.0213) < 5e-4
    assert key_rate(0.5, 0.5) == 0.0  # abort
    assert key_rate(0.0, 0.0) == 1.0
    # the clamp: deep in the noise the rate is exactly zero, not negative
    assert key_rate(0.3, 0.3) == 0.0


# --- elementary tails vs mpmath -------------------------------------------------


def test_mean_deviation_tail_examples():
    assert abs(2.0 ** log2_hoeffding_tail(100, 0.0) - 2.0) < 1e-15
    assert abs(2.0 ** log2_hoeffding_tail(100, 0.1) - 2.0 * math.exp(-2.0)) < 1e-12


def test_mean_deviation_tail_oracle():
    for m, delta in [(1, 0.5), (100, 0.1), (256000, 0.05), (10**9, 1e-4)]:
        oracle = 2 * mp.exp(-2 * mp.mpf(m) * mp.mpf(delta) ** 2)
        assert close_log2(log2_hoeffding_tail(m, delta), oracle), (m, delta)


def test_substring_sampling_examples():
    assert abs(substring_sampling_bound(10, 0.0, 2) - 2.0) < 1e-15
    assert abs(substring_sampling_bound(800, 0.1, 2) - 2.0 * math.exp(-0.5)) < 1e-12


def test_substring_sampling_oracle():
    for k, eps, z in [(800, 0.1, 2), (10**4, 0.05, 2), (10**6, 0.01, 4), (5, 0.9, 3)]:
        oracle = z * mp.exp(-mp.mpf(k) * mp.mpf(eps) ** 2 / (8 * z))
        assert close_log2(log2_substring_sampling_bound(k, eps, z), oracle), (k, eps, z)


def test_frequency_deviation_examples():
    # r = 0, delta = 0 collapses to (n/2 + 1)^{|Z|}
    n, z = 1000, 2
    assert abs(2.0 ** frequency_deviation_log2(n, 0.0, 0, z) - (n / 2 + 1) ** z) < 1e-6
    # the desk-scale instance is vacuous and reported as-is
    val = frequency_deviation_log2(1000, 0.1, 0, 2)
    assert val > 0.0
    oracle = mp.power(2, -mp.mpf(1000) * (mp.mpf("0.01") / 4) + 2 * mp.log(501, 2))
    assert close_log2(val, oracle)
    with pytest.raises(ValueError):
        frequency_deviation_log2(100, 0.1, 51, 2)  # r > n/2


def test_frequency_deviation_oracle():
    for n, delta, r, z in [(10**4, 0.05, 40, 2), (10**6, 0.01, 100, 2), (500, 0.3, 250, 4)]:
        expo = -mp.mpf(n) * (mp.mpf(delta) ** 2 / 4 - mp_entropy(mp.mpf(r) / n)) \
            + z * mp.log(mp.mpf(n) / 2 + 1, 2)
        ours = frequency_deviation_log2(n, delta, r, z)
        assert abs(ours - float(expo)) <= REL * max(1.0, abs(float(expo))), (n, delta, r)


def test_definetti_examples():
    # k = 1: the dim term vanishes (ln 1 = 0)
    n, r = 100, 10
    oracle = 2 * mp.exp(-mp.mpf(r + 1) / (2 * (n + 1)))
    assert close_log2(definetti_log2(n, 1, r, 16), oracle)
    # increasing in dim
    assert definetti_log2(10**4, 10**4, 160, 16) > definetti_log2(10**4, 10**4, 160, 4)
    with pytest.raises(ValueError):
        definetti_log2(100, 0, 10, 16)
    with pytest.raises(ValueError):
        definetti_log2(100, 10, 10, 16, dim_power=3)


def test_definetti_oracle_both_dim_conventions():
    for n, k, r, dim in [(10**4, 10**4, 160, 16), (10**6, 10**3, 40, 4), (50, 7, 3, 2)]:
        for power in (1, 2):
            oracle = 2 * mp.exp(
                -mp.mpf(k) * (r + 1) / (2 * (n + k)) + mp.mpf("0.5") * dim**power * mp.log(k)
            )
            assert close_log2(definetti_log2(n, k, r, dim, dim_power=power), oracle)


# --- three-term estimation failure ----------------------------------------------


def test_estimation_failure_terms_oracle():
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
    assert abs(terms.log2_e2 - float(mp.log(e2, 2))) <= REL * abs(float(mp.log(e2, 2)))
    assert close_log2(terms.log2_e3, e3)
    total = e1 + e2 + e3
    assert abs(terms.log2_total - float(mp.log(total, 2))) <= REL * abs(float(mp.log(total, 2)))


def test_estimation_failure_e1_is_the_exchangeability_bound():
    # every term is exactly one call to a criterion-10 primitive (plus the group-count
    # prefactor); e1 is the k,n-swapped two-convention bound with dim_power = 2
    n, m, delta, r, d, t, hs2 = 10**5, 4000, 0.05, 80, 2, 16, 16.0
    terms = estimation_failure_terms(n, m, delta, r, d, t, hs2)
    assert terms.log2_e1 == definetti_log2(2 * m, n, r, d, dim_power=2)
    assert terms.log2_e2 == math.log2(t + 1) + frequency_deviation_log2(
        m / t, delta / math.sqrt(t * hs2), r, d
    )
    assert terms.log2_e3 == log2_substring_sampling_bound(m, delta / math.sqrt(hs2), d)
    # the four aggregate terms at d = 2, d' = 4 (t = 16), at desk scale and at solver scale
    dp = 4
    sol = choose_params(40, 0.05)
    for n, m_x, m_z, delta, r in ((10**6, 25000, 4 * 10**5, 0.05, 160),
                                  (sol.n, sol.m_x, sol.m_z, sol.delta, sol.r)):
        fb = protocol_failure_bound(BoundParams(n=n, m_x=m_x, m_z=m_z, delta=delta, r=r))
        assert fb.log2_terms == {
            "bit_sampling": log2_hoeffding_tail(m_x, delta / math.sqrt(32)),
            "post_selection": definetti_log2(m_z, n - m_z, r, d * d * dp),
            "phase_groups": math.log2(t * t + 1) + frequency_deviation_log2(
                m_z / t**2, delta / (3 * t * d * math.sqrt(dp)), r, dp * d * d
            ),
            "phase_tail": log2_hoeffding_tail(m_z, delta / (12 * d * math.sqrt(2 * dp))),
        }


def test_estimation_failure_e3_prefactor_at_zero_delta():
    terms = estimation_failure_terms(10**5, 4000, 0.0, 80, 2, 16, 16.0)
    assert abs(2.0**terms.log2_e3 - 2.0) < 1e-12  # prefactor d survives


def test_estimation_failure_e2_vacuous_when_r_exceeds_groups():
    terms = estimation_failure_terms(10**5, 64, 0.05, 80, 2, 16, 16.0)  # m' = 4 < r
    assert math.isinf(terms.log2_e2)
    # r/m' in (1/2, 1] leaves the entropy term's increasing branch: inf, as in the solver
    r = 80
    for m_prime in (100, 80):  # r/m' = 0.8 and 1
        terms = estimation_failure_terms(10**5, 16 * m_prime, 0.05, r, 2, 16, 16.0)
        assert terms.log2_e2 == math.inf
    assert math.isfinite(estimation_failure_terms(10**5, 16 * 2 * r, 0.05, r, 2, 16, 16.0).log2_e2)
    # the aggregate phase-group term at d = 2, d' = 4 (t^2 = 256 groups)
    r = 4000
    for m_z in (256 * r, 256 * r * 4 // 3, 256 * 2 * r - 1):  # r t^2/m_z = 1, 3/4, just over 1/2
        fb = protocol_failure_bound(BoundParams(n=10**7, m_x=100, m_z=m_z, delta=0.05, r=r))
        assert fb.log2_terms["phase_groups"] == math.inf
        assert fb.vacuous
        doc = json.loads(canonical_json(fb.to_dict()), parse_constant=_reject_constant)
        assert doc["log2_terms"]["phase_groups"] is None and doc["vacuous"] is True
    edge = BoundParams(n=10**7, m_x=100, m_z=256 * 2 * r, delta=0.05, r=r)  # 2r == m_z/t^2
    assert math.isfinite(protocol_failure_bound(edge).log2_terms["phase_groups"])


def _reject_constant(name):
    raise AssertionError(f"non-finite value {name} in the JSON document")


# --- aggregate bound -------------------------------------------------------------


def oracle_aggregate(n, m_x, m_z, delta, r, d, dp):
    t = d * d * dp
    n, m_x, m_z = mp.mpf(n), mp.mpf(m_x), mp.mpf(m_z)
    delta = mp.mpf(delta)
    t1 = 2 * mp.exp(-m_x * delta**2 / 16)
    t2 = 2 * mp.exp(-(n - m_z) * (r + 1) / (2 * n) + mp.mpf("0.5") * d**4 * dp**2 * mp.log(n - m_z))
    gap = delta**2 / (36 * t * t * d * d * dp) - mp_entropy(r * t * t / m_z)
    t3 = (t * t + 1) * mp.power(2, -gap * (m_z / (t * t)) + dp * d * d * mp.log(m_z / (2 * t * t) + 1, 2))
    t4 = 2 * mp.exp(-m_z * delta**2 / (144 * dp * d * d))
    return t1, t2, t3, t4


def test_protocol_failure_bound_oracle_desk_scale():
    params = BoundParams(n=10**6, m_x=25000, m_z=4 * 10**5, delta=0.05, r=160)
    fb = protocol_failure_bound(params)
    t1, t2, t3, t4 = oracle_aggregate(10**6, 25000, 4 * 10**5, 0.05, 160, 2, 4)
    for ours, oracle in zip(
        (fb.log2_terms["bit_sampling"], fb.log2_terms["post_selection"],
         fb.log2_terms["phase_groups"], fb.log2_terms["phase_tail"]),
        (t1, t2, t3, t4),
    ):
        assert close_log2(ours, oracle)
    total = t1 + t2 + t3 + t4
    assert abs(fb.log2_f - float(mp.log(total, 2))) <= REL * abs(float(mp.log(total, 2)))
    assert fb.vacuous  # desk scale: the bound exceeds 1 and says so


def test_protocol_failure_bound_oracle_at_solver_scale():
    sol = choose_params(40, 0.05)
    params = BoundParams(n=sol.n, m_x=sol.m_x, m_z=sol.m_z, delta=0.05, r=sol.r, s=40)
    fb = protocol_failure_bound(params)
    t1, t2, t3, t4 = oracle_aggregate(sol.n, sol.m_x, sol.m_z, 0.05, sol.r, 2, 4)
    total = t1 + t2 + t3 + t4
    assert abs(fb.log2_f - float(mp.log(total, 2))) <= REL * abs(float(mp.log(total, 2)))
    assert not fb.vacuous


def test_composable_insecurity():
    assert composable_insecurity(0.0, 0.0) == 0.0
    assert abs(composable_insecurity(1e-12, 2.0**-40) - math.sqrt(4e-12 + 2.0**-80)) < 1e-18
    assert math.isinf(composable_insecurity(math.inf, 0.1))
    with pytest.raises(ValueError):
        composable_insecurity(-1.0, 0.1)


def test_group_average_error_bound():
    assert group_average_error_bound(4, 3.0, 0.0) == 0.0
    # single coefficient, L = sigma_x ⊗ sigma_x (HS norm 2): bound is 2 * dist
    assert abs(group_average_error_bound(1, 2.0, 0.25) - 0.5) < 1e-15


def test_group_average_error_bound_dominates_brute_force():
    """Randomized transfer check: perturbing each group's outcome law by at
    most dist (total variation) moves the decomposed average by at most
    sqrt(t) * ||L||_HS * dist."""
    from pbitqkd.estimation import decompose_two_local, support_pairs
    from pbitqkd.states import KEY_SHIELD_LAYOUT, DensityState
    from pbitqkd.twist import gamma_x
    from reference import joint_outcome_table, random_density, random_twisting

    rng = np.random.default_rng(99)
    for trial in range(5):
        tw = random_twisting(rng)
        gx = gamma_x(tw)
        dec = decompose_two_local(gx)
        state = DensityState(random_density(16, rng), KEY_SHIELD_LAYOUT)
        support = support_pairs(dec)
        true_avg, pert_avg, max_tv = 0.0, 0.0, 0.0
        for ja, jb in support:
            probs, products = joint_outcome_table(state, ja, jb)
            noise = rng.uniform(-1, 1, size=probs.size) * 0.01
            noise -= noise.mean()
            q = np.clip(probs + noise, 0.0, None)
            q /= q.sum()
            max_tv = max(max_tv, 0.5 * float(np.abs(q - probs).sum()))
            true_avg += dec[ja, jb] * float(np.dot(probs, products))
            pert_avg += dec[ja, jb] * float(np.dot(q, products))
        bound = group_average_error_bound(len(support), math.sqrt(float(np.sum(dec**2))), max_tv)
        assert abs(true_avg - pert_avg) <= bound + 1e-12


# --- relaxation budget and solver -------------------------------------------------


def test_relaxation_budget_satisfies_both_inequalities():
    for s, n in [(1, 10**4), (40, 10**6), (40, 10**19), (5, 100)]:
        r = relaxation_budget(s, n)
        assert r >= 4 * s
        assert r >= 2**4 * 4**2 * math.log(n)
    with pytest.raises(ValueError):
        relaxation_budget(0, 100)


def test_solver_pins_bit_error_sample_size():
    sol = choose_params(40, 0.05)
    assert sol.m_x == 256000  # ceil(16 * 40 / 0.05^2)
    assert sol.feasible


def test_solver_m_x_monotone_in_s():
    sizes = [choose_params(s, 0.05, n=10**19).m_x for s in (3, 10, 20, 40)]
    assert sizes == sorted(sizes)
    assert all(
        choose_params(s, 0.05, n=10**19).m_x == math.ceil(16 * s / 0.05**2)
        for s in (3, 10, 20, 40)
    )


def test_solver_outputs_satisfy_every_claimed_inequality():
    """Re-check items (1)-(4) of the parameter prescription, restated here."""
    s, delta, d, dp = 40, 0.05, 2, 4
    t = d * d * dp
    sol = choose_params(s, delta, d, dp)
    assert sol.feasible
    mp_, r, n = sol.m_prime, sol.r, sol.n
    # (1) bit-error sample size
    assert sol.m_x == math.ceil(16 * s / delta**2)
    # (2) relaxation budget dominates both stated lower bounds
    assert r >= 4 * s and r >= d**4 * dp**2 * math.log(n)
    # (3) entropy gap, log overhead, sampling floor
    target = delta**2 / (72 * t * t * d * d * dp)
    assert binary_entropy(r / mp_) <= target
    assert mp_ * target >= 2 * dp * d * d * math.log2(mp_ / 2 + 1)
    assert mp_ >= 144 * s * t * t * d * d * dp / delta**2 - 2 * math.log2(t)
    # (4) per-group floor
    assert mp_ >= (s + 1) * 144 * dp * d * d / (t * t * delta**2)
    # group count ties m_z to m'
    assert sol.m_z == t * t * mp_
    # budget
    assert sol.m_x + sol.m_z < n
    # margins in the report are all nonnegative
    assert all(v >= 0.0 for v in sol.margins.values())


def test_solver_m_prime_is_minimal():
    sol = choose_params(40, 0.05)
    from pbitqkd.bounds import _mprime_constraints

    cons = _mprime_constraints(40, 0.05, 2, 4, sol.r)
    assert all(fn(sol.m_prime) >= 0 for fn in cons.values())
    assert any(fn(sol.m_prime - 1) < 0 for fn in cons.values())


def test_solver_n_is_minimal_and_bound_nonvacuous():
    s = 40
    sol = choose_params(s, 0.05)
    assert sol.feasible
    assert not choose_params(s, 0.05, n=sol.n - 1).feasible
    fb = protocol_failure_bound(
        BoundParams(n=sol.n, m_x=sol.m_x, m_z=sol.m_z, delta=0.05, r=sol.r, s=s)
    )
    target = -s + math.log2(1 + 1e-6)
    for name, val in fb.log2_terms.items():
        assert val <= target, name
    # aggregate stays within 4 * 2^-s * (1 + 1e-3)
    assert fb.log2_f <= 2.0 - s + math.log2(1 + 1e-3)
    assert not fb.vacuous
    insec = composable_insecurity(fb.f, 2.0**-s)
    assert 0.0 < insec < 1e-5


def test_solver_reports_infeasibility_with_binding_constraint():
    sol = choose_params(40, 0.05, n=10**5)
    assert not sol.feasible
    assert sol.binding_constraint == "n_budget"
    assert sol.message
    # tiny s can never push the pinned bit-sampling term below 2^-s
    sol2 = choose_params(1, 0.05, n=10**19)
    assert not sol2.feasible
    assert sol2.binding_constraint == "term_bit_sampling"


def _count_attempts(monkeypatch) -> list:
    """Wrap the solver's one-n attempt; the returned list grows by one per attempt."""
    made, attempt = [], bounds._attempt
    monkeypatch.setattr(bounds, "_attempt", lambda *args: made.append(args) or attempt(*args))
    return made


def _doubling_search(s: int, delta: float, d: int, d_prime: int) -> int | None:
    """The first feasible n of the full doubling search below the cap, or None:
    the reference an infeasible cap is answered against."""
    n = max(4 * math.ceil(16.0 * s / (delta * delta)), 1024)
    while n <= bounds._N_CAP:
        if bounds._attempt(s, delta, d, d_prime, n).feasible:
            return n
        n *= 2
    return None


# at d = 1024 the post-selection term, at d = 2^20 the budget fails at every n
@pytest.mark.parametrize("d, binding", [(1024, "term_post_selection"), (2**20, "n_budget")])
@pytest.mark.parametrize("s, delta", [(5, 0.5), (40, 0.05)])
def test_an_infeasible_cap_is_answered_from_its_one_attempt(monkeypatch, s, delta, d, binding):
    cap = bounds._attempt(s, delta, d, 4, bounds._N_CAP)
    assert not cap.feasible and cap.binding_constraint == binding
    made = _count_attempts(monkeypatch)
    sol = choose_params(s, delta, d, 4)
    assert len(made) == 1
    assert sol == replace(cap, n=None, message="no feasible n below cap 2^200")
    assert _doubling_search(s, delta, d, 4) is None


def test_solver_reports_r_composition():
    sol = choose_params(40, 0.05)
    assert sol.margins["r_security_part"] == 4 * 40
    assert sol.margins["r_dimension_part"] == sol.r - 160
    # at cryptographic n the dimension part dominates
    assert sol.margins["r_dimension_part"] > sol.margins["r_security_part"]


def test_solver_rejects_bad_arguments():
    with pytest.raises(ValueError):
        choose_params(0, 0.05)
    with pytest.raises(ValueError):
        choose_params(40, 1.5)


def _largest_accepted(accepts, lo: int) -> int:
    """About the largest x >= lo with accepts(x), to 16 significant bits, where lo
    is a power of two and accepts holds up to some point only: square, then
    bisect on log2 x, then on x."""
    hi = lo
    while accepts(hi):
        lo, hi = hi, hi * hi
    while hi.bit_length() - lo.bit_length() > 1:
        mid = 1 << (lo.bit_length() + hi.bit_length()) // 2 - 1
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    while hi - lo > lo >> 16:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


def _accepts(**kwargs) -> bool:
    try:
        check_solver_args(**{"s": 40, "delta": 0.05, **kwargs})
    except ValueError:
        return False
    return True


def _answers(s: int, delta: float, d: int = 2, d_prime: int = 4, n: int | None = None) -> None:
    """Wherever check_solver_args accepts, the solver (at n, or with n unset)
    and, at n, the bounds command (its even split when the solver's m_z does
    not fit) and, below 2^60 copies, a run's test-set size n_c all compute
    without raising."""
    if not _accepts(s=s, delta=delta, d=d, d_prime=d_prime, n=n):
        return
    sol = choose_params(s, delta, d, d_prime, n)
    assert sol.m_prime is not None
    if n is None:
        return
    argv = ["bounds", "--s", str(s), "--delta", repr(delta), "--d", str(d),
            "--dprime", str(d_prime), "--n", str(n)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) in (EXIT_OK, EXIT_USAGE)  # 2 when n cannot hold the split
    if (d, d_prime) == (2, 4):
        try:
            config = ProtocolConfig(n=n, seed=0, s=s, delta=delta)
        except ValueError as exc:
            # a run refuses fewer than 4 or 2^60 copies or more, and an n_c beyond a double
            assert ("n < 2^60" if not 4 <= n < 2**60 else "n_c") in str(exc)
        else:
            assert config.n_c >= 1


# the largest s, d or n the solver accepts, found by running it: there it
# answers instead of overflowing, also at the smaller r of the n search below its cap
@pytest.mark.parametrize("name, n", [("s", None), ("s", 10**5), ("d", 10**5), ("n", None)])
def test_solver_answers_at_the_edge_of_its_range(name, n):
    edge = _largest_accepted(lambda x: _accepts(**{"n": n, name: x}), 2)
    assert edge > 10**20
    args = {"s": 40, "delta": 0.05, "n": n, name: edge}
    _answers(**args)
    assert math.isfinite(sum(choose_params(**args).margins.values()))


# --- property tests ---------------------------------------------------------------


def _log_uniform_int(lo: int, max_digits: int):
    return st.integers(0, max_digits).flatmap(lambda e: st.integers(lo, lo + 10**e))


@given(_log_uniform_int(1, 308), st.floats(-160.0, -0.01).map(lambda e: 10.0**e),
       _log_uniform_int(2, 75), _log_uniform_int(1, 12), st.none() | _log_uniform_int(2, 310))
@settings(max_examples=15, deadline=None)
def test_solver_answers_wherever_it_accepts(s, delta, d, d_prime, n):
    _answers(s, delta, d, d_prime, n)


@given(st.integers(1, 10**6), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_mean_deviation_tail_monotone(m, delta):
    base = log2_hoeffding_tail(m, delta)
    assert log2_hoeffding_tail(m + 1, delta) <= base
    if delta < 1.0:
        assert log2_hoeffding_tail(m, min(delta + 0.01, 1.0)) <= base


@given(st.integers(1, 10**6), st.floats(0.0, 1.0), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_substring_sampling_monotone_and_bounded(k, eps, z):
    val = log2_substring_sampling_bound(k, eps, z)
    assert val <= math.log2(z) + 1e-12
    assert log2_substring_sampling_bound(k + 1, eps, z) <= val + 1e-12


@given(st.integers(2, 10**5), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_frequency_deviation_monotone_in_r(n, delta):
    r = n // 4
    if r + 1 > n // 2:
        return
    low = frequency_deviation_log2(n, delta, r, 2)
    high = frequency_deviation_log2(n, delta, r + 1, 2)
    assert high >= low - 1e-12


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_key_rate_never_negative_and_bounded(ex, ez):
    r = key_rate(ex, ez)
    assert 0.0 <= r <= 1.0


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_key_rate_monotone_on_low_error_branch(ex, ez):
    # more noise on [0, 1/2] never helps
    r = key_rate(ex, ez)
    assert key_rate(min(ex + 0.01, 0.5), ez) <= r + 1e-12
    assert key_rate(ex, min(ez + 0.01, 0.5)) <= r + 1e-12
