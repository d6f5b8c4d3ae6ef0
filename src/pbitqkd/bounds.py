"""Finite-size security bounds, key rates, and the protocol parameter solver.

All bound evaluators work in log2 space (exponents at cryptographic scale
overflow doubles long before they become interesting) and report both the
log2 value and the literal value, with a ``vacuous`` verdict whenever a
failure-probability bound is >= 1.  The primitives are kept verbatim --
including constants that are known to be loose -- so that regression tests
can pin them digit-for-digit against an independent high-precision
evaluation; the aggregate and three-term bounds are compositions of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

__all__ = [
    "binary_entropy",
    "key_rate",
    "log2_hoeffding_tail",
    "substring_sampling_bound",
    "log2_substring_sampling_bound",
    "frequency_deviation_log2",
    "definetti_log2",
    "EstimationFailureTerms",
    "estimation_failure_terms",
    "relaxation_budget",
    "BoundParams",
    "FailureBound",
    "protocol_failure_bound",
    "composable_insecurity",
    "group_average_error_bound",
    "ParamSolution",
    "check_solver_args",
    "check_beta_b",
    "choose_params",
    "search_n",
]

_LN2 = math.log(2.0)
#: The minimal-n search (``search_n``) gives up above this n.
_N_CAP = 2**200


def binary_entropy(x: float) -> float:
    """Binary entropy H(x) in bits; H(0) = H(1) = 0; ValueError outside [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def key_rate(eps_x: float, eps_z: float) -> float:
    """Asymptotic one-way rate max(0, 1 - H(eps_x) - H(eps_z)); 0 means abort."""
    return max(0.0, 1.0 - binary_entropy(eps_x) - binary_entropy(eps_z))


# --- elementary tail bounds --------------------------------------------------


def log2_hoeffding_tail(m: int, delta: float) -> float:
    """log2 of 2 * exp(-2 m delta^2): two-sided Hoeffding tail for a mean of
    m bounded samples deviating by more than delta."""
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    return 1.0 - 2.0 * m * delta * delta / _LN2


def log2_substring_sampling_bound(k: int, eps: float, z_size: int) -> float:
    """log2 of |Z| * exp(-k eps^2 / (8 |Z|)).

    Tail bound on the total-variation distance between the type of a random
    k-subset and the type of the whole string, over an alphabet of |Z|
    symbols.
    """
    if k < 1 or z_size < 1:
        raise ValueError("k and z_size must be positive")
    return math.log2(z_size) - k * eps * eps / (8.0 * z_size * _LN2)


def substring_sampling_bound(k: int, eps: float, z_size: int) -> float:
    return 2.0 ** log2_substring_sampling_bound(k, eps, z_size)


def frequency_deviation_log2(n: float, delta: float, r: int, z_size: int) -> float:
    """log2 of 2^{-n(delta^2/4 - H(r/n)) + |Z| log2(n/2 + 1)}.

    Probability that empirical frequencies over n trials deviate by delta
    when up to r positions may behave arbitrarily.  Requires r <= n/2 (the
    entropy term is only monotone on that branch).
    """
    if not 0 <= 2 * r <= n:
        raise ValueError(f"need 0 <= r <= n/2, got r={r}, n={n}")
    return -n * (delta * delta / 4.0 - binary_entropy(r / n)) + z_size * math.log2(
        n / 2.0 + 1.0
    )


def definetti_log2(n: int, k: int, r: int, dim: int, dim_power: int = 2) -> float:
    """log2 of 2 * exp(-k(r+1)/(2(n+k)) + (1/2) dim^dim_power ln k).

    Post-selection/de Finetti reduction cost for measuring k of n+k
    exchangeable systems.  Two exponent conventions circulate -- one with
    dim, one with dim squared; ``dim_power`` selects (default 2, the variant
    the aggregate protocol bound consumes).
    """
    if dim_power not in (1, 2):
        raise ValueError("dim_power must be 1 or 2")
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    # int operands: the true division is correctly rounded and cannot overflow
    # before its quotient, at most (r + 1) / 2, leaves the double range
    expo = -k * (r + 1) / (2 * (n + k)) + 0.5 * dim**dim_power * math.log(k)
    return 1.0 + expo / _LN2


# --- per-observable estimation failure (three-term form) ---------------------


@dataclass(frozen=True)
class EstimationFailureTerms:
    """Three-term failure bound for estimating one decomposed observable."""

    log2_e1: float
    log2_e2: float
    log2_e3: float
    m_prime: float

    @property
    def log2_total(self) -> float:
        return _log2_sum([self.log2_e1, self.log2_e2, self.log2_e3])


def estimation_failure_terms(
    n: int,
    m: int,
    delta: float,
    r: int,
    d: int,
    t: int,
    hs_norm_sq: float,
) -> EstimationFailureTerms:
    """Failure terms for LOCC estimation of a t-term product decomposition.

    e1: post-selection over n untouched + 2m measured systems,
        definetti_log2(2m, n, r, d);
    e2: frequency deviation on the m' = m/t copies each group gets, inf when 2r > m',
        log2(t+1) + frequency_deviation_log2(m', delta/sqrt(t hs_norm_sq), r, d);
    e3: concentration of the weighted group averages,
        log2_substring_sampling_bound(m, delta/sqrt(hs_norm_sq), d).
    """
    if min(n, m, r, d, t) < 1:
        raise ValueError("n, m, r, d, t must be positive")
    if hs_norm_sq <= 0:
        raise ValueError("hs_norm_sq must be positive")
    m_prime = m / t
    log2_e1 = definetti_log2(2 * m, n, r, d)
    log2_e2 = _log2_groups(t, m_prime, delta / math.sqrt(t * hs_norm_sq), r, d)
    log2_e3 = log2_substring_sampling_bound(m, delta / math.sqrt(hs_norm_sq), d)
    return EstimationFailureTerms(log2_e1, log2_e2, log2_e3, m_prime)


# --- aggregate protocol failure bound ----------------------------------------


def relaxation_budget(s: int, n: int, d: int = 2, d_prime: int = 4) -> int:
    """Exchangeability relaxation budget r = 4s + ceil(d^4 d'^2 ln n).

    The parameter prescription asks for r = 4s while also demanding
    r >= d^4 d'^2 ln n; read as a maximum the two are jointly unachievable
    (the post-selection term then never drops below 2^-s once
    d^4 d'^2 ln n > 4s), so the budget takes their sum -- which satisfies
    both stated inequalities and makes every aggregate-bound term
    exponentially small in s at large n.
    """
    if s < 1 or n < 2:
        raise ValueError("need s >= 1 and n >= 2")
    return 4 * s + math.ceil(d**4 * d_prime**2 * math.log(n))


@dataclass(frozen=True)
class BoundParams:
    """Parameters feeding the aggregate failure bound.

    n: total copies; m_x / m_z: copies spent on bit-error / phase-error
    estimation; delta: deviation tolerance; r: exchangeability relaxation
    budget; d / d_prime: key and shield dimensions; s: security exponent
    (abort quality beta_b defaults to 2^-s).
    """

    n: int
    m_x: int
    m_z: int
    delta: float
    r: int
    d: int = 2
    d_prime: int = 4
    s: int = 40
    beta_b: float | None = None

    @property
    def t(self) -> int:
        """Local basis size t = d^2 d' (per-side product basis cardinality)."""
        return self.d * self.d * self.d_prime

    @property
    def m_prime(self) -> float:
        """Copies per product-observable group when m_z splits into t^2 groups."""
        return self.m_z / (self.t**2)

    @property
    def beta(self) -> float:
        return 2.0 ** (-self.s) if self.beta_b is None else self.beta_b

    def to_dict(self) -> dict:
        return {**asdict(self), "m_prime": self.m_prime, "t": self.t, "beta_b": self.beta}


@dataclass(frozen=True)
class FailureBound:
    """Aggregate failure probability f with its four log2 terms."""

    log2_terms: dict = field(default_factory=dict)
    log2_f: float = math.inf

    @property
    def f(self) -> float:
        return _pow2(self.log2_f)

    @property
    def vacuous(self) -> bool:
        return not self.log2_f < 0.0  # f >= 1 (or nan/inf)

    def to_dict(self) -> dict:
        return {**asdict(self), "f": self.f, "vacuous": self.vacuous}


def protocol_failure_bound(params: BoundParams) -> FailureBound:
    """Total failure probability of the estimation-based protocol.

    Four contributions, each composed from the primitives above:

    * bit-error sampling:      log2_hoeffding_tail(m_x, delta/sqrt(32))
    * post-selection cost:     definetti_log2(m_z, n - m_z, r, d^2 d')
    * phase-group frequencies: log2(t^2+1) + frequency_deviation_log2(m', delta/(3td sqrt(d')),
                               r, d' d^2) over m' = m_z/t^2 copies; inf (vacuous) when 2r > m'
    * phase-average tail:      log2_hoeffding_tail(m_z, delta/(12 d sqrt(2 d')))
    """
    n, m_x, m_z = params.n, params.m_x, params.m_z
    d, dp, r, delta, t = params.d, params.d_prime, params.r, params.delta, params.t
    if m_x < 1 or m_z < 1 or n - m_z < 2:
        raise ValueError("need m_x >= 1, m_z >= 1 and n - m_z >= 2")
    t1 = log2_hoeffding_tail(m_x, delta / math.sqrt(32.0))
    t2 = definetti_log2(m_z, n - m_z, r, d * d * dp)
    t3 = _log2_groups(t * t, params.m_prime, delta / (3.0 * t * d * math.sqrt(dp)), r, dp * d * d)
    t4 = log2_hoeffding_tail(m_z, delta / (12.0 * d * math.sqrt(2.0 * dp)))
    terms = {"bit_sampling": t1, "post_selection": t2, "phase_groups": t3, "phase_tail": t4}
    return FailureBound(log2_terms=terms, log2_f=_log2_sum(list(terms.values())))


def composable_insecurity(f: float, beta_b: float) -> float:
    """sqrt(4 f + beta_b^2): distance from an ideal key given failure bound f."""
    if f < 0.0 or beta_b < 0.0:
        raise ValueError("f and beta_b must be nonnegative")
    if math.isinf(f):
        return math.inf
    return math.sqrt(4.0 * f + beta_b * beta_b)


def group_average_error_bound(t: int, hs_norm: float, max_group_dist: float) -> float:
    """|<L> - weighted group averages| <= sqrt(t) ||L||_HS max_i ||P_i - Q_i||.

    If each group's empirical outcome distribution is within max_group_dist
    of the true one (total variation), the decomposed average of a t-term
    observable L moves by at most this much.
    """
    if t < 1:
        raise ValueError("t must be positive")
    return math.sqrt(t) * hs_norm * max_group_dist


# --- parameter solver ---------------------------------------------------------


@dataclass(frozen=True)
class ParamSolution:
    """Output of choose_params: a parameter set plus feasibility diagnostics."""

    feasible: bool
    s: int
    delta: float
    d: int
    d_prime: int
    t: int
    m_x: int
    r: int
    m_prime: int
    m_z: int
    n: int | None
    binding_constraint: str
    margins: dict
    message: str

    def to_dict(self) -> dict:
        return asdict(self)


def _least(ok: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest x in [lo, hi] with ok(x), by bisection; ok must hold at hi and
    stay true from its first true value on."""
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def check_solver_args(
    s: int, delta: float, d: int = 2, d_prime: int = 4, n: int | None = None
) -> ParamSolution:
    """Reject an s, delta, d, d_prime or n out of range, or one the solver
    cannot answer: its attempt at n (at the n search's cap when n is unset)
    leaves the double range.  Returns that attempt."""
    if not (s >= 1 and 0.0 < delta < 1.0 and d >= 2 and d_prime >= 1
            and (n is None or 2 <= n <= sys.float_info.max)):
        raise ValueError("need s >= 1, 0 < delta < 1, d >= 2, d_prime >= 1 and n from 2 "
                         "to the largest double")
    try:
        return _attempt(s, delta, d, d_prime, _N_CAP if n is None else int(n))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"the solver's doubles overflow at this s, delta, d, d_prime "
                         f"and n: {exc}") from None


def check_beta_b(beta_b):
    """``beta_b``; ValueError unless it is None or a real in [0, 1] (bools excluded).

    ``beta_b`` is a probability, so ``composable_insecurity`` stays finite.
    """
    if beta_b is not None and (
        isinstance(beta_b, bool)
        or not (isinstance(beta_b, (int, float)) and 0.0 <= beta_b <= 1.0)
    ):
        raise ValueError(f"beta_b must be a probability in [0, 1], got {beta_b!r}")
    return beta_b


def choose_params(
    s: int,
    delta: float,
    d: int = 2,
    d_prime: int = 4,
    n: int | None = None,
) -> ParamSolution:
    """Solve the protocol parameter constraints for a security level s.

    Fixed-form pieces: m_x = ceil(16 s / delta^2) and r =
    relaxation_budget(s, n, d, d_prime).  The per-group count m' must
    satisfy four constraint groups (entropy gap, logarithmic overhead,
    sampling floor, per-group floor); the search doubles m' until all hold,
    then bisects down to the minimum, reporting which constraint binds.
    m_z = t^2 m'.  Feasibility in n demands the budget m_x + m_z < n AND
    every term of the aggregate failure bound at (n, m_x, m_z, r) coming
    in at or below 2^-s (within a 1e-6 relative slack); with n = None the
    minimal such n is located by doubling + bisection -- expect an
    astronomically large answer at meaningful s.  An infeasible attempt at
    the search's cap answers n = None at once, from that attempt.
    """
    top = check_solver_args(s, delta, d, d_prime, n)
    return top if n is not None else search_n(top)


def search_n(top: ParamSolution) -> ParamSolution:
    """The minimal feasible n, by doubling and then bisection, at the s,
    delta, d and d_prime of ``top``: ``check_solver_args``' attempt at the
    search's cap, which answers n = None at once when it is infeasible."""
    s, delta, d, d_prime = top.s, top.delta, top.d, top.d_prime

    def feasible(n_val: int) -> bool:
        return _attempt(s, delta, d, d_prime, n_val).feasible

    # no attempt below the cap overflows where the cap's did not: r and the
    # least m' shrink with n, the m' search stays below twice the least m',
    # and the cap's budget margin held m_z = t^2 m' >= 16 m' as a finite double
    n_lo = max(4 * top.m_x, 1024)
    n_hi = n_lo
    while top.feasible and n_hi <= _N_CAP:
        if feasible(n_hi):
            return _attempt(s, delta, d, d_prime, _least(feasible, n_lo, n_hi))
        n_hi *= 2
    return replace(top, feasible=False, n=None,
                   message=f"no feasible n below cap 2^{_N_CAP.bit_length() - 1}")


def _attempt(s: int, delta: float, d: int, d_prime: int, n: int) -> ParamSolution:
    """``choose_params`` at one n: m_x, r and m', then the budget and the bound terms.

    m' is the least count at which the four groups of ``table`` hold: the
    search doubles m' from 2r, where the entropy gap fails (H(1/2) = 1), then
    bisects (``_least``), and the first group to fail at m' - 1 binds.  The
    entropy gap holds once r/m' is small enough, and past the double range a
    later margin raises OverflowError, so the doubling always ends.
    """
    t = d * d * d_prime
    m_x = math.ceil(16.0 * s / (delta * delta))
    r = relaxation_budget(s, n, d, d_prime)
    target = delta * delta / (72.0 * t * t * d * d * d_prime)
    floor_c = 144.0 * s * t * t * d * d * d_prime / (delta * delta) - 2.0 * math.log2(t)
    floor_d = (s + 1.0) * 144.0 * d_prime * d * d / (t * t * delta * delta)

    def table(mp: int):
        """(group, margin) for each m' constraint group, in order and lazily; >= 0 holds."""
        yield "entropy_gap", target - binary_entropy(r / mp)
        yield "log_overhead", mp * target - 2.0 * d_prime * d * d * math.log2(mp / 2.0 + 1.0)
        yield "sampling_floor", mp - floor_c
        yield "per_group_floor", mp - floor_d

    def first_failing(mp: int) -> str | None:
        """The first group whose margin is not >= 0 at mp; None when all four hold."""
        for name, margin in table(mp):
            if not margin >= 0.0:
                return name
        return None

    mp = 2 * r
    while first_failing(mp):
        mp *= 2
    mp = _least(lambda x: first_failing(x) is None, 2 * r, mp)
    binding = first_failing(mp - 1)
    m_z = t * t * mp
    # r is additive in a security part and a dimension part; expose both so
    # callers can see which one dominates the relaxation budget
    margins = {**dict(table(mp)), "r_security_part": float(4 * s),
               "r_dimension_part": float(r - 4 * s), "n_budget": float(n - m_x - m_z)}
    message = ""
    if m_x + m_z >= n:
        binding = "n_budget"
        message = f"estimation budget m_x + m_z = {m_x + m_z} leaves no key copies out of n = {n}"
    else:
        bound = protocol_failure_bound(
            BoundParams(n=n, m_x=m_x, m_z=m_z, delta=delta, r=r, d=d, d_prime=d_prime, s=s)
        )
        # every aggregate-bound term must come in at or below the per-term target
        term_target = -float(s) + math.log2(1.0 + 1e-6)
        margins.update({f"term_{name}": term_target - val for name, val in bound.log2_terms.items()})
        weak = [name for name, val in bound.log2_terms.items() if val > term_target]
        if weak:
            binding = f"term_{weak[0]}"
            message = f"aggregate-bound term(s) {weak} exceed the 2^-{s} per-term target at n = {n}"
    # only an infeasible answer carries a message
    return ParamSolution(
        feasible=not message, s=s, delta=delta, d=d, d_prime=d_prime, t=t, m_x=m_x, r=r,
        m_prime=mp, m_z=m_z, n=n, binding_constraint=binding, margins=margins, message=message,
    )


# --- helpers ------------------------------------------------------------------


def _log2_groups(groups: int, m_prime: float, delta: float, r: int, z_size: int) -> float:
    """log2 of groups + 1 frequency-deviation tails on m_prime copies; inf if 2r > m_prime."""
    if 2 * r > m_prime:
        return math.inf
    return math.log2(groups + 1.0) + frequency_deviation_log2(m_prime, delta, r, z_size)


def _pow2(x: float) -> float:
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def _log2_sum(log_terms: list[float]) -> float:
    """log2 of a sum given the log2 of each (nonnegative) term."""
    if any(math.isinf(x) and x > 0 for x in log_terms):
        return math.inf
    mx = max(log_terms)
    if math.isinf(mx):  # all -inf
        return -math.inf
    return mx + math.log2(sum(2.0 ** (x - mx) for x in log_terms))
