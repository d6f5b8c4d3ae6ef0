"""End-to-end protocol runs: entanglement-based (ppp) and prepare-and-measure (pm).

Runs never materialize tensor-power states.  A per-copy *pattern code*
2x + z names the Pauli X^x Z^z that hits Bob's key qubit, and indexes every
outcome table.  One two-local Pauli expansion of the single-copy state gives
the tables of all four codes, since such a Pauli only flips the sign of some
coefficients (and an X swaps B's computational bit).  They are computed once
per process per (source, candidates) pair, by the cached ``_setup``, and the
outcomes are then sampled in bulk: a test sample keeps only its count of +1
outcomes, the key block its bits.  This keeps n = 1e5-scale runs in
milliseconds while remaining exactly faithful to the iid component model.

``decide`` is the one place a run is judged.  It reads only the public
counts (the +1 count and size of every test sample, and the key block's
length) and gives the estimates, the security block, the abort reason, EC's
charge and the final key length; key bits are drawn only if it says so.

Every run returns a :class:`Transcript` whose JSON serialization is
byte-identical across reruns with the same config and seed (fixed RNG draw
order, sorted keys, no wall-clock or environment values).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .bounds import (
    BoundParams,
    binary_entropy,
    check_beta_b,
    check_solver_args,
    choose_params,
    composable_insecurity,
    key_rate,
    protocol_failure_bound,
    relaxation_budget,
)
from .canonical import canonical_json, from_fields, json_int, json_real
from .channels import PauliNoiseModel, _uniform_slices
from .ecpa import MAX_EC_BLOCK, bits_to_hex, error_correct, pa_length, syndrome_stats
from .ecpa import toeplitz_apply, toeplitz_seed
from .estimation import decompose_two_local, estimate_eps_z_locc, support_pairs
from .linalg import PAULI_PRODUCT_LABELS, basis_ket, kron_all, proj, reorder
from .states import _SIDES_LAYOUT, DensityState, P_STAR, rho_h
from .twist import TwistingOp, build_u_h, gamma_x, identity_twisting, make_pdit

__all__ = [
    "SourceSpec",
    "ProtocolConfig",
    "Transcript",
    "run_ppp",
    "run_pm",
    "run_estimate",
    "model_estimates",
    "twisting_by_name",
]

TRANSCRIPT_SCHEMA = 1

#: A run addresses fewer than 2^60 copies, so a shuffle's 8-byte view of them fits in 2^63 bytes.
_MAX_N = 2**60


#: The names a config may give a twisting or an ancilla, and their builders.
_TWISTINGS = {"identity": identity_twisting, "u_h": build_u_h}
_ANCILLAS = {
    "comp00": lambda: proj(kron_all(basis_ket(0, 2), basis_ket(0, 2))),
    "maximally_mixed": lambda: np.eye(4, dtype=complex) / 4.0,
}


def _check_names(what: str, names: Sequence[str], table: dict) -> None:
    for name in names:
        if name not in table:
            raise ValueError(f"unknown {what} {name!r}")


def twisting_by_name(name: str) -> TwistingOp:
    """Resolve a twisting referenced by name in configs ("identity" or "u_h")."""
    _check_names("twisting", [name], _TWISTINGS)
    return _TWISTINGS[name]()


@dataclass(frozen=True)
class SourceSpec:
    """What single-copy state the source emits.

    kind "rho_h": the hiding family at (p, kappa).  kind "pbit": a twisted
    maximally-entangled core make_pdit(twisting, ancilla), optionally hit by
    an X/Z pattern noise model on Bob's key qubit.  A field that the kind
    does not read (noise, twisting or ancilla on rho_h; p or kappa on pbit)
    must keep its default.
    """

    kind: str = "rho_h"
    p: float = P_STAR
    kappa: float = 0.0
    twisting: str = "u_h"
    ancilla: str = "comp00"
    noise: PauliNoiseModel | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rho_h", "pbit"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.kappa <= 1.0):
            raise ValueError(f"p = {self.p} and kappa = {self.kappa} must lie in [0, 1]")
        _check_names("twisting", [self.twisting], _TWISTINGS)
        _check_names("ancilla", [self.ancilla], _ANCILLAS)
        unread = ("noise", "twisting", "ancilla") if self.kind == "rho_h" else ("p", "kappa")
        given = [f.name for f in fields(self)
                 if f.name in unread and getattr(self, f.name) != f.default]
        if given:
            raise ValueError(f"a {self.kind} source reads no {' or '.join(given)}")

    def base_state(self) -> DensityState:
        if self.kind == "rho_h":
            return rho_h(self.p, self.kappa)
        return make_pdit(twisting_by_name(self.twisting), _ANCILLAS[self.ancilla]())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SourceSpec":
        return from_fields(cls, d, {
            "p": json_real, "kappa": json_real, "noise": PauliNoiseModel.from_dict,
        })


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters shared by the ppp and pm flows.

    m_x / m_prime left as None are filled from the parameter solver; at desk
    scale the solver's demands are astronomically infeasible, so simulated
    runs are expected to set both explicitly.  For pm runs m_prime acts as
    the minimum acceptable per-group matched count (the estimator uses every
    matched sample it gets).
    """

    n: int
    seed: int
    s: int = 40
    delta: float = 0.05
    source: SourceSpec = field(default_factory=SourceSpec)
    eve: PauliNoiseModel | None = None
    candidates: tuple[str, ...] = ("identity", "u_h")
    m_x: int | None = None
    m_prime: int | None = None
    ec_block: int = 16
    beta_b: float | None = None
    threads: int | None = None

    def __post_init__(self) -> None:
        if not 4 <= self.n < _MAX_N:
            raise ValueError(f"need 4 <= n < 2^60 copies, got n = {self.n}")
        if self.seed < 0 or not 1 <= self.ec_block <= MAX_EC_BLOCK:
            raise ValueError(
                f"need seed >= 0 and 1 <= ec_block <= {MAX_EC_BLOCK}, got seed = {self.seed}, "
                f"ec_block = {self.ec_block}"
            )
        check_solver_args(self.s, self.delta, n=self.n)
        try:
            self.n_c
        except OverflowError:
            raise ValueError("pm's test-set size n_c = ceil(sqrt(n s) log2(n) / delta) "
                             "is no finite double") from None
        _check_budgets(self.m_x, self.m_prime)
        self.check_candidates(self.candidates)
        check_beta_b(self.beta_b)
        # type(), not isinstance(): a bool is no thread count
        if self.threads is not None and (type(self.threads) is not int or self.threads < 1):
            raise ValueError(f"threads must be a positive integer, got {self.threads!r}")

    @property
    def n_c(self) -> int:
        """pm's test-set size per support observable, ceil(sqrt(n s) log2(n) / delta)."""
        return math.ceil(math.sqrt(self.n * self.s) * math.log2(self.n) / self.delta)

    @staticmethod
    def check_candidates(candidates: Sequence[str]) -> tuple[str, ...]:
        """The candidates as a tuple: TypeError unless a list or tuple of names,
        ValueError if empty or naming an unknown twisting."""
        if not isinstance(candidates, (list, tuple)) or not all(
            isinstance(name, str) for name in candidates
        ):
            raise TypeError(f"candidates must be a list of twisting names, got {candidates!r}")
        if not candidates:
            raise ValueError("need at least one candidate twisting")
        _check_names("candidate twisting", candidates, _TWISTINGS)
        return tuple(candidates)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, near: Sequence[str] = ()) -> "ProtocolConfig":
        """Read a config; ``near`` names the keys a caller took from ``d`` first."""
        return from_fields(cls, d, {
            "n": json_int, "seed": json_int, "s": json_int, "delta": json_real,
            "source": SourceSpec.from_dict, "eve": _parse_eve, "candidates": cls.check_candidates,
            "m_x": json_int, "m_prime": json_int, "ec_block": json_int,
        }, near)


def _check_budgets(m_x: int | None, m_prime: int | None) -> None:
    """Reject an m_x or m_prime below 1; None (left to the solver) passes."""
    if any(m is not None and m < 1 for m in (m_x, m_prime)):
        raise ValueError(f"need m_x >= 1 and m_prime >= 1, got m_x = {m_x}, m_prime = {m_prime}")


def _parse_eve(eve) -> PauliNoiseModel:
    if isinstance(eve, (int, float)) and not isinstance(eve, bool):
        # bare number = iid bit-flip-only intercept strength
        eve = {"eps_x": eve, "eps_z": 0.0}
    return PauliNoiseModel.from_dict(eve)


@dataclass
class Transcript:
    """Complete, deterministic record of one protocol run."""

    schema: int
    protocol: str
    config: dict
    events: list
    estimates: dict
    security: dict
    key: dict
    abort: bool
    abort_reason: str | None

    def to_json(self) -> str:
        return canonical_json(vars(self))


# --- pattern codes and their outcome tables ------------------------------------


def _pattern_codes(
    source: SourceSpec, eve: PauliNoiseModel | None, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-copy pattern code 2x + z in {0,1,2,3} of n copies, from source noise XOR Eve.

    Each model XORs its codes into the one uint8 array, so it is all that is
    held.  When no model flips anything (rho_h or a noiseless pbit, and no
    Eve, or only models of strength 0) every copy has code 0, and the codes
    are a read-only zero-stride view of that one byte: no array.  A model of
    strength 0 still makes its draws, which later draws follow.
    """
    models = [model for model in (source.noise, eve) if model is not None]
    if any(model.eps_x or model.eps_z for model in models):
        codes = np.zeros(n, dtype=np.uint8)
    else:
        codes = np.broadcast_to(np.uint8(0), n)
    for model in models:
        model.sample_pattern(codes, rng)
    return codes


#: Index of "ZI" in the two-qubit Pauli basis: sigma_z on the key qubit, I on the shield.
_ZI = 12
#: _SIGN[code, l] is -1 where code 2x + z's Pauli X^x Z^z anticommutes with B's
#: letter l in I, X, Y, Z order: X with Y and Z, Z with X and Y.
_SIGN = np.array([[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]])


@dataclass(frozen=True)
class _Setup:
    """A run's seed-free set-up; read-only, as one record serves every run.

    The outcome tables are indexed by pattern code 2x + z first.
    """

    decomps: Mapping[str, np.ndarray]  # each candidate's (16, 16) coefficient table
    support: tuple[tuple[int, int], ...]  # union of the candidates' support pairs
    labels: Mapping  # (ja, jb) -> "O_a|O_b", the pair's name in transcripts
    plus: np.ndarray  # (4, 16, 16) probability that O_ja ⊗ O_jb reads +1/4
    joint16: np.ndarray  # (4, 16) computational joint outcome distribution


@lru_cache(maxsize=8)  # a sweep asks for one grid point's entry at a time
def _setup(source: SourceSpec, candidates: tuple[str, ...]) -> _Setup:
    """Candidate decompositions, support union and outcome tables, built once per process.

    The tables come from the source state's one two-local Pauli expansion
    s[a, b] = Tr[(O_a ⊗ O_b) rho]: a product O_a ⊗ O_b reads ±1/4, and +1/4
    with probability (1 + 4 s[a, b]) / 2; plus[:, _ZI, _ZI] is sigma_z sigma_z
    on the key qubits.  Code 2x + z conjugates B by X^x Z^z, which negates
    s[a, b] where B's letter of O_b anticommutes with it (``_SIGN``).  The key
    stage reads every qubit in the computational basis, outcome
    k = 8 A + 4 A' + 2 B + B', and an X on B swaps B's bit: row c is
    law[k ^ 2x].
    """
    decomps = {name: decompose_two_local(gamma_x(twisting_by_name(name))) for name in candidates}
    support = tuple(sorted({pair for coeffs in decomps.values() for pair in support_pairs(coeffs)}))
    labels = MappingProxyType({pair: "|".join(PAULI_PRODUCT_LABELS[j] for j in pair)
                               for pair in support})
    base = source.base_state()
    sign = np.repeat(_SIGN, 4, axis=1)[:, None, :]  # O_jb's B letter is jb // 4
    plus = np.clip((1.0 + 4.0 * sign * decompose_two_local(base.mat)) / 2.0, 0.0, 1.0)
    joint16 = _computational_law(base)[np.arange(16) ^ np.array([[0], [0], [2], [2]])]
    for arr in (plus, joint16, *decomps.values()):
        arr.setflags(write=False)
    return _Setup(MappingProxyType(decomps), support, labels, plus, joint16)


def _computational_law(state: DensityState) -> np.ndarray:
    """Outcome law of every qubit read in the computational basis, (A, A', B, B') order."""
    rho = reorder(state.mat, state.layout, _SIDES_LAYOUT)
    probs = np.clip(np.diagonal(rho).real, 0.0, None)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"outcome probabilities sum to {total}, state not normalized?")
    return probs / total


def _code_slices(codes: np.ndarray, rng: np.random.Generator):
    """The uniforms of one ``rng.random(codes.size)``, as (codes, slice, uniforms).

    ``codes`` are the slice's pattern codes, or their one code where the
    codes are zero-stride (one code for every copy, ``_pattern_codes``), so
    a table's ``take`` gives one bound there and no slice-sized gather.  The
    uniforms are only valid until the next item (``_uniform_slices``).
    """
    for sl, u in _uniform_slices(codes.size, rng):
        c = codes[sl]
        yield (c[0] if c.strides == (0,) else c), sl, u


def _sample_count(p_plus: np.ndarray, codes: np.ndarray, rng: np.random.Generator) -> int:
    """How many copies read +1, each with probability p_plus[code]: one uniform per
    copy (``_code_slices``), and no outcome is kept."""
    return sum(int(np.count_nonzero(u < p_plus.take(c))) for c, _, u in _code_slices(codes, rng))


def _count_mean(k: int, m: int, scale: float = 1.0) -> float:
    """Mean of m ±scale outcomes of which k read +scale, bit for bit the mean of
    the ±scale array: a sum of m ±1 or ±1/4 values is exact in float64."""
    return scale * (2 * k - m) / m


def _sample_key_bits(
    joint16: np.ndarray, codes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's key bits and the error pattern per copy, from the joint outcome table.

    A copy's outcome k = 4 ka + kb (side outcome = 2 key bit + shield bit) is
    the number of cumulative bounds below its uniform.  Those bounds form a
    prefix, so Alice's bit k >> 3 is ``u > bounds[7]`` and Bob's (k >> 1) & 1
    the XOR of ``u > bounds[j]`` over odd j <= 13.  The error pattern, Alice's
    bit XOR Bob's, is then the XOR over j in {1, 3, 5, 9, 11, 13}: 7
    comparisons, and neither k nor Bob's bits are built.  ``bounds[j]`` holds
    bound j of each code, and each copy reads its code's.  The uniforms are
    those of one ``rng.random(codes.size)``, drawn one slice at a time
    (``_uniform_slices``).  Returns two uint8 arrays.
    """
    cum = np.cumsum(joint16, axis=1)
    bounds = (cum / cum[:, -1:]).T  # (16, 4): bound j of code c is bounds[j, c]
    alice = np.empty(codes.size, dtype=bool)
    err = np.empty(codes.size, dtype=bool)
    for c, sl, u in _code_slices(codes, rng):
        np.greater(u, bounds[7].take(c), out=alice[sl])
        err_sl = np.greater(u, bounds[1].take(c), out=err[sl])
        for j in (3, 5, 9, 11, 13):
            err_sl ^= u > bounds[j].take(c)
    return alice.view(np.uint8), err.view(np.uint8)


def _resolve_budgets(config: ProtocolConfig, n_groups: int) -> tuple[int | None, int | None, str]:
    """Fill m_x / m_prime from the solver when unset; '' message on success."""
    m_x, m_prime = config.m_x, config.m_prime
    if m_x is None or m_prime is None:
        sol = choose_params(config.s, config.delta, 2, 4, n=config.n)
        if not sol.feasible:
            return None, None, (
                "parameters_infeasible: "
                f"binding constraint {sol.binding_constraint!r}; {sol.message or 'see solver margins'}"
            )
        m_x = m_x if m_x is not None else sol.m_x
        m_prime = m_prime if m_prime is not None else sol.m_prime
    if m_x + n_groups * m_prime >= config.n:
        return None, None, (
            f"parameters_infeasible: m_x + {n_groups}*m_prime = "
            f"{m_x + n_groups * m_prime} leaves no key copies out of n = {config.n}"
        )
    return m_x, m_prime, ""


def _group_sizes(setup: _Setup, group_codes: dict) -> dict[str, int]:
    return {setup.labels[pair]: int(codes.size) for pair, codes in group_codes.items()}


def _measure(
    setup: _Setup, codes_x: np.ndarray, group_codes: dict, rng: np.random.Generator, events: list
) -> tuple[int, dict]:
    """The test samples' public counts: k_x, the bit-error sample's +1 count, and
    each support pair's (+1 count, size), drawn in that order."""
    k_x = _sample_count(setup.plus[:, _ZI, _ZI], codes_x, rng)
    events.append({"event": "measure_bit_error", "count": int(codes_x.size)})
    group_counts = {
        (ja, jb): (_sample_count(setup.plus[:, ja, jb], codes, rng), int(codes.size))
        for (ja, jb), codes in group_codes.items()
    }
    events.append({"event": "measure_phase_groups", "counts": _group_sizes(setup, group_codes)})
    return k_x, group_counts


def _estimates(setup: _Setup, n: int, k_x: int, m_x: int, group_counts: Mapping) -> dict:
    """The ``estimates`` block from the public counts, with the net rate over n copies.

    A test reads ±1 (the bit-error sample) or ±1/4 (a phase group) per copy,
    and its mean is ``_count_mean`` of its count; ε̂x = (1 - mean) / 2 lies
    in [0, 1].  The best candidate is the one with the smallest ε̂z.
    """
    eps_x_hat = (1.0 - _count_mean(k_x, m_x)) / 2.0
    means = {pair: _count_mean(k, m, 0.25) for pair, (k, m) in group_counts.items()}
    m_z = sum(m for _, m in group_counts.values())
    results = {name: estimate_eps_z_locc(means, coeffs) for name, coeffs in setup.decomps.items()}
    best = min(results, key=lambda name: results[name]["eps_z"])  # the first on ties
    eps_z_hat = results[best]["eps_z"]
    rate = key_rate(eps_x_hat, eps_z_hat)
    return {
        "eps_x_hat": eps_x_hat, "m_x": m_x, "m_z": m_z, "best_candidate": best,
        "eps_z_hat": eps_z_hat, "rate": rate, "net_rate": (1.0 - (m_x + m_z) / n) * rate,
        "rate_raw": 1.0 - binary_entropy(eps_x_hat) - binary_entropy(eps_z_hat),
        "candidates": results,
        "group_means": {setup.labels[pair]: mean for pair, mean in means.items()},
        "group_counts": {setup.labels[pair]: m for pair, (_, m) in group_counts.items()},
    }


@dataclass(frozen=True)
class Decision:
    """What ``decide`` makes of a run's public counts."""

    estimates: dict
    security: dict
    abort_reason: str | None
    ec: dict | None  # EC's charge (``syndrome_stats``); None on an abort
    final_len: int
    raw_len: int
    key_stage: bool  # key bits are drawn: no abort and not EC's reveal path

    @property
    def event(self) -> dict:
        """The run's ``estimate`` event."""
        names = ("eps_x_hat", "eps_z_hat", "best_candidate")
        return {"event": "estimate", **{name: self.estimates[name] for name in names}}


def decide(
    config: ProtocolConfig, setup: _Setup, k_x: int, m_x: int, group_counts: Mapping, raw_len: int
) -> Decision:
    """Judge a run from its public counts alone, with no rng and no per-copy array.

    ``k_x`` of the ``m_x`` bit-error tests read +1, ``group_counts`` maps
    each support pair of ``setup`` (``_setup``'s record) to its (+1 count,
    size), and ``raw_len`` is the key block's length.  The security block is
    the failure bound at the run's budgets.  On EC's reveal path (rows =
    ``ec_block``) the whole raw key is charged, so the final key is empty.
    """
    estimates = _estimates(setup, config.n, k_x, m_x, group_counts)
    r = relaxation_budget(config.s, config.n)
    params = BoundParams(
        n=config.n, m_x=m_x, m_z=estimates["m_z"], delta=config.delta, r=r,
        d=2, d_prime=4, s=config.s, beta_b=config.beta_b,
    )
    fb = protocol_failure_bound(params)
    security = {
        "r": r, "bound_params": params.to_dict(), "log2_f": fb.log2_f, "f": fb.f,
        "vacuous": fb.vacuous, "beta_b": params.beta,
        "insecurity": composable_insecurity(fb.f, params.beta),
    }
    if estimates["rate"] <= 0.0:
        return Decision(estimates, security, "rate_nonpositive", None, 0, raw_len, False)
    eps_x_hat = estimates["eps_x_hat"]
    ec = syndrome_stats(raw_len, eps_x_hat, config.ec_block)
    final_len = pa_length(raw_len, eps_x_hat, estimates["eps_z_hat"], ec["syndrome_bits"], config.s)
    key_stage = ec["rows_per_block"] < config.ec_block
    return Decision(estimates, security, None, ec, final_len, raw_len, key_stage)


#: The final key of a run that draws no key bit.
_NO_KEY = np.zeros(0, dtype=np.uint8)


def _transcript(
    protocol: str, config: ProtocolConfig, events: list, reason: str | None,
    decision: Decision | None = None, ec: dict | None = None, alice=_NO_KEY, bob=_NO_KEY,
) -> Transcript:
    """Every run's record.  An abort (``reason``) logs its event and keeps the
    empty key; ``decision`` is None for the aborts before measurement."""
    events.append({"event": "abort", "reason": reason} if reason else {"event": "complete"})
    final_len = decision.final_len if decision else 0
    key = {
        "raw_len": decision.raw_len if decision else 0, "final_len": final_len, "ec": ec,
        "alice_hex": bits_to_hex(alice), "bob_hex": bits_to_hex(bob),
        "agreement": bool(np.array_equal(alice, bob)) if final_len > 0 else None,
        "final_key_empty": final_len == 0,
    }
    return Transcript(
        schema=TRANSCRIPT_SCHEMA, protocol=protocol, config=config.to_dict(), events=events,
        estimates=decision.estimates if decision else {},
        security=decision.security if decision else {},
        key=key, abort=reason is not None, abort_reason=reason,
    )


def _measure_and_finish(
    protocol: str, config: ProtocolConfig, rng: np.random.Generator, events: list, setup: _Setup,
    codes_x: np.ndarray, group_codes: dict, key_codes: np.ndarray, extra_estimates: dict | None = None,
) -> Transcript:
    """Everything after position assignment, shared by ppp and pm.

    Each stage gets the pattern codes of its copies (``_split_codes``), not
    positions.  The tests' counts are drawn and ``decide`` judges the run;
    key bits are drawn only if it says the key stage runs.  That stage holds
    Alice's bits and the error pattern only: EC turns the pattern into the
    residual one in place, and Bob's corrected bits, Alice's XOR the
    residual, are rebuilt in that array just for his PA call.
    """
    k_x, group_counts = _measure(setup, codes_x, group_codes, rng, events)
    decision = decide(config, setup, k_x, int(codes_x.size), group_counts, int(key_codes.size))
    if extra_estimates:
        decision = replace(decision, estimates={**decision.estimates, **extra_estimates})
    events.append(decision.event)
    if decision.abort_reason:
        return _transcript(protocol, config, events, decision.abort_reason, decision)

    ec, alice_fin, bob_fin = {**decision.ec, "residual_disagreements": 0}, _NO_KEY, _NO_KEY
    final_len = decision.final_len
    if decision.key_stage:
        alice_bits, err = _sample_key_bits(setup.joint16, key_codes, rng)
        err, ec = error_correct(err, decision.estimates["eps_x_hat"], config.ec_block, rng)
        seed = toeplitz_seed(decision.raw_len, final_len, rng)
        alice_fin = toeplitz_apply(alice_bits, seed, final_len)
        bob_fin = toeplitz_apply(np.bitwise_xor(alice_bits, err, out=err), seed, final_len)
    events.append({"event": "error_correct", **ec})
    events.append({"event": "privacy_amplify", "raw_len": decision.raw_len, "final_len": final_len})
    return _transcript(protocol, config, events, None, decision, ec, alice_fin, bob_fin)


def _split_codes(
    codes: np.ndarray, m_x: int, m_prime: int, support: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, dict, np.ndarray]:
    """The codes of the bit-error sample, of one group per pair and of the key block.

    ``codes`` is in assignment order: the first m_x form the bit-error
    sample, the next m_prime each support pair's group, and the rest the key
    block.  The parts are views into ``codes``, so nothing is gathered.
    """
    end = m_x + len(support) * m_prime
    group_codes = {
        pair: codes[m_x + i * m_prime : m_x + (i + 1) * m_prime]
        for i, pair in enumerate(support)
    }
    return codes[:m_x], group_codes, codes[end:]


def _shuffle_codes(codes: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle ``codes`` in place: they become ``codes[rng.permutation(n)]``.

    ``permutation(n)`` shuffles ``arange(n)`` with the same draws, which
    ``shuffle`` makes whatever its input holds and whatever its item size.
    Zero-stride codes (one code for every copy) stay as they are, so they
    take only the draws, on a zero-stride int64 view of 8 bytes (numpy's
    8-byte loop on one cache line); the stride says so without a scan.
    """
    if codes.strides == (0,):
        rng.shuffle(np.lib.stride_tricks.as_strided(np.zeros(1, np.int64), codes.shape, (0,)))
    else:
        rng.shuffle(codes)


def run_ppp(config: ProtocolConfig) -> Transcript:
    """Entanglement-based run: source distributes n copies, both sides measure.

    Position assignment: the copies' codes are shuffled into random order and
    cut into the bit-error sample (m_x), one group per support pair of the
    candidate decompositions (m_prime each), and the key block (the rest).
    Zero-stride codes (no model flips anything) take only the shuffle's draws.
    """
    rng = np.random.default_rng(config.seed)
    setup = _setup(config.source, tuple(config.candidates))
    support = setup.support
    events: list = [{"event": "configure", "n": config.n, "seed": config.seed}]
    m_x, m_prime, err = _resolve_budgets(config, len(support))
    if err:
        return _transcript("ppp", config, events, err)

    codes = _pattern_codes(config.source, config.eve, config.n, rng)
    events.append({"event": "distribute", "source": config.source.kind, "copies": config.n})

    _shuffle_codes(codes, rng)
    codes_x, group_codes, key_codes = _split_codes(codes, m_x, m_prime, support)
    events.append({
        "event": "assign_positions",
        "m_x": m_x,
        "m_prime": m_prime,
        "m_z": m_prime * len(support),
        "groups": _group_sizes(setup, group_codes),
        "key_count": int(key_codes.size),
    })
    return _measure_and_finish(
        "ppp", config, rng, events, setup, codes_x, group_codes, key_codes,
    )


def _basis_labels(n: int, labels: Sequence[int], n_c: int, rng: np.random.Generator) -> np.ndarray:
    """One side's observable per copy, -1 (computational) where it tests none.

    labels[i] goes to the i-th n_c-slice of one random permutation, which is
    dropped on return: the caller holds one int8 per copy, not eight bytes.
    The permutation is ``rng.permutation(n)``'s, whose draws ``shuffle`` makes
    whatever the item size, held as int32 below n = 2^31.
    """
    assert all(0 <= label <= np.iinfo(np.int8).max for label in labels)
    out = np.full(n, -1, dtype=np.int8)
    perm = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    rng.shuffle(perm)
    for i, label in enumerate(labels):
        out[perm[i * n_c : (i + 1) * n_c]] = label
    return out


def run_pm(config: ProtocolConfig) -> Transcript:
    """Prepare-and-measure run with uncoordinated local basis choices.

    Alice assigns n_c = ceil(sqrt(n s) log2(n) / delta) positions to each of
    her support observables (preparing the corresponding signal ensembles),
    Bob does the same on his side independently, and only coincidentally
    matched positions feed the estimator.  Both keep the computational
    observable on all remaining positions; doubly-computational positions
    carry the key.  Receipt is confirmed before any bases are announced.
    """
    rng = np.random.default_rng(config.seed)
    setup = _setup(config.source, tuple(config.candidates))
    support = setup.support
    ja_set = sorted({ja for ja, _ in support})
    jb_set = sorted({jb for _, jb in support})

    n, n_c = config.n, config.n_c
    m_x = config.m_x if config.m_x is not None else max(64, n // 100)
    min_group = config.m_prime if config.m_prime is not None else 16
    configure = {"event": "configure", "n": n, "seed": config.seed}
    load = max(len(ja_set), len(jb_set))
    if load * n_c >= n:
        return _transcript(
            "pm", config, [configure],
            f"parameters_infeasible: test load {load} * n_c = {load * n_c} does not fit in n = {n}",
        )

    events: list = [{**configure, "n_c": n_c}]

    codes = _pattern_codes(config.source, config.eve, config.n, rng)
    events.append({"event": "prepare_and_send", "source": config.source.kind, "copies": n})
    events.append({"event": "measure", "note": "receiver measures on arrival"})
    events.append({"event": "receipt_confirmed", "copies": n})

    # uncoordinated basis assignment, one permutation per side
    a_obs = _basis_labels(n, ja_set, n_c, rng)
    b_obs = _basis_labels(n, jb_set, n_c, rng)
    events.append({"event": "bases_announced",
                   "test_sets_a": len(ja_set), "test_sets_b": len(jb_set), "n_c": n_c})

    # the codes of the matched copies and of the doubly-computational ones, in copy order
    group_codes = {(ja, jb): codes[(a_obs == ja) & (b_obs == jb)] for ja, jb in support}
    key_codes = codes[(a_obs == -1) & (b_obs == -1)]
    del codes, a_obs, b_obs
    events.append({
        "event": "sift",
        "matched_counts": _group_sizes(setup, group_codes),
        "key_candidates": int(key_codes.size),
        "discarded": int(n - key_codes.size - sum(v.size for v in group_codes.values())),
    })

    short = [setup.labels[pair] for pair in support if group_codes[pair].size < min_group]
    if short or key_codes.size < m_x + config.ec_block:
        return _transcript(
            "pm", config, events,
            "insufficient_samples: "
            + (f"groups below floor {min_group}: {short}" if short
               else f"key candidates {key_codes.size} cannot cover m_x = {m_x}"),
        )

    test_mask = np.zeros(key_codes.size, dtype=bool)
    test_mask[rng.choice(key_codes.size, size=m_x, replace=False)] = True
    codes_x = key_codes[test_mask]
    key_codes = key_codes[~test_mask]
    return _measure_and_finish(
        "pm", config, rng, events, setup, codes_x, group_codes, key_codes, {"n_c": n_c},
    )


def run_estimate(
    source: SourceSpec,
    seed: int,
    m_x: int,
    m_prime: int,
    candidates: Sequence[str],
) -> dict:
    """One parameter-estimation round: a run with no key copies.

    Same set-up, position layout and measurement core as ``run_ppp`` on
    n = m_x + |support|*m_prime copies, with no shuffle, so the bit-error
    sample and the groups are the leading slices of the codes.  Source
    noise (only a pbit source carries one) acts as in the runs.  Refuses
    what a run's config would (candidates, m_x or m_prime below 1, a
    negative seed, 2^60 copies or more).  Returns the ``estimates`` block a
    run's transcript would carry.
    """
    candidates = ProtocolConfig.check_candidates(candidates)
    _check_budgets(m_x, m_prime)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed = {seed}")
    setup = _setup(source, candidates)
    # at least a run's 4 copies; copies past the tests stay unmeasured
    n = max(4, m_x + len(setup.support) * m_prime)
    if n >= _MAX_N:
        raise ValueError(f"need m_x + |support| * m_prime < 2^60 copies, got {n}")
    rng = np.random.default_rng(seed)
    codes = _pattern_codes(source, None, n, rng)
    codes_x, group_codes, _ = _split_codes(codes, m_x, m_prime, setup.support)
    k_x, group_counts = _measure(setup, codes_x, group_codes, rng, [])
    return _estimates(setup, n, k_x, m_x, group_counts)


def model_estimates(source: SourceSpec, m_x: int, m_prime: int) -> dict:
    """Exact mean and standard error of each estimate ``run_estimate`` reports, with no draw.

    Every outcome is an independent +-1 draw under the per-copy code law pi
    that ``_pattern_codes`` samples: the source noise's ``code_law`` (code 0
    for rho_h and a noiseless pbit; fixed-weight noise taken at its rates).
    So ``eps_x_hat`` is binomial with p = sum_c pi_c (1 - plus[c, ZI, ZI]), and with
    q_j = sum_c pi_c plus[c, ja, jb] over a candidate's pairs j = (ja, jb), its
    ``eps_z_raw`` has mean (1 - sum_j c_j (2 q_j - 1) / 4) / 2 and variance
    sum_j c_j^2 q_j (1 - q_j) / (16 m_prime), where ``plus`` is the set-up
    table that the samplers read.  Returns, for every known
    twisting as a candidate,
    ``{"eps_x_hat": {"mean", "se"}, "candidates": {name: {"eps_z_raw": {"mean", "se"}}}}``.
    """
    _check_budgets(m_x, m_prime)
    setup = _setup(source, tuple(_TWISTINGS))
    pi = (source.noise or PauliNoiseModel(0.0, 0.0)).code_law()
    p = float(pi @ (1.0 - setup.plus[:, _ZI, _ZI]))
    out: dict = {"eps_x_hat": {"mean": p, "se": math.sqrt(p * (1.0 - p) / m_x)}, "candidates": {}}
    for name, coeffs in setup.decomps.items():
        pairs = support_pairs(coeffs)
        c = np.array([coeffs[pair] for pair in pairs])
        q = np.array([pi @ setup.plus[:, ja, jb] for ja, jb in pairs])
        mean = (1.0 - float(c @ (2.0 * q - 1.0)) / 4.0) / 2.0
        se = math.sqrt(float(c**2 @ (q * (1.0 - q))) / (16.0 * m_prime))
        out["candidates"][name] = {"eps_z_raw": {"mean": mean, "se": se}}
    return out
