"""Command-line front end: subcommand dispatch, JSON/CSV emission, seeding.

Conventions shared by every subcommand:

* stdout carries exactly one JSON document; all logging goes to stderr;
* nothing is written outside ``--out``, and an ``--out`` that cannot be
  written is refused before any work;
* every numeric in emitted JSON is finite (non-finite values are emitted as
  null next to an explicit flag, e.g. ``vacuous``);
* exit code 0 on success, 1 when a verification subcommand finds a failing
  check or the program fails (stderr tells the two apart: a logged failed
  check, or a traceback), 2 on usage/config errors (argparse uses 2 natively);
* run/estimate subcommands never seed from the wall clock -- a seed must
  come from ``--seed`` or the config file.

At module level this file imports the standard library, ``bounds`` and
``canonical`` only, none of which loads numpy, so ``bounds`` and
``solve-params`` run without it; every other command imports the modules it
uses when it runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .bounds import (
    BoundParams,
    check_beta_b,
    check_solver_args,
    choose_params,
    composable_insecurity,
    key_rate,
    protocol_failure_bound,
    relaxation_budget,
    search_n,
)
from .canonical import canonical_json, json_int, json_real, read_entries

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

log = logging.getLogger("pbitqkd")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SCHEMA = 1

# The worked-example CLI report accepts p given to ~6 decimals, so its PPT
# check uses a tolerance at the rounding scale rather than the 1e-10 used by
# the library tests at the exact critical point.
PPT_CLI_TOL = 1e-6


class UsageError(Exception):
    """Bad flags/config combination; maps to exit code 2."""


# --- plumbing ----------------------------------------------------------------


# flag -> (config entry it lays over, value type, help); --config and --out
# name files and lay over no entry
_FLAGS = {
    "config": (None, str, "JSON config file"),
    "out": (None, str, "output file path"),
    "seed": ("seed", int, "PRNG seed (no wall-clock seeding)"),
    "p": ("p", float, "Bell-mixing weight p"),
    "kappa": ("kappa", float, "white-noise weight kappa"),
    "s": ("s", int, "security exponent s"),
    "delta": ("delta", float, "estimation deviation delta"),
    "d": ("d", int, "key dimension d"),
    "dprime": ("d_prime", int, "shield dimension d'"),
    "n": ("n", int, "number of copies n"),
    "threads": ("threads", int, "parallel worker processes"),
}


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, dict], int]
    flags: tuple[str, ...]  # the _FLAGS it reads besides --config and --out
    keys: Mapping[str, object]  # config entry it reads -> its default; _PARSERS reads it
    help: str
    protocol: bool = False  # runs the protocol: every other entry is a ProtocolConfig field


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbitqkd",
        description="private-state QKD simulation: states, bounds, protocols",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, command in _COMMANDS.items():
        # no abbreviations: a prefix must not reach a flag the subcommand reads
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in ("config", "out", *command.flags):
            _, kind, help_text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=help_text)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return cfg


@contextmanager
def _config_errors(what: str):
    """Report a bad config value met inside the block as a usage error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {what} config: {exc}") from exc


def _seed(value) -> int:
    seed = json_int(value)
    if seed < 0:
        raise ValueError(f"need a non-negative seed, got {seed}")
    return seed


def _source(value):
    """A SourceSpec, or None for an empty source (pm-ensemble's default input)."""
    from .protocol import SourceSpec

    return SourceSpec.from_dict(value) if value else None


def _candidates(value) -> tuple[str, ...]:
    from .protocol import ProtocolConfig

    return ProtocolConfig.check_candidates(value)


def _each(parse: Callable) -> Callable:
    return lambda values: [parse(v) for v in values]


# config entry -> its parser (None: as it is), for every entry a command reads itself
_PARSERS = {
    "seed": _seed, "n": json_int, "s": json_int, "delta": json_real, "d": json_int,
    "d_prime": json_int, "m_x": json_int, "m_z": json_int, "m_prime": json_int,
    "beta_b": check_beta_b, "p": json_real, "kappa": json_real, "source": _source,
    "candidates": _candidates, "protocol": None, "seeds": _each(_seed), "n_seeds": json_int,
    "p_values": _each(json_real), "kappa_values": _each(json_real),
}
_NEEDED = object()  # the default of an entry that a command cannot run without


def _settings(args, command: _Command) -> dict:
    """The flags laid over the config file: flag > non-null entry > default.

    Each entry in ``command.keys`` is read by its parser, a null or absent
    one as its default there.  A command that runs the protocol keeps every
    other entry as it is, for ProtocolConfig's reader; any other command
    refuses it.  A command that runs a source lays --p and --kappa over the
    config's 'source', and reads a null 'source' as the default source.
    """
    cfg = _load_config(args.config)
    given = {_FLAGS[f][0]: getattr(args, f) for f in command.flags if getattr(args, f) is not None}
    own = {k: _PARSERS[k] for k in command.keys}
    with _config_errors("protocol" if command.protocol else args.command):
        if command.protocol or "source" in own:
            laid = {k: given.pop(k) for k in ("p", "kappa") if k in given}
            given["source"] = {**(cfg.get("source") or {}), **laid}
        entries = {**cfg, **given}
        parsers = {**dict.fromkeys(entries), **own} if command.protocol else own
        read = read_entries(entries, parsers, keep_none=own)
    settings = {**command.keys, **{k: v for k, v in read.items() if v is not None or k not in own}}
    needed = [k for k, v in settings.items() if v is _NEEDED]
    if needed:
        raise UsageError(f"{args.command} needs --{needed[0]} (or config {needed[0]!r})")
    return settings


def _check_out(path: str | None) -> None:
    """Refuse an --out that names a directory or lies in no writable one."""
    folder = os.path.dirname(path or "") or "."
    if path and os.path.isdir(path):
        raise UsageError(f"cannot write --out {path!r}: it is a directory")
    if path and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise UsageError(f"cannot write --out {path!r}: {folder!r} is no writable directory")


def _emit(payload, out_path: str | None) -> None:
    _emit_text(canonical_json(payload), out_path)


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", out_path)
    print(text)


# --- verify-example ------------------------------------------------------------


def _check(name: str, value: float, tol: float, kind: str = "abs_max") -> dict:
    """One named numeric check: 'abs_max' passes when value <= tol,
    'min_eig' when value >= -tol."""
    ok = value >= -tol if kind == "min_eig" else value <= tol
    return {"name": name, "value": value, "tolerance": tol, "pass": bool(ok)}


def cmd_verify_example(args, cfg: dict) -> int:
    import numpy as np

    from .channels import (
        POVM_M0,
        POVM_M1,
        binding_channel_apply,
        binding_channel_kraus,
        channel_branches,
    )
    from .estimation import decompose_two_local
    from .linalg import herm_eig, partial_transpose, trace_distance
    from .states import KEY_SHIELD_LAYOUT, P_STAR, rho_h, sigma_ab
    from .twist import build_u_h, gamma_x, gamma_z, untwist_and_trace

    p, kappa = P_STAR if cfg["p"] is None else cfg["p"], cfg["kappa"]
    with _config_errors("verify-example"):
        state = rho_h(p, kappa)
    checks = []

    vals, _ = herm_eig(partial_transpose(state, KEY_SHIELD_LAYOUT, ("B", "B'")))
    checks.append(_check("ppt_min_eigenvalue", float(vals.min()), PPT_CLI_TOL, "min_eig"))

    u = build_u_h()
    dev = trace_distance(untwist_and_trace(state, u), sigma_ab(p, kappa))
    checks.append(_check("untwist_trace_distance", dev, 1e-9))

    phi2 = _phi_phi()
    dev = trace_distance(binding_channel_apply(phi2, p, kappa), state)
    checks.append(_check("channel_reproduces_state", dev, 1e-9))

    povm_dev = float(
        np.abs(POVM_M0.conj().T @ POVM_M0 + POVM_M1.conj().T @ POVM_M1 - np.eye(2)).max()
    )
    checks.append(_check("povm_completeness", povm_dev, 1e-12))

    kraus = binding_channel_kraus(p, kappa)
    total = sum(k.conj().T @ k for _, k in kraus)
    checks.append(_check("kraus_completeness", float(np.abs(total - np.eye(4)).max()), 1e-12))

    expected = {
        "1a": p / 4.0, "1b": p / 4.0, "2": p / 4.0, "3": p / 4.0,
        "4a": (1.0 - p) / 2.0, "4b": (1.0 - p) / 2.0,
    }
    branch_dev = 0.0
    for label, prob, _post in channel_branches(phi2, binding_channel_kraus(p, 0.0)):
        branch_dev = max(branch_dev, abs(prob - expected[label]))
    checks.append(_check("branch_probabilities", branch_dev, 1e-9))

    gz = gamma_z()
    checks.append(
        _check("phase_observable_twist_invariance", float(np.abs(u @ gz @ u.conj().T - gz).max()), 1e-10)
    )

    coeffs = decompose_two_local(gamma_x(u))
    norm_sq = float(np.sum(coeffs**2))  # ||Gamma_x||_HS^2: the basis is orthonormal
    checks.append(_check("decomposition_norm_sq_minus_16", abs(norm_sq - 16.0), 1e-8))

    six_dev = _six_state_deviation(phi2)
    checks.append(_check("six_state_correspondence", six_dev, 1e-12))

    ok = all(c["pass"] for c in checks)
    payload = {
        "schema": SCHEMA,
        "p": p,
        "kappa": kappa,
        "p_star": P_STAR,
        "key_rate_at_p": key_rate(p, 0.0),
        "checks": checks,
        "ok": ok,
    }
    _emit(payload, args.out)
    if not ok:
        for c in checks:
            if not c["pass"]:
                log.error("check failed: %s = %s (tol %s)", c["name"], c["value"], c["tolerance"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _phi_phi():
    """Φ⊗Φ on the arena: the pdit of the identity twisting with a Φ shield."""
    from .linalg import proj
    from .states import bell_vec
    from .twist import identity_twisting, make_pdit

    return make_pdit(identity_twisting(), proj(bell_vec(0)))


def _six_state_deviation(phi2) -> float:
    """Max deviation of the aggregated signal ensemble from the equiprobable
    six-state ensemble, over both receiving factors."""
    import numpy as np

    from .estimation import pm_signal_ensemble
    from .linalg import PAULI_EIGVECS, partial_trace, proj

    projs = {axis + sign: proj(PAULI_EIGVECS[axis][:, k])
             for axis in "XYZ" for k, sign in enumerate("+-")}
    worst = 0.0
    for factor in ("B", "B'"):
        weights: dict[str, float] = {k: 0.0 for k in projs}
        labels = [a + b for a in "XYZ" for b in "XYZ"]
        for label in labels:
            for prob, cond in pm_signal_ensemble(phi2, label):
                if prob <= 0.0:
                    continue
                marg = partial_trace(cond, ("B", "B'"), (factor,))
                best_key, best_dev = None, math.inf
                for key, pr in projs.items():
                    d = float(np.abs(marg - pr).max())
                    if d < best_dev:
                        best_key, best_dev = key, d
                worst = max(worst, best_dev)
                weights[best_key] += prob / len(labels)
        for key, w in weights.items():
            worst = max(worst, abs(w - 1.0 / 6.0))
    return worst


# --- bounds / solve-params ------------------------------------------------------


def cmd_bounds(args, cfg: dict) -> int:
    s, delta, d, d_prime, n, m_x, m_z, beta_b = cfg.values()
    with _config_errors("bounds"):
        solver = choose_params(s, delta, d, d_prime, n=n)

    # allocation: explicit config values, else the solver split when it is
    # feasible at this n, else an even key/test heuristic (vacuous at desk scale)
    if m_x is None:
        m_x = min(solver.m_x, n // 4)
    if m_z is None:
        m_z = solver.m_z if (solver.m_z and solver.m_z + m_x < n) else (n - m_x) // 2
    if m_x < 1 or m_z < 1:
        raise UsageError(f"n = {n} is too small to allocate estimation samples")
    if m_x + m_z >= n:
        raise UsageError(f"estimation budget m_x + m_z = {m_x + m_z} leaves no key copies "
                         f"out of n = {n}")
    r = relaxation_budget(s, n, d, d_prime)
    params = BoundParams(
        n=n, m_x=m_x, m_z=m_z, delta=delta, r=r, d=d, d_prime=d_prime, s=s, beta_b=beta_b
    )
    bound = protocol_failure_bound(params)
    payload = {
        "schema": SCHEMA,
        "params": params.to_dict(),
        **bound.to_dict(),
        "insecurity": composable_insecurity(bound.f, params.beta),
        "binding_constraint": solver.binding_constraint,
        "solver": solver.to_dict(),
    }
    _emit(payload, args.out)
    if bound.vacuous:
        log.info("bound is vacuous at n = %d (expected at desk scale)", n)
    return EXIT_OK


def cmd_solve_params(args, cfg: dict) -> int:
    with _config_errors("solve-params"):
        top = check_solver_args(*cfg.values())
    sol = top if cfg["n"] is not None else search_n(top)
    payload = {"schema": SCHEMA, "solution": sol.to_dict()}
    _emit(payload, args.out)
    if not sol.feasible:
        log.info("infeasible: %s", sol.message or sol.binding_constraint)
    return EXIT_OK


# --- estimate -------------------------------------------------------------------


def cmd_estimate(args, cfg: dict) -> int:
    from .protocol import ProtocolConfig, SourceSpec, check_estimate, run_estimate

    seed, m_x, m_prime = cfg["seed"], cfg["m_x"], cfg["m_prime"]
    source = cfg["source"] or SourceSpec()
    candidates = cfg["candidates"] or ProtocolConfig.candidates

    with _config_errors("estimate"):
        check_estimate(source, seed, m_x, m_prime, candidates)
    estimates = run_estimate(source, seed, m_x, m_prime, candidates)
    payload = {
        "schema": SCHEMA,
        "seed": seed,
        "source": source.to_dict(),
        "m_prime": m_prime,
        "m_x": m_x,
        "eps_x_hat": estimates["eps_x_hat"],
        "candidates": estimates["candidates"],
        "group_means": estimates["group_means"],
        "group_counts": estimates["group_counts"],
        "best": {"twisting": estimates["best_candidate"], "eps_z": estimates["eps_z_hat"]},
        "key_rate": estimates["rate"],
    }
    _emit(payload, args.out)
    return EXIT_OK


# --- protocol runs ---------------------------------------------------------------


def cmd_run(args, cfg: dict) -> int:
    from . import protocol

    with _config_errors("protocol"):
        config = protocol.ProtocolConfig.from_dict(cfg)
    # looked up on the module at call time, so a rebound protocol.run_ppp / run_pm is used
    transcript = (protocol.run_ppp if args.command == "run-ppp" else protocol.run_pm)(config)
    _emit_text(transcript.to_json(), args.out)
    if transcript.abort:
        log.info("run aborted: %s", transcript.abort_reason)
    return EXIT_OK


# --- pm-ensemble ------------------------------------------------------------------


def cmd_pm_ensemble(args, cfg: dict) -> int:
    import numpy as np

    from .estimation import pm_signal_ensemble
    from .linalg import PAULI_PRODUCT_LABELS

    source = cfg["source"]
    if source and source.noise:
        raise UsageError("bad pm-ensemble config: source: pm-ensemble reads no noise")
    default_input = not source
    state = _phi_phi() if default_input else source.base_state().mat

    observables = {}
    for label in PAULI_PRODUCT_LABELS:
        observables[label] = [
            {
                "prob": prob,
                "state_re": np.round(st.real, 12).tolist(),
                "state_im": np.round(st.imag, 12).tolist(),
            }
            for prob, st in pm_signal_ensemble(state, label)
        ]
    payload = {"schema": SCHEMA, "default_input": default_input, "observables": observables}
    if default_input:
        dev = _six_state_deviation(state)
        payload["six_state_max_deviation"] = dev
        payload["six_state_ok"] = bool(dev <= 1e-12)
    _emit(payload, args.out)
    return EXIT_OK


# --- sweep -------------------------------------------------------------------------


def _sweep_row(task: tuple[str, ProtocolConfig]) -> dict:
    from . import protocol

    flow, config = task
    transcript = (protocol.run_ppp if flow == "ppp" else protocol.run_pm)(config)
    est = transcript.estimates or {}
    return {
        "seed": config.seed,
        "p": config.source.p,
        "kappa": config.source.kappa,
        "eps_x_hat": est.get("eps_x_hat"),
        "eps_z_hat": est.get("eps_z_hat"),
        "rate": est.get("rate"),
        "abort": int(transcript.abort),
    }


def cmd_sweep(args, cfg: dict) -> int:
    from dataclasses import replace

    from .protocol import ProtocolConfig

    if args.config is None:
        raise UsageError("sweep needs --config with the grid specification")
    if not args.out:
        raise UsageError("sweep needs --out for the CSV (stdout carries JSON only)")
    if cfg["protocol"] not in ("ppp", "pm"):
        raise UsageError(f"unknown protocol {cfg['protocol']!r}")
    seeds = cfg["seeds"]
    if seeds is None:
        if cfg["seed"] is None:
            raise UsageError("sweep needs config 'seeds' or a base --seed")
        seeds = [cfg["seed"] + i for i in range(cfg["n_seeds"])]
    if [] in (seeds, cfg["p_values"], cfg["kappa_values"]):
        raise UsageError("sweep needs a value on each of seeds, p_values and kappa_values")
    with _config_errors("protocol"):
        # every run setting is checked once, on a template, before the grid is expanded
        template = ProtocolConfig.from_dict({k: v for k, v in cfg.items() if k not in _GRID}
                                            | {"seed": 0}, near=_GRID)
        # a grid axis, else the top-level value, else the source's (or its default)
        source = template.source
        p_values = cfg["p_values"] or [source.p if cfg["p"] is None else cfg["p"]]
        kappa_values = cfg["kappa_values"] or [source.kappa if cfg["kappa"] is None else cfg["kappa"]]
        tasks = [
            (cfg["protocol"],
             replace(template, seed=seed, source=replace(source, p=p, kappa=kappa)))
            for p in p_values
            for kappa in kappa_values
            for seed in seeds
        ]

    # on Linux the pool forks all its workers at once, so it gets no more than
    # there are runs or cores
    workers = min(template.threads or 1, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]

    fields = ["seed", "p", "kappa", "eps_x_hat", "eps_z_hat", "rate", "abort"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in fields})
    log.info("wrote %d rows to %s", len(rows), args.out)
    _emit({"schema": SCHEMA, "rows": len(rows), "out": args.out}, None)
    return EXIT_OK


# --- dispatch ----------------------------------------------------------------------


# in choose_params' order, as bounds and solve-params unpack their settings
_SOLVER = {"s": 40, "delta": 0.05, "d": 2, "d_prime": 4, "n": None}
_RUN = {"seed": _NEEDED, "n": _NEEDED}
# a sweep's entries besides n; the others make up each run's ProtocolConfig
_GRID = {"protocol": "ppp", "seed": None, "seeds": None, "n_seeds": 1, "p_values": None,
         "kappa_values": None, "p": None, "kappa": None}

_COMMANDS = {
    "verify-example": _Command(cmd_verify_example, ("p", "kappa"), {"p": None, "kappa": 0.0},
                               "re-check the worked-example identities numerically"),
    "bounds": _Command(cmd_bounds, ("s", "delta", "d", "dprime", "n"),
                       {**_SOLVER, "n": _NEEDED, "m_x": None, "m_z": None, "beta_b": None},
                       "evaluate the aggregate failure bound and insecurity at given n"),
    "solve-params": _Command(cmd_solve_params, ("s", "delta", "d", "dprime", "n"), _SOLVER,
                             "solve the security-parameter constraints (minimal n if --n absent)"),
    "estimate": _Command(cmd_estimate, ("seed", "p", "kappa"),
                         {"seed": _NEEDED, "source": None, "m_x": 1024, "m_prime": 400,
                          "candidates": None},
                         "one LOCC estimation round on a configured source"),
    "run-ppp": _Command(cmd_run, ("seed", "n", "s", "delta", "p", "kappa"), _RUN,
                        "full entanglement-based protocol run, transcript out", protocol=True),
    "run-pm": _Command(cmd_run, ("seed", "n", "s", "delta", "p", "kappa"), _RUN,
                       "full prepare-and-measure protocol run, transcript out", protocol=True),
    "pm-ensemble": _Command(cmd_pm_ensemble, ("p", "kappa"), {"source": None},
                            "signal ensembles induced by measuring Pauli products"),
    "sweep": _Command(cmd_sweep, ("seed", "n", "threads"), {**_GRID, "n": _NEEDED},
                      "grid of runs over (p, kappa, seeds); CSV to --out", protocol=True),
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    command = _COMMANDS[args.command]
    try:
        _check_out(args.out)
        return command.run(args, _settings(args, command))
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
