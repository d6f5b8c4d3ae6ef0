"""Command-line front end: subcommand dispatch, JSON/CSV emission, seeding.

Conventions shared by every subcommand:

* stdout carries exactly one JSON document; all logging goes to stderr;
* nothing is written outside ``--out``;
* every numeric in emitted JSON is finite (non-finite values are emitted as
  null next to an explicit flag, e.g. ``vacuous``);
* exit code 0 on success, 1 when a verification subcommand finds a failing
  check, 2 on usage/config errors (argparse uses 2 natively);
* run/estimate subcommands never seed from the wall clock -- a seed must
  come from ``--seed`` or the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import (
    BoundParams,
    choose_params,
    composable_insecurity,
    key_rate,
    protocol_failure_bound,
    relaxation_budget,
)
from .channels import (
    POVM_M0,
    POVM_M1,
    binding_channel_apply,
    binding_channel_kraus,
    channel_branches,
)
from .estimation import decompose_two_local, pm_signal_ensemble
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, herm_eig, kron_all
from .protocol import (
    ProtocolConfig,
    SourceSpec,
    canonical_json,
    run_estimate,
    run_pm,
    run_ppp,
    twisting_by_name,
)
from .states import (
    KEY_SHIELD_LAYOUT,
    P_STAR,
    DensityState,
    bell_vec,
    rho_h,
    sigma_ab,
)
from .twist import build_u_h, gamma_x, gamma_z, untwist_and_trace

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbitqkd",
        description="private-state QKD simulation: states, bounds, protocols",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="PRNG seed (no wall-clock seeding)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--p", type=float, help="Bell-mixing weight p")
        p.add_argument("--kappa", type=float, help="white-noise weight kappa")
        p.add_argument("--s", type=int, help="security exponent s")
        p.add_argument("--delta", type=float, help="estimation deviation delta")
        p.add_argument("--d", type=int, help="key dimension d")
        p.add_argument("--dprime", type=int, help="shield dimension d'")
        p.add_argument("--n", type=int, help="number of copies n")
        return p

    add("verify-example", "re-check the worked-example identities numerically")
    add("bounds", "evaluate the aggregate failure bound and insecurity at given n")
    add("solve-params", "solve the security-parameter constraints (minimal n if --n absent)")
    add("estimate", "one LOCC estimation round on a configured source")
    add("run-ppp", "full entanglement-based protocol run, transcript out")
    add("run-pm", "full prepare-and-measure protocol run, transcript out")
    add("pm-ensemble", "signal ensembles induced by measuring Pauli products")
    sweep = add("sweep", "grid of runs over (p, kappa, seeds); CSV to --out")
    sweep.add_argument("--threads", type=int, help="parallel worker processes")
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


def _pick(flag_value, cfg: dict, key: str, default):
    """Precedence: explicit flag > config entry > built-in default."""
    if flag_value is not None:
        return flag_value
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    return default


def _emit(payload, out_path: str | None) -> None:
    _emit_text(canonical_json(payload), out_path)


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", out_path)
    print(text)


def _require_seed(args, cfg: dict) -> int:
    seed = _pick(args.seed, cfg, "seed", None)
    if seed is None:
        raise UsageError("a --seed (or config 'seed') is required; no wall-clock seeding")
    return int(seed)


def _source_dict(args, cfg: dict) -> dict:
    """The config's source entry with --p / --kappa laid over it."""
    src = dict(cfg.get("source") or {})
    if args.p is not None:
        src["p"] = args.p
    if args.kappa is not None:
        src["kappa"] = args.kappa
    return src


def _solver_args(args, cfg: dict) -> tuple[int, float, int, int, int | None]:
    """s, delta, d, d_prime and n (None when unset) for the parameter solver."""
    return (
        int(_pick(args.s, cfg, "s", 40)),
        float(_pick(args.delta, cfg, "delta", 0.05)),
        int(_pick(args.d, cfg, "d", 2)),
        int(_pick(args.dprime, cfg, "d_prime", 4)),
        _pick(args.n, cfg, "n", None),
    )


# --- verify-example ------------------------------------------------------------


def _check(name: str, value: float, tol: float, kind: str = "abs_max") -> dict:
    """One named numeric check: 'abs_max' passes when value <= tol,
    'min_eig' when value >= -tol."""
    ok = value >= -tol if kind == "min_eig" else value <= tol
    return {"name": name, "value": value, "tolerance": tol, "pass": bool(ok)}


def cmd_verify_example(args) -> int:
    cfg = _load_config(args.config)
    p = float(_pick(args.p, cfg, "p", P_STAR))
    kappa = float(_pick(args.kappa, cfg, "kappa", 0.0))
    checks = []

    state = rho_h(p, kappa)
    pt = state.partial_transpose(("B", "B'"))
    vals, _ = herm_eig(pt)
    checks.append(_check("ppt_min_eigenvalue", float(vals.min()), PPT_CLI_TOL, "min_eig"))

    tw = build_u_h()
    untwisted = untwist_and_trace(state, tw)
    dev = untwisted.distance_to(sigma_ab(p, kappa))
    checks.append(_check("untwist_trace_distance", dev, 1e-9))

    phi2 = DensityState(
        np.outer(kron_all(bell_vec(0), bell_vec(0)), kron_all(bell_vec(0), bell_vec(0)).conj()),
        KEY_SHIELD_LAYOUT,
    )
    through = binding_channel_apply(phi2, p, kappa)
    checks.append(_check("channel_reproduces_state", through.distance_to(rho_h(p, kappa)), 1e-9))

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

    gz = gamma_z(KEY_SHIELD_LAYOUT)
    u = tw.assemble(KEY_SHIELD_LAYOUT)
    checks.append(
        _check("phase_observable_twist_invariance", float(np.abs(u @ gz @ u.conj().T - gz).max()), 1e-10)
    )

    gx = gamma_x(tw, KEY_SHIELD_LAYOUT)
    dec = decompose_two_local(gx, KEY_SHIELD_LAYOUT, ("A", "A'"), ("B", "B'"))
    checks.append(_check("decomposition_norm_sq_minus_16", abs(dec.hs_norm_sq - 16.0), 1e-8))

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


_SIGMA = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _six_state_eigenprojectors() -> dict[str, np.ndarray]:
    out = {}
    for axis, op in _SIGMA.items():
        vals, vecs = np.linalg.eigh(op)
        for k in range(2):
            sign = "+" if vals[k] > 0 else "-"
            v = vecs[:, k]
            out[f"{axis}{sign}"] = np.outer(v, v.conj())
    return out


def _six_state_deviation(phi2: DensityState) -> float:
    """Max deviation of the aggregated signal ensemble from the equiprobable
    six-state ensemble, over both receiving factors."""
    projs = _six_state_eigenprojectors()
    worst = 0.0
    for factor in ("B", "B'"):
        weights: dict[str, float] = {k: 0.0 for k in projs}
        labels = [a + b for a in "XYZ" for b in "XYZ"]
        for label in labels:
            for prob, cond in pm_signal_ensemble(phi2, label):
                if prob <= 0.0:
                    continue
                marg = cond.partial_trace((factor,))
                best_key, best_dev = None, math.inf
                for key, pr in projs.items():
                    d = float(np.abs(marg.mat - pr).max())
                    if d < best_dev:
                        best_key, best_dev = key, d
                worst = max(worst, best_dev)
                weights[best_key] += prob / len(labels)
        for key, w in weights.items():
            worst = max(worst, abs(w - 1.0 / 6.0))
    return worst


# --- bounds / solve-params ------------------------------------------------------


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    s, delta, d, d_prime, n = _solver_args(args, cfg)
    if n is None:
        raise UsageError("bounds needs --n (or config 'n')")
    n = int(n)
    beta_b = cfg.get("beta_b")

    solver = choose_params(s, delta, d, d_prime, n=n)
    # allocation: solver split when it is feasible at this n, else explicit
    # config values, else an even key/test heuristic (vacuous at desk scale)
    m_x = int(_pick(None, cfg, "m_x", min(solver.m_x, n // 4)))
    m_z_default = solver.m_z if (solver.m_z and solver.m_z + m_x < n) else (n - m_x) // 2
    m_z = int(_pick(None, cfg, "m_z", m_z_default))
    if m_x < 1 or m_z < 1 or n - m_z < 2:
        raise UsageError(f"n = {n} is too small to allocate estimation samples")
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


def cmd_solve_params(args) -> int:
    cfg = _load_config(args.config)
    s, delta, d, d_prime, n = _solver_args(args, cfg)
    sol = choose_params(s, delta, d, d_prime, n=None if n is None else int(n))
    payload = {"schema": SCHEMA, "solution": sol.to_dict()}
    _emit(payload, args.out)
    if not sol.feasible:
        log.info("infeasible: %s", sol.message or sol.binding_constraint)
    return EXIT_OK


# --- estimate -------------------------------------------------------------------


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    try:
        source = SourceSpec.from_dict(_source_dict(args, cfg))
        m_prime = int(cfg.get("m_prime", 400))
        m_x = int(cfg.get("m_x", 1024))
        candidates = tuple(cfg.get("candidates", ProtocolConfig.candidates))
        for name in candidates:
            twisting_by_name(name)  # an unknown name is a config error, not a run error
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad estimate config: {exc}") from exc
    if m_prime < 1 or m_x < 1:
        raise UsageError("m_prime and m_x must be positive")

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


def _protocol_config(args, cfg: dict) -> ProtocolConfig:
    merged = dict(cfg)
    if args.n is not None:
        merged["n"] = args.n
    if args.s is not None:
        merged["s"] = args.s
    if args.delta is not None:
        merged["delta"] = args.delta
    merged["source"] = _source_dict(args, cfg)
    if "n" not in merged:
        raise UsageError("a protocol run needs --n (or config 'n')")
    merged["seed"] = _require_seed(args, cfg)
    return _parse_config(merged)


def _parse_config(d: dict) -> ProtocolConfig:
    try:
        return ProtocolConfig.from_dict(d)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad protocol config: {exc}") from exc


def cmd_run(args) -> int:
    config = _protocol_config(args, _load_config(args.config))
    # resolved at call time so a rebound module-level run_ppp / run_pm is used
    transcript = run_ppp(config) if args.command == "run-ppp" else run_pm(config)
    _emit_text(transcript.to_json(), args.out)
    if transcript.abort:
        log.info("run aborted: %s", transcript.abort_reason)
    return EXIT_OK


# --- pm-ensemble ------------------------------------------------------------------


def cmd_pm_ensemble(args) -> int:
    src = _source_dict(args, _load_config(args.config))
    if src:
        state = SourceSpec.from_dict(src).base_state()
        default_input = False
    else:
        vec = kron_all(bell_vec(0), bell_vec(0))
        state = DensityState(np.outer(vec, vec.conj()), KEY_SHIELD_LAYOUT)
        default_input = True

    observables = {}
    letters = "IXYZ"
    for a in letters:
        for b in letters:
            label = a + b
            ens = pm_signal_ensemble(state, label)
            observables[label] = [
                {
                    "prob": prob,
                    "state_re": np.round(st.mat.real, 12).tolist(),
                    "state_im": np.round(st.mat.imag, 12).tolist(),
                }
                for prob, st in ens
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
    protocol, config = task
    transcript = run_ppp(config) if protocol == "ppp" else run_pm(config)
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


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise UsageError("sweep needs --config with the grid specification")
    if not args.out:
        raise UsageError("sweep needs --out for the CSV (stdout carries JSON only)")
    protocol = cfg.get("protocol", "ppp")
    if protocol not in ("ppp", "pm"):
        raise UsageError(f"unknown protocol {protocol!r}")
    p_values = [float(v) for v in cfg.get("p_values", [cfg.get("p", P_STAR)])]
    kappa_values = [float(v) for v in cfg.get("kappa_values", [cfg.get("kappa", 0.0)])]
    if "seeds" in cfg:
        seeds = [int(v) for v in cfg["seeds"]]
    else:
        seed0 = _pick(args.seed, cfg, "seed", None)
        if seed0 is None:
            raise UsageError("sweep needs config 'seeds' or a base --seed")
        seeds = [int(seed0) + i for i in range(int(cfg.get("n_seeds", 1)))]
    # grid keys name no config field, so ProtocolConfig.from_dict skips them
    base = dict(cfg)
    if args.n is not None:
        base["n"] = args.n
    if "n" not in base:
        raise UsageError("sweep needs 'n' in config (or --n)")
    src_base = dict(cfg.get("source", {}))

    tasks = []
    for p in p_values:
        for kappa in kappa_values:
            for seed in seeds:
                src = {**src_base, "p": p, "kappa": kappa}
                tasks.append((protocol, _parse_config({**base, "seed": seed, "source": src})))

    threads = args.threads if args.threads is not None else cfg.get("threads")
    if threads is not None and int(threads) > 1:
        with ProcessPoolExecutor(max_workers=int(threads)) as pool:
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


_COMMANDS = {
    "verify-example": cmd_verify_example,
    "bounds": cmd_bounds,
    "solve-params": cmd_solve_params,
    "estimate": cmd_estimate,
    "run-ppp": cmd_run,
    "run-pm": cmd_run,
    "pm-ensemble": cmd_pm_ensemble,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except ValueError as exc:
        log.error("invalid parameter: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
