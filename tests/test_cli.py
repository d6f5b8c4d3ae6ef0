"""CLI contract: exit codes, one-JSON-document stdout, file outputs, CSV."""

import argparse
import concurrent.futures
import csv
import hashlib
import importlib
import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

from pbitqkd import bounds, cli, protocol
from pbitqkd.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _build_parser, main
from pbitqkd.states import P_STAR


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, parsed_stdout_json)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


def test_verify_example_passes_at_the_critical_point(capsys):
    code, payload = run_cli(capsys, "verify-example")
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert payload["p"] == pytest.approx(P_STAR)
    names = {c["name"] for c in payload["checks"]}
    assert {"ppt_min_eigenvalue", "untwist_trace_distance", "channel_reproduces_state",
            "povm_completeness", "six_state_correspondence"} <= names
    assert all(c["pass"] for c in payload["checks"])


def test_verify_example_accepts_rounded_p(capsys):
    # six decimals of the critical point must still verify
    code, payload = run_cli(capsys, "verify-example", "--p", "0.585786")
    assert code == EXIT_OK
    assert payload["ok"] is True


def test_verify_example_fails_away_from_the_critical_point(capsys):
    code, payload = run_cli(capsys, "verify-example", "--p", "0.40")
    assert code == EXIT_CHECK_FAILED
    assert payload["ok"] is False
    failing = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert "ppt_min_eigenvalue" in failing


def test_stdout_is_exactly_one_json_document(capsys):
    code = main(["verify-example"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    json.loads(out)  # a single parseable document
    assert out.count("\n") == 1 and out.endswith("\n")


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "pbitqkd.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pbitqkd; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# every entry bounds and solve-params read, with a value of its kind
SOLVER_CONFIGS = {
    "bounds": {"s": 40, "delta": 0.05, "d": 2, "d_prime": 4, "n": 100000, "m_x": 1000,
               "m_z": 2000, "beta_b": 1e-6},
    "solve-params": {"s": 40, "delta": 0.05, "d": 2, "d_prime": 4, "n": 10**19},
}


# bounds and solve-params are pure math: their children never import numpy, and a
# valid config never imports difflib, which only names the closest key to a refused one
@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "100000"],
    ["solve-params", "--s", "40", "--delta", "0.05"],
    ["bounds", "--config"],
    ["solve-params", "--config"],
])
def test_solver_commands_do_not_load_numpy(tmp_path, argv):
    if argv[-1] == "--config":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SOLVER_CONFIGS[argv[0]]))
        argv = [*argv, str(cfg_path)]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pbitqkd.cli", *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["schema"] == 1
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "pbitqkd.bounds" in imported
    assert [name for name in imported if name.split(".")[0] in ("numpy", "difflib")] == []


def test_cli_and_bounds_imports_do_not_load_numpy():
    code = "import sys; from pbitqkd import cli, bounds; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_is_installed():
    proc = subprocess.run(["pbitqkd", "verify-example"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["ok"] is True


def test_bounds_reports_vacuous_at_desk_scale(capsys):
    code, payload = run_cli(capsys, "bounds", "--n", "100000")
    assert code == EXIT_OK
    assert {"schema", "params", "log2_terms", "log2_f", "f", "insecurity",
            "vacuous", "binding_constraint", "solver"} <= set(payload)
    assert payload["vacuous"] is True
    # non-finite numbers must be emitted as null, never Infinity/NaN
    assert payload["insecurity"] is None or payload["insecurity"] < float("inf")
    for v in payload["log2_terms"].values():
        assert v is None or isinstance(v, (int, float))


def test_bounds_is_meaningful_at_solver_scale(capsys):
    code, payload = run_cli(capsys, "bounds", "--n", "2000000000000000000")
    assert code == EXIT_OK
    assert payload["vacuous"] is False
    assert payload["log2_f"] < -40.0
    assert 0.0 < payload["insecurity"] < 1e-4
    assert payload["solver"]["feasible"] is True


def test_solve_params_minimal_n(capsys):
    code, payload = run_cli(capsys, "solve-params", "--s", "40", "--delta", "0.05")
    assert code == EXIT_OK
    sol = payload["solution"]
    assert sol["feasible"] is True
    assert sol["m_x"] == 256000
    assert sol["n"] > 1e18


def test_solve_params_reports_named_infeasibility(capsys):
    code, payload = run_cli(
        capsys, "solve-params", "--s", "1", "--n", "10000000000000000000"
    )
    assert code == EXIT_OK
    sol = payload["solution"]
    assert sol["feasible"] is False
    assert sol["binding_constraint"] == "term_bit_sampling"


def test_estimate_requires_a_seed(capsys):
    assert main(["estimate"]) == EXIT_USAGE
    capsys.readouterr()


def test_estimate_bad_config_values_are_usage_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # a round of 2^60 copies or more is refused too
    for cfg in ({"candidates": [None]}, {"m_x": "many"}, {"m_prime": 0}, {"candidates": []},
                {"m_x": 1e40}, {"m_prime": 2e18}):
        cfg_path.write_text(json.dumps(cfg))
        assert main(["estimate", "--seed", "1", "--config", str(cfg_path)]) == EXIT_USAGE, cfg
        assert capsys.readouterr().out == "", cfg


def test_estimate_round(tmp_path, capsys):
    code, payload = run_cli(
        capsys, "estimate", "--seed", "3", "--p", str(P_STAR), "--kappa", "0.0"
    )
    assert code == EXIT_OK
    assert payload["seed"] == 3
    assert set(payload["candidates"]) == {"identity", "u_h"}
    assert payload["best"]["twisting"] in ("identity", "u_h")
    assert 0.0 <= payload["best"]["eps_z"] <= 0.5
    assert 0.0 <= payload["eps_x_hat"] <= 1.0
    assert payload["key_rate"] >= 0.0
    # the smallest budgets still make a round (fewer than four copies)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m_x": 1, "m_prime": 1, "candidates": ["identity"]}))
    code, payload = run_cli(capsys, "estimate", "--seed", "1", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert payload["group_counts"] == {"XI|XI": 1}


NOISY_PBIT = {
    "kind": "pbit", "twisting": "u_h", "ancilla": "comp00",
    "noise": {"eps_x": 0.02, "eps_z": 0.01},
}


def test_estimate_applies_pbit_source_noise(tmp_path, capsys):
    # On the comp00 ancilla u_h acts trivially, so both candidates are valid
    # untwistings (exact eps_z 0.0100 for identity, 0.0129 for u_h) and
    # either may win; on a maximally mixed ancilla only u_h untwists the
    # state (identity's exact eps_z is 0.5), so u_h must win.
    for ancilla in ("comp00", "maximally_mixed"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source": {**NOISY_PBIT, "ancilla": ancilla}}))
        code, payload = run_cli(capsys, "estimate", "--seed", "5", "--config", str(cfg_path))
        assert code == EXIT_OK
        se = (0.02 * 0.98 / payload["m_x"]) ** 0.5
        assert abs(payload["eps_x_hat"] - 0.02) <= 5 * se
    assert payload["best"]["twisting"] == "u_h"


def test_estimate_refuses_noise_on_rho_h_sources(tmp_path, capsys, caplog):
    # a rho_h source reads no noise: a null one is unset, any other is refused
    cfg_path = tmp_path / "cfg.json"
    for noise, code in ((None, EXIT_OK), ({"eps_x": 0.2, "eps_z": 0.1}, EXIT_USAGE)):
        cfg_path.write_text(json.dumps({"source": {"kind": "rho_h", "noise": noise}}))
        assert main(["estimate", "--seed", "4", "--config", str(cfg_path)]) == code
    assert capsys.readouterr().out.count("\n") == 1  # the refused round printed nothing
    assert "a rho_h source reads no noise" in caplog.text


def test_run_ppp_writes_out_file_and_stdout(tmp_path, capsys):
    cfg = {
        "n": 100000, "seed": 0, "m_x": 4000, "m_prime": 10600,
        "source": {"p": P_STAR, "kappa": 0.001},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "transcript.json"
    code = main(["run-ppp", "--config", str(cfg_path), "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    assert out_path.read_text() + "\n" == stdout
    doc = json.loads(stdout)
    assert doc["protocol"] == "ppp"
    assert doc["abort"] is False


def test_run_ppp_flags_override_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 100000, "seed": 0, "m_x": 4000, "m_prime": 10600,
        "source": {"p": P_STAR, "kappa": 0.001},
    }))
    code, doc = run_cli(capsys, "run-ppp", "--config", str(cfg_path), "--seed", "9",
                        "--kappa", "0.002")
    assert code == EXIT_OK
    assert doc["config"]["seed"] == 9
    assert doc["config"]["source"]["kappa"] == pytest.approx(0.002)


def test_run_ppp_accepts_integer_budgets_given_as_floats(tmp_path, capsys):
    cfg = {
        "n": 100000, "seed": 0, "m_x": 4000, "m_prime": 10600,
        "source": {"p": P_STAR, "kappa": 0.001},
    }
    outputs = []
    for m_x in (4000, 4000.0):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "m_x": m_x}))
        assert main(["run-ppp", "--config", str(cfg_path)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_run_ppp_is_deterministic_via_cli(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2000, "seed": 5, "m_x": 200, "m_prime": 150,
        "source": {"p": P_STAR, "kappa": 0.0},
    }))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "pbitqkd.cli", "run-ppp", "--config", str(cfg_path)],
            capture_output=True, text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == EXIT_OK
    assert runs[0].stdout == runs[1].stdout


def test_run_ppp_needs_n_and_seed(capsys):
    assert main(["run-ppp", "--seed", "1"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run-ppp", "--n", "2000"]) == EXIT_USAGE
    capsys.readouterr()


# the flags each subcommand reads besides --config and --out
FLAGS_READ = {
    "verify-example": {"p", "kappa"},
    "pm-ensemble": {"p", "kappa"},
    "bounds": {"s", "delta", "d", "dprime", "n"},
    "solve-params": {"s", "delta", "d", "dprime", "n"},
    "estimate": {"seed", "p", "kappa"},
    "run-ppp": {"seed", "n", "s", "delta", "p", "kappa"},
    "run-pm": {"seed", "n", "s", "delta", "p", "kappa"},
    "sweep": {"seed", "n", "threads"},
}
# once accepted by every subcommand, read or not
SHARED_FLAGS = ("seed", "p", "kappa", "s", "delta", "d", "dprime", "n")
UNREAD = [(cmd, flag) for cmd, read in FLAGS_READ.items() for flag in SHARED_FLAGS
          if flag not in read]


def test_parser_accepts_exactly_the_flags_each_subcommand_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        (name, opt)
        for name, parser in sub.choices.items()
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    expected = {(cmd, f"--{flag}") for cmd, read in FLAGS_READ.items()
                for flag in read | {"config", "out"}}
    assert accepted == expected
    assert (len(accepted), len(UNREAD)) == (48, 33)


@pytest.mark.parametrize("argv", [
    *([cmd, f"--{flag}", "1"] for cmd, flag in UNREAD),
    ["run-ppp", "--d", "3"],  # not an abbreviation of --delta
    ["run-ppp", "--kap", "0.1"],  # not an abbreviation of --kappa
], ids=" ".join)
def test_unread_flags_and_abbreviations_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_null_source_in_config_is_the_default_source(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 2000, "seed": 5, "m_x": 200, "m_prime": 150, "source": None,
    }))
    code, doc = run_cli(capsys, "run-ppp", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert doc["config"]["source"]["p"] == pytest.approx(P_STAR)
    code, payload = run_cli(capsys, "sweep", "--config", str(cfg_path),
                            "--out", str(tmp_path / "grid.csv"))
    assert code == EXIT_OK
    assert payload["rows"] == 1
    # estimate and pm-ensemble are given only the entries they read
    cfg_path.write_text(json.dumps({"seed": 5, "m_x": 200, "m_prime": 150, "source": None}))
    code, payload = run_cli(capsys, "estimate", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert payload["source"]["p"] == pytest.approx(P_STAR)
    cfg_path.write_text(json.dumps({"source": None}))
    code, payload = run_cli(capsys, "pm-ensemble", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert payload["default_input"] is True


def test_run_pm_via_cli(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 100000, "seed": 1, "s": 1, "delta": 0.5, "m_x": 2000,
        "source": {"p": P_STAR, "kappa": 0.0},
    }))
    code, doc = run_cli(capsys, "run-pm", "--config", str(cfg_path))
    assert code == EXIT_OK
    assert doc["protocol"] == "pm"
    assert doc["abort"] is False


def test_pm_ensemble_default_input_matches_six_state(capsys):
    code, payload = run_cli(capsys, "pm-ensemble")
    assert code == EXIT_OK
    assert payload["default_input"] is True
    assert payload["six_state_ok"] is True
    assert payload["six_state_max_deviation"] <= 1e-12
    assert len(payload["observables"]) == 16
    for outcomes in payload["observables"].values():
        assert sum(o["prob"] for o in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_pm_ensemble_with_explicit_source(capsys):
    code, payload = run_cli(capsys, "pm-ensemble", "--p", "0.3", "--kappa", "0.05")
    assert code == EXIT_OK
    assert payload["default_input"] is False
    assert "six_state_ok" not in payload


def test_sweep_writes_the_documented_csv(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "protocol": "ppp", "n": 2000, "m_x": 200, "m_prime": 150,
        "p_values": [P_STAR], "kappa_values": [0.0, 0.01], "seeds": [0, 1, 2],
    }))
    out_path = tmp_path / "grid.csv"
    protocol._setup.cache_clear()
    code, payload = run_cli(
        capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert payload["rows"] == 6
    info = protocol._setup.cache_info()  # set-up once per grid point, not per seed
    assert (info.misses, info.hits) == (2, 4)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "seed,p,kappa,eps_x_hat,eps_z_hat,rate,abort"
    assert len(lines) == 7
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert {row["seed"] for row in rows} == {"0", "1", "2"}
    for row in rows:
        assert row["abort"] in ("0", "1")


def test_sweep_reads_p_and_kappa_from_grid_then_top_level_then_source(tmp_path, capsys):
    base = {"n": 2000, "m_x": 200, "m_prime": 150, "seeds": [0],
            "source": {"p": 0.5, "kappa": 0.01}}
    cfg_path, out_path = tmp_path / "sweep.json", tmp_path / "grid.csv"
    for extra, want in [
        ({}, ("0.5", "0.01")),
        ({"p": 0.4, "kappa": 0.02}, ("0.4", "0.02")),
        ({"p": 0.4, "p_values": [0.3], "kappa_values": [0.03]}, ("0.3", "0.03")),
        ({"source": {}}, (repr(P_STAR), "0.0")),
    ]:
        cfg_path.write_text(json.dumps({**base, **extra}))
        code, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
        assert code == EXIT_OK
        (row,) = csv.DictReader(out_path.read_text().splitlines())
        assert (row["p"], row["kappa"]) == want, extra
    # the row of the source-only config is the run-ppp run of that config
    cfg_path.write_text(json.dumps({**{k: v for k, v in base.items() if k != "seeds"}, "seed": 0}))
    code, doc = run_cli(capsys, "run-ppp", "--config", str(cfg_path))
    assert code == EXIT_OK
    cfg_path.write_text(json.dumps(base))
    run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    (row,) = csv.DictReader(out_path.read_text().splitlines())
    assert (row["p"], row["kappa"]) == ("0.5", "0.01")
    assert float(row["eps_x_hat"]) == doc["estimates"]["eps_x_hat"]
    assert float(row["eps_z_hat"]) == doc["estimates"]["eps_z_hat"]
    assert int(row["abort"]) == doc["abort"]


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    cfg = {
        "protocol": "ppp", "n": 2000, "m_x": 200, "m_prime": 150,
        "p_values": [P_STAR, 0.5], "kappa_values": [0.0], "seeds": [0, 1, 2, 3],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(serial)]) == EXIT_OK
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(parallel),
                 "--threads", "2"]) == EXIT_OK
    capsys.readouterr()
    assert serial.read_text() == parallel.read_text()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


# workers: at most threads, runs and cores, since the pool starts all of them at once
@pytest.mark.parametrize("threads, cores, workers", [
    (100000, 8, 6), (100000, 2, 2), (3, 8, 3), (2, None, None), (1, 8, None),
])
def test_sweep_pool_starts_no_more_workers_than_runs_or_cores(
    tmp_path, capsys, monkeypatch, threads, cores, workers
):
    cfg_path = tmp_path / "sweep.json"
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pool.csv"
    cfg_path.write_text(json.dumps({**SWEEP, "p_values": [P_STAR, 0.5], "seeds": [0, 1, 2]}))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(serial)]) == EXIT_OK
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(pooled),
                 "--threads", str(threads)]) == EXIT_OK
    capsys.readouterr()
    assert _SerialPool.sizes == ([] if workers is None else [workers])
    assert pooled.read_text() == serial.read_text()


def test_sweep_usage_errors(tmp_path, capsys):
    assert main(["sweep"]) == EXIT_USAGE
    capsys.readouterr()
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"protocol": "ppp", "n": 2000, "seeds": [0]}))
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE  # no --out
    capsys.readouterr()
    # a bad field is reported as in run-ppp, before any run starts
    cfg_path.write_text(json.dumps({
        "protocol": "ppp", "n": 2000, "m_x": 200, "m_prime": 150, "seeds": [0], "s": None,
    }))
    out_path = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE
    assert not out_path.exists()
    capsys.readouterr()
    # so are null seeds and grid values, an empty axis, and bad settings behind one
    for bad in ({"seeds": None}, {"seeds": [None]}, {"p_values": [None]},
                {"kappa_values": [None]}, {"seeds": []}, {"p_values": []}, {"kappa_values": []},
                {"p_values": [], "threads": "two", "candidates": "zzz", "delta": "x"},
                {"threads": "two", "candidates": "zzz", "delta": "x"}):
        cfg_path.write_text(json.dumps({
            "protocol": "ppp", "n": 2000, "m_x": 200, "m_prime": 150, "seeds": [0], **bad,
        }))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE, bad
        assert not out_path.exists()
        capsys.readouterr()


RUN_BUDGETS = {"m_x": 200, "m_prime": 150}
SWEEP = {"n": 2000, **RUN_BUDGETS, "seeds": [0, 1]}
BASE_SWEEP = {"n": 2000, **RUN_BUDGETS, "seed": 0, "n_seeds": 2}


# the entries the CLI reads itself; ProtocolConfig's own entries keep its rule
NULL_CASES = [
    ("estimate --seed 3", {}, "m_x"),
    ("estimate --seed 3", {}, "m_prime"),
    ("estimate --seed 3", {}, "candidates"),
    ("run-ppp --seed 5", RUN_BUDGETS, "n"),
    ("run-pm --seed 5", RUN_BUDGETS, "n"),
    ("sweep", SWEEP, "protocol"),
    ("sweep", SWEEP, "p_values"),
    ("sweep", SWEEP, "kappa_values"),
    ("sweep", SWEEP, "p"),
    ("sweep", SWEEP, "kappa"),
    ("sweep", {k: v for k, v in SWEEP.items() if k != "n"}, "n"),
    ("sweep", BASE_SWEEP, "seeds"),
    ("sweep", {k: v for k, v in BASE_SWEEP.items() if k != "n_seeds"}, "n_seeds"),
]


@pytest.mark.parametrize("command, cfg, key", NULL_CASES,
                         ids=[f"{command.split()[0]}-{key}" for command, _, key in NULL_CASES])
def test_null_entries_read_by_the_cli_are_unset(tmp_path, capsys, caplog, command, cfg, key):
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out"
    outcomes = []
    for entries in (cfg, {**cfg, key: None}):
        cfg_path.write_text(json.dumps(entries))
        caplog.clear()
        code = main([*command.split(), "--config", str(cfg_path), "--out", str(out_path)])
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        outcomes.append((code, capsys.readouterr().out, written, errors))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("command, cfg, message", [
    ("run-ppp", {"candidates": ["foo"]}, "bad protocol config"),
    ("run-ppp", {"source": {"kind": "pbit", "ancilla": "bar"}}, "bad protocol config"),
    ("run-pm", {"source": {"kind": "rho_h", "twisting": "baz"}}, "bad protocol config"),
    ("sweep", {"candidates": ["foo"]}, "bad protocol config"),
    ("sweep", {"source": {"kind": "pbit", "ancilla": "bar"}}, "bad protocol config"),
    ("estimate", {"candidates": ["foo"]}, "bad estimate config"),
    ("estimate", {"source": {"kind": "pbit", "ancilla": "bar"}}, "bad estimate config"),
    ("pm-ensemble", {"source": {"kind": "pbit", "ancilla": "bar"}}, "bad pm-ensemble config"),
    # candidates is a JSON list of names: a string is not split, an object not keyed
    ("run-ppp", {"candidates": "identity"}, "list of twisting names"),
    ("run-pm", {"candidates": {"u_h": 1}}, "list of twisting names"),
    ("sweep", {"candidates": "identity"}, "list of twisting names"),
    ("sweep", {"candidates": {"u_h": 1}}, "list of twisting names"),
    ("estimate", {"candidates": "identity"}, "list of twisting names"),
    ("estimate", {"candidates": {"u_h": 1}}, "list of twisting names"),
])
def test_unknown_names_are_config_errors(tmp_path, capsys, caplog, command, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n": 2000, "seed": 0, "m_x": 200, "m_prime": 150, "seeds": [0], **cfg}
    ))
    out_path = tmp_path / "grid.csv"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out_path.exists()
    assert message in caplog.text


def test_bad_config_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-example", "--config", str(bad)]) == EXIT_USAGE
    capsys.readouterr()
    bad.write_text(json.dumps({"n": 2000, "seed": 0, "source": 5}))
    for command in ("run-ppp", "pm-ensemble"):
        assert main([command, "--config", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


# values outside what a parameter means are refused when the settings are read
@pytest.mark.parametrize("argv", [
    "bounds --n 100000 --delta 2",
    "bounds --n 100000 --s 0",
    "bounds --n 100000 --delta nan",
    "bounds --n 1",
    "bounds --n 100000 --d 1",
    "solve-params --s 0",
    "solve-params --delta 1.5",
    "solve-params --dprime 0",
    "pm-ensemble --p 2",
    "pm-ensemble --kappa -1",
    "estimate --seed 1 --p 7",
    "run-ppp --n 100000 --seed 1 --delta 3",
    "run-pm --n 100000 --seed 1 --s 0",
    "verify-example --p 2",
    "run-ppp --n 100000 --seed -5",
    "run-pm --n 100000 --seed -2",
    "estimate --seed -5",
    # 16 s / delta^2 or d^4 d'^2 is no finite double
    "solve-params --delta 1e-160",
    "solve-params --delta 1e-170",
    "bounds --n 100000 --delta 1e-200",
    "run-ppp --n 2000 --seed 1 --delta 1e-170",
    "run-pm --n 2000 --seed 1 --delta 1e-310",
    pytest.param(f"solve-params --s {10**308}", id="solve-params --s 10^308"),
    pytest.param(f"solve-params --s {10**400}", id="solve-params --s 10^400"),
    pytest.param(f"solve-params --n 100000 --d {10**80}", id="solve-params --n 100000 --d 10^80"),
    pytest.param(f"bounds --n 100000 --d {10**80}", id="bounds --n 100000 --d 10^80"),
    # the m' search would leave the double range
    pytest.param(f"solve-params --s {10**300}", id="solve-params --s 10^300"),
    pytest.param(f"solve-params --n 100000 --d {10**70}", id="solve-params --n 100000 --d 10^70"),
    pytest.param(f"bounds --n 100000 --d {10**70}", id="bounds --n 100000 --d 10^70"),
    pytest.param(f"bounds --n 100000 --s {10**300}", id="bounds --n 100000 --s 10^300"),
    pytest.param(f"run-ppp --n 2000 --seed 1 --s {10**300}", id="run-ppp --n 2000 --seed 1 --s 10^300"),
    # n is no finite double; in the second the solver's budget n - m_x - m_z is
    # one, but bounds' even split of n is not
    pytest.param(f"bounds --n {10**400}", id="bounds --n 10^400"),
    pytest.param(f"bounds --n {10**309} --s {5 * 10**97} --delta 1e-100",
                 id="bounds --n 10^309 --s 5*10^97 --delta 1e-100"),
    # pm's test-set size sqrt(n s) log2(n) / delta is no finite double
    pytest.param(f"run-pm --n 2000000000000 --seed 1 --s {10**297} --delta 0.5",
                 id="run-pm --n 2000000000000 --seed 1 --s 10^297 --delta 0.5"),
])
def test_out_of_range_values_are_usage_errors(capsys, caplog, argv):
    assert main(argv.split()) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert "bad " in caplog.text


def _null_paths(doc, path: str = "") -> list[str]:
    """The dotted paths of the nulls in a JSON document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _null_paths(v, f"{path}.{k}")]
    return [path] if doc is None else []


# inputs at the top of the solver's range that it answers: a document with m',
# and non-finite values only as null next to the bound's 'vacuous' flag
@pytest.mark.parametrize("argv", [
    pytest.param(f"bounds --n {10**300} --s {10**200}", id="bounds --n 10^300 --s 10^200"),
    pytest.param(f"solve-params --n {10**305}", id="solve-params --n 10^305"),
    # the solver's attempt stops at its budget; only bounds' even split meets the
    # post-selection product k (r + 1), far beyond 2^53
    pytest.param(f"bounds --n {10**150} --s {5 * 10**195}", id="bounds --n 10^150 --s 5*10^195"),
    # the least m', near 2.66e268, lies beyond 200 doublings of 2r
    pytest.param(f"solve-params --s {10**200} --delta 1e-30 --n 100000",
                 id="solve-params --s 10^200 --delta 1e-30 --n 100000"),
])
def test_solver_answers_at_the_top_of_its_range(capsys, caplog, argv):
    code, payload = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    solution = payload.get("solution") or payload["solver"]
    assert solution["m_prime"] is not None
    assert "unsatisfiable" not in solution["message"] + caplog.text
    nulls = _null_paths(payload)
    assert not nulls or payload["vacuous"] is True
    assert all(p in (".f", ".log2_f", ".insecurity") or p.startswith(".log2_terms.")
               for p in nulls)


def test_bounds_takes_the_solver_split_past_200_doublings_of_m_prime(capsys):
    # an even split of n = 10^90 gives a vacuous log2_f of about 18949
    code, payload = run_cli(capsys, "bounds", "--n", str(10**90), "--s", "40", "--delta", "1e-30")
    assert code == EXIT_OK
    assert payload["solver"]["feasible"] is True
    assert payload["params"]["m_z"] == payload["solver"]["m_z"]
    assert payload["log2_f"] == pytest.approx(-56.7078, abs=1e-4)


def _json_text(cfg: dict) -> str:
    """``cfg`` as JSON, an infinity written as 1e400, which JSON readers take as inf."""
    return json.dumps(cfg).replace("Infinity", "1e400")


@pytest.mark.parametrize("command, cfg", [
    ("sweep", {"seeds": [-1, 2]}),
    ("run-ppp", {"ec_block": 0}),
    ("run-ppp", {"ec_block": -2}),
    ("run-pm", {"ec_block": 0}),
    ("run-ppp", {"ec_block": 33}),
    ("run-pm", {"ec_block": 33}),
    ("run-ppp", {"beta_b": "x"}),
    ("run-ppp", {"beta_b": [1]}),
    ("run-ppp", {"beta_b": -1}),
    ("run-ppp", {"beta_b": True}),
    ("run-ppp", {"beta_b": 1e400}),
    ("run-pm", {"beta_b": 1e400}),
    ("run-ppp", {"beta_b": 1.5}),
    ("run-ppp", {"beta_b": 1e200}),
    ("sweep", {"threads": "two"}),
    ("run-ppp", {"threads": "two"}),
    ("run-pm", {"threads": 1.5}),
    ("run-pm", {"threads": True}),
    ("sweep", {"threads": 0}),
    ("sweep", {"threads": -5}),
    ("run-ppp", {"threads": 0}),
    ("run-pm", {"m_x": 0}),
    ("run-pm", {"m_x": -5}),
    ("run-pm", {"m_prime": -3}),
    ("run-ppp", {"m_x": 0}),
    ("sweep", {"protocol": "pm", "m_x": 0}),
    # a run addresses fewer than 2^60 copies
    ("run-ppp", {"n": 2e18}),
    ("run-ppp", {"n": 1e40}),
    ("run-pm", {"n": 1e40}),
    ("sweep", {"n": 1e40}),
], ids=lambda v: _json_text(v) if isinstance(v, dict) else v)
def test_out_of_range_config_values_are_usage_errors(tmp_path, capsys, caplog, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_json_text(
        {"n": 2000, "seed": 0, "m_x": 200, "m_prime": 150, "source": NOISY_PBIT, **cfg}))
    out_path = tmp_path / "grid.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out_path.exists()
    assert "bad protocol config" in caplog.text


# an integer setting takes an int or an integral float such as 2e3; a fraction or
# a bool is refused, not truncated
@pytest.mark.parametrize("command, cfg", [
    ("run-ppp", {"n": 2000.7, "seed": 1.9, "s": 1.5, "m_x": 10.5, "m_prime": 10}),
    ("run-ppp", {"n": 2000.7}),
    ("run-ppp", {"seed": 1.9}),
    ("run-pm", {"s": 1.5}),
    ("run-ppp", {"m_x": 10.5}),
    ("run-pm", {"m_prime": 150.5}),
    ("run-ppp", {"ec_block": 16.5}),
    ("run-ppp", {"n": True}),
    ("run-pm", {"seed": True}),
    ("bounds", {"n": 100000.9, "s": 40.5}),
    ("bounds", {"s": 40.5}),
    ("bounds", {"m_z": 10.5}),
    ("bounds", {"m_x": True}),
    ("solve-params", {"d": 2.5}),
    ("solve-params", {"d_prime": True}),
    ("estimate", {"m_x": 10.5}),
    ("estimate", {"seed": 3.5}),
    ("sweep", {"seeds": [1.5]}),
    ("sweep", {"n_seeds": 2.5}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_fractional_or_bool_integers_are_usage_errors(tmp_path, capsys, caplog, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n": 2000, "seed": 0, "m_x": 200, "m_prime": 150, "source": NOISY_PBIT, **cfg}))
    out_path = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out_path.exists()
    assert "need an integer" in caplog.text


# a real setting takes an int or a float; a bool or a string is refused, not converted
@pytest.mark.parametrize("command, cfg", [
    ("run-ppp", {"delta": "0.05"}),
    ("run-pm", {"delta": True}),
    ("bounds", {"delta": "0.05"}),
    ("solve-params", {"delta": "0.05"}),
    ("run-ppp", {"source": {"p": True}}),
    ("run-pm", {"source": {"kind": "rho_h", "kappa": "0.01"}}),
    ("estimate", {"source": {"p": "0.5"}}),
    ("pm-ensemble", {"source": {"p": True}}),
    ("run-ppp", {"source": {**NOISY_PBIT, "noise": {"eps_x": True, "eps_z": 0.01}}}),
    ("run-pm", {"source": {**NOISY_PBIT, "noise": {"eps_x": 0.02, "eps_z": "0.01"}}}),
    ("run-ppp", {"eve": {"eps_x": True, "eps_z": 0.0}}),
    ("run-pm", {"eve": {"eps_x": 0.0, "eps_z": "0.01"}}),
    ("sweep", {"p_values": [True]}),
    ("sweep", {"kappa_values": ["0.01"]}),
    ("verify-example", {"p": True}),
    ("verify-example", {"kappa": "0"}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_bool_or_text_reals_are_usage_errors(tmp_path, capsys, caplog, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n": 2000, "seed": 0, "m_x": 200, "m_prime": 150, "source": NOISY_PBIT, **cfg}))
    out_path = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out_path.exists()
    assert "need a real number" in caplog.text


@pytest.mark.parametrize("command, ints, floats", [
    ("run-ppp", {"n": 2000, "seed": 1, "m_x": 200, "m_prime": 150, "source": NOISY_PBIT},
     {"n": 2e3, "seed": 1.0, "m_x": 200.0, "m_prime": 1.5e2, "source": NOISY_PBIT}),
    ("bounds", {"n": 100000, "s": 40, "m_x": 1000}, {"n": 1e5, "s": 40.0, "m_x": 1e3}),
], ids=["run-ppp", "bounds"])
def test_integral_floats_read_as_integers(tmp_path, capsys, command, ints, floats):
    docs = []
    for cfg in (ints, floats):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("argv, cfg, message", [
    ("bounds", {}, "bounds needs --n"),
    ("bounds --n 2", {}, "too small to allocate"),
    ("sweep", {"protocol": "qkd", "n": 2000, "seeds": [0]}, "unknown protocol"),
    ("run-ppp --n 2000 --seed 1", [{"n": 2000}], "must hold a JSON object"),
    # a missing field is named with the entry that misses it
    ("run-ppp --n 2000 --seed 1", {"eve": {"eps_x": 0.3}},
     "bad protocol config: eve: missing 'eps_z'"),
    ("run-pm --n 2000 --seed 1", {"source": {"kind": "pbit", "noise": {"eps_x": 0.3}}},
     "bad protocol config: source: noise: missing 'eps_z'"),
    # an entry that nothing reads is refused, with the closest key it may have meant
    ("run-ppp --n 2000 --seed 1", {"source": {"kind": "rho_h", "kapa": 0.2}, "eev": 0.3},
     "source: kapa: unknown key (did you mean 'kappa'?); eev: unknown key (did you mean 'eve'?)"),
    ("bounds --n 100000", {"mx": 1000}, "bad bounds config: mx: unknown key (did you mean 'm_x'?)"),
    ("pm-ensemble --p 0.3", {"source": {"kind": "pbit"}}, "source: a pbit source reads no p"),
    ("estimate --seed 1", {"source": {"noise": {"eps_x": 0.1, "eps_z": 0.0}}},
     "source: a rho_h source reads no noise"),
    ("estimate --seed 1", {"p": 0.3}, "bad estimate config: p: unknown key"),
    # a misspelt grid key is hinted from the grid's keys and the run's fields together
    ("sweep", {"n": 2000, "seeds": [0], "p_valuse": [0.3]}, "unknown key (did you mean 'p_values'?)"),
    # pm-ensemble prepares from the noiseless source state, so a source noise is not read
    ("pm-ensemble", {"source": {"kind": "pbit", "noise": {"eps_x": 0.3, "eps_z": 0.2}}},
     "source: pm-ensemble reads no noise"),
    # an allocation must leave a key copy
    ("bounds", {"n": 1000, "m_x": 5000, "m_z": 100},
     "estimation budget m_x + m_z = 5100 leaves no key copies out of n = 1000"),
])
def test_usage_errors_write_nothing(tmp_path, capsys, caplog, argv, cfg, message):
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert main([*argv.split(), "--config", str(cfg_path), "--out", str(out_path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not out_path.exists()
    assert message in caplog.text


# an --out that cannot be written is refused before the command runs
@pytest.mark.parametrize("command, cfg", [
    ("bounds", {"n": 100000}),
    ("sweep", {"n": 2000, "seeds": [0], "m_x": 200, "m_prime": 150}),
])
@pytest.mark.parametrize("where", ["missing directory", "a file's child", "a directory"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, caplog, monkeypatch,
                                                   command, cfg, where):
    monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(run=None))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = {"missing directory": tmp_path / "missing" / "o.csv",
           "a file's child": cfg_path / "o.csv", "a directory": tmp_path}[where]
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert f"cannot write --out {str(out)!r}" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# each solver command validates and answers with the attempts its answer needs
@pytest.mark.parametrize("argv", [
    "bounds --n 100000",
    "solve-params --d 1099511627776",  # the cap's attempt already shows no n is feasible
])
def test_solver_commands_make_one_attempt(monkeypatch, capsys, argv):
    made, attempt = [], bounds._attempt
    monkeypatch.setattr(bounds, "_attempt", lambda *args: made.append(args) or attempt(*args))
    assert main(argv.split()) == EXIT_OK
    capsys.readouterr()
    assert len(made) == 1


def test_bounds_config_values_are_usage_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for bad in ({"m_x": "abc"}, {"delta": "0.05"}, {"beta_b": -1}, {"beta_b": "x"}, {"beta_b": [1]},
                {"beta_b": True}, {"beta_b": 1e400}, {"beta_b": 1.5}, {"beta_b": 1e200}):
        cfg_path.write_text(_json_text({"n": 100000, **bad}))
        assert main(["bounds", "--config", str(cfg_path)]) == EXIT_USAGE, bad
        assert capsys.readouterr().out == ""


def test_internal_errors_are_not_usage_errors(monkeypatch):
    def broken(config):
        raise ValueError("internal")

    monkeypatch.setattr(protocol, "run_ppp", broken)  # cmd_run looks it up there
    with pytest.raises(ValueError, match="internal"):
        main(["run-ppp", "--n", "2000", "--seed", "1"])


# sha256[:16] of stdout; the CLI documents are pinned like the run transcripts
@pytest.mark.parametrize("argv, digest", [
    (["verify-example"], "c8969df4ed864ec1"),
    (["bounds", "--n", "100000"], "ce70c9adabb991e3"),  # four non-finite values as null
    (["bounds", "--n", "1000000000000"], "b000f998c8c11301"),
    # the post-selection quotient k (r + 1) / (2 (n + k)) is taken on ints: k (r + 1)
    # exceeds 2^53 here, so the term moved in its low bits (closer to mpmath)
    (["solve-params"], "34c093b1ded01b12"),
    (["solve-params", "--n", "1000000"], "4384bb843c9bc040"),
    (["estimate", "--seed", "3"], "9c11cac70e27a72d"),
    (["estimate", "--seed", "3", "--p", "0.5", "--kappa", "0.01"], "df593d3b7dc845ee"),
    (["pm-ensemble"], "60657e27a10a281d"),
    (["pm-ensemble", "--p", "0.5"], "1c60e1a414e0ce3a"),
    (["solve-params", "--d", "1099511627776"], "179e4a8581107dc4"),  # no feasible n below the cap
    (["verify-example", "--kappa", "0.01"], "1cec3b3f0fbe2e80"),  # the channel's kappa > 0 branches
])
def test_reference_cli_documents_are_byte_identical(capsys, argv, digest):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_reference_failing_check_document_is_byte_identical(capsys):
    # rho_h(0.3, 0.01) is not PPT: the document reports that check failing, and the
    # binding channel's kappa > 0 branches still reproduce the state
    assert main(["verify-example", "--p", "0.3", "--kappa", "0.01"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "7eab3910b7c6114d"


def test_benchmark_inputs_pass_the_config_readers(tmp_path, monkeypatch, capsys):
    # every config and argv the benchmark generates, read as its ops read it: a
    # refusal here would fail every op of that workload
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    in_process = [workload(0, tmp_path, {}).next_op(0)
                  for workload in (workloads.PppLarge, workloads.KeyedPbit)]
    cold = workloads.CliCold(0, tmp_path, {})
    ops = [twin for op in in_process for twin in workloads.cli_twins(op)]
    ops += [cold.next_op(i) for i in range(cold.cycle)]
    assert [op.label for op in ops] == [
        "run-ppp", "run-ppp", "run-pm", "verify-example", "solve-params", "bounds", "estimate",
        "run-ppp", "run-ppp eve", "run-pm", "sweep",
    ]
    for op in in_process:
        for _, cfg in op.runs:
            protocol.ProtocolConfig.from_dict(cfg)  # the in-process ops' reader
    # the sweep's grid is read and checked in full; its runs are not made
    monkeypatch.setattr(cli, "_sweep_row", lambda task: dict.fromkeys(
        ["seed", "p", "kappa", "eps_x_hat", "eps_z_hat", "rate", "abort"]))
    for op in ops:
        for name, text in op.files.items():
            (tmp_path / name).write_text(text)
        command = cli._COMMANDS[op.argv[0]]
        settings = cli._settings(_build_parser().parse_args(op.argv), command)
        if op.argv[0] == "sweep":
            assert main(op.argv) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["rows"] == workloads.SWEEP_RUNS
        elif command.protocol:
            protocol.ProtocolConfig.from_dict(settings)


def test_benchmark_checker_agrees_with_the_exact_model(tmp_path, monkeypatch):
    # the benchmark holds every estimate against Checker.exact_eps_x, which reads the
    # library's states and observables directly: it must give the model's exact rate
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    checker = importlib.import_module("checks").Checker()
    for workload in (workloads.PppLarge, workloads.KeyedPbit):
        for _, cfg in workload(0, tmp_path, {}).next_op(0).runs:
            source = protocol.ProtocolConfig.from_dict(cfg).source
            model = protocol.model_estimates(source, 4000, 400)["eps_x_hat"]["mean"]
            assert abs(checker.exact_eps_x(cfg) - model) <= 1e-12, cfg
