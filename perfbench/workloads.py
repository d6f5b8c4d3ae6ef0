"""The benchmark's workloads: op streams derived from a workload seed.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  The workload seed drives one ``random.Random``
that hands every op its own seed; the program sees only the generated
configs.

* ``ppp_large``  -- in-process ``run_ppp`` on rho_h(p*, 0.001), n = 10^7.
* ``keyed_pbit`` -- in-process; one op is a ``run_ppp`` and a ``run_pm`` on
  the noisy keyed pbit source at n = 2*10^5, both with the op's seed.
* ``cli_cold``   -- one fresh ``python -m pbitqkd.cli`` child per op,
  cycling through eight subcommands; a run measures whole cycles.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import pbitqkd.protocol as protocol
from pbitqkd import P_STAR, ProtocolConfig

from checks import Checker
from spans import Tracer

#: A CLI child that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 60

SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"

PPP_LARGE = {
    "n": 10**7, "s": 40, "delta": 0.05, "m_x": 4000, "m_prime": 10600,
    "source": {"kind": "rho_h", "p": P_STAR, "kappa": 0.001},
}
PBIT_SOURCE = {
    "kind": "pbit", "twisting": "u_h", "ancilla": "comp00",
    "noise": {"eps_x": 0.02, "eps_z": 0.01},
}
KEYED_PPP = {"n": 200_000, "s": 40, "delta": 0.05, "m_x": 4000, "m_prime": 4000, "source": PBIT_SOURCE}
KEYED_PM = {"n": 200_000, "s": 1, "delta": 0.5, "m_x": 2000, "source": PBIT_SOURCE}
# the desk-scale shapes of tests/test_protocol.py
DESK_PPP = {
    "n": 100_000, "s": 40, "delta": 0.05, "m_x": 4000, "m_prime": 10600,
    "source": {"p": P_STAR, "kappa": 0.001},
}
DESK_PM = {"n": 100_000, "s": 1, "delta": 0.5, "m_x": 2000, "source": {"p": P_STAR, "kappa": 0.0}}
SWEEP_RUNS = 40
SWEEP = {
    "protocol": "ppp", "n": 20_000, "m_x": 1000, "m_prime": 1000,
    "p": P_STAR, "kappa": 0.001, "source": {"kind": "rho_h"},
}
# `estimate` with no config: rho_h(p*, 0) and the CLI's m_x = 1024
ESTIMATE_CONFIG = {"n": 1024, "source": {"kind": "rho_h", "p": P_STAR, "kappa": 0.0}}

RUNNERS = {"ppp": "run_ppp", "pm": "run_pm"}


@dataclass
class Op:
    """One op: in-process protocol runs, or one CLI child."""

    label: str
    copies: int
    runs: list = field(default_factory=list)  # in-process: (flow, config) pairs
    argv: list = field(default_factory=list)  # child: arguments after `-m pbitqkd.cli`
    files: dict = field(default_factory=dict)  # child: work-dir files written first
    expect: dict = field(default_factory=dict)  # child: what the checker holds it to


@dataclass
class OpResult:
    wall: float
    outputs: list[str]
    code: int | None = None
    error: str | None = None
    traced: bool = False
    problems: list[str] = field(default_factory=list)


def run_child(op: Op, workdir: Path, env: dict, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
    """Run one CLI op as a fresh child; traced children run under spans.py."""
    for name, text in op.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    spans_file = workdir / "spans.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "pbitqkd.cli", *op.argv]
    else:
        spans_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(SPANS_SCRIPT), str(spans_file), *op.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return OpResult(time.perf_counter() - t0, [], error=f"timed out after {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    outputs = [proc.stdout]
    if op.argv[0] == "sweep":
        grid = workdir / "grid.csv"
        outputs.append(grid.read_text(encoding="utf-8") if grid.exists() else "")
    result = OpResult(wall, outputs, code=proc.returncode, traced=tracer is not None)
    if tracer is not None:
        if spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")), op_id)
        else:
            result.error = "traced child wrote no spans"
    if proc.returncode != 0:
        result.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return result


def cli_twins(op: Op) -> list[Op]:
    """The CLI ops that run the same protocol configs as an in-process op."""
    return [
        Op(f"run-{flow}", cfg["n"], argv=[f"run-{flow}", "--config", "run.json"],
           files={"run.json": json.dumps(cfg)}, expect={"config": cfg})
        for flow, cfg in op.runs
    ]


class Workload:
    name = ""
    cycle = 1  # a run measures whole multiples of this many ops
    rerun_index = 0  # the op an untraced run repeats for criterion 13; it takes a seed

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = env  # child environment; PYTHONPATH reaches the package source
        self.checker = Checker()

    def op_seed(self) -> int:
        return self.rng.randrange(2**31)

    def next_op(self, index: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
        raise NotImplementedError

    def check(self, op: Op, result: OpResult) -> list[str]:
        raise NotImplementedError


class InProcess(Workload):
    def execute(self, op, tracer=None, op_id=0):
        configs = [(RUNNERS[flow], ProtocolConfig.from_dict(cfg)) for flow, cfg in op.runs]
        scope = nullcontext() if tracer is None else tracer.traced_op([protocol], op_id)
        with scope:
            t0 = time.perf_counter()
            try:
                outputs = [getattr(protocol, fn)(cfg).to_json() for fn, cfg in configs]
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
                return OpResult(time.perf_counter() - t0, [], error=error, traced=tracer is not None)
            wall = time.perf_counter() - t0
        return OpResult(wall, outputs, traced=tracer is not None)

    def check(self, op, result):
        if result.error:
            return [f"raised {result.error}"]
        problems = []
        for (flow, cfg), text in zip(op.runs, result.outputs):
            problems += self.checker.transcript_problems(text, cfg, cfg.get("eve") is not None)
        return problems


class PppLarge(InProcess):
    name = "ppp_large"

    def next_op(self, index):
        cfg = {**PPP_LARGE, "seed": self.op_seed()}
        return Op("ppp", cfg["n"], runs=[("ppp", cfg)])


class KeyedPbit(InProcess):
    name = "keyed_pbit"

    def next_op(self, index):
        seed = self.op_seed()
        ppp = {**KEYED_PPP, "seed": seed}
        pm = {**KEYED_PM, "seed": seed}
        return Op("ppp+pm", ppp["n"] + pm["n"], runs=[("ppp", ppp), ("pm", pm)])


class CliCold(Workload):
    name = "cli_cold"
    cycle = 8
    rerun_index = 4  # run-ppp, the first op of a cycle that runs the protocol on a seed

    def next_op(self, index):
        kind = index % self.cycle
        if kind == 0:
            return Op("verify-example", 0, argv=["verify-example"])
        if kind == 1:
            return Op("solve-params", 0, argv=["solve-params", "--s", "40", "--delta", "0.05"])
        if kind == 2:
            return Op("bounds", 0, argv=["bounds", "--n", "100000"], expect={"n": 100000})
        if kind == 3:
            return Op("estimate", 0, argv=["estimate", "--seed", str(self.op_seed())],
                      expect={"config": ESTIMATE_CONFIG})
        if kind in (4, 5):
            cfg = {**DESK_PPP, "seed": self.op_seed()}
            if kind == 5:
                cfg["eve"] = 0.3
            return Op("run-ppp" if kind == 4 else "run-ppp eve", cfg["n"],
                      argv=["run-ppp", "--config", "run.json"], files={"run.json": json.dumps(cfg)},
                      expect={"config": cfg, "abort": kind == 5})
        if kind == 6:
            cfg = {**DESK_PM, "seed": self.op_seed()}
            return Op("run-pm", cfg["n"], argv=["run-pm", "--config", "run.json"],
                      files={"run.json": json.dumps(cfg)}, expect={"config": cfg})
        base = self.op_seed()
        grid = {**SWEEP, "seeds": list(range(base, base + SWEEP_RUNS))}
        return Op("sweep", SWEEP["n"] * SWEEP_RUNS,
                  argv=["sweep", "--config", "sweep.json", "--out", "grid.csv"],
                  files={"sweep.json": json.dumps(grid)}, expect={"grid": grid})

    def execute(self, op, tracer=None, op_id=0):
        return run_child(op, self.workdir, self.env, tracer, op_id)

    def check(self, op, result):
        if result.code is None:
            return [f"raised {result.error}"]
        command = op.argv[0]
        expect = dict(op.expect)
        if command == "sweep":
            expect["csv"] = result.outputs[1]
        problems = self.checker.cli_problems(command, result.code, result.outputs[0], expect)
        if result.error and not problems:
            problems.append(result.error)
        return problems


WORKLOADS = {cls.name: cls for cls in (PppLarge, KeyedPbit, CliCold)}
