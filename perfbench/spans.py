"""Span recorder for the traced benchmark run.

The recorder rebinds, from outside the package, the public names that
``pbitqkd.protocol`` and ``pbitqkd.cli`` call, plus two methods, with wrappers
that record one span per call: layer name, start, end, parent span, op id and
the rise of the process's peak RSS (``ru_maxrss``) during the call.  Some
wrappers also keep counts taken from the call's arguments and result.  Spans
stay in memory; :func:`layer_metrics` turns them into the per-layer metrics.
Nothing under ``src/`` is edited, and :meth:`Tracer.installed` restores the
original objects on exit.

Run as a script, this file is a traced stand-in for ``python -m pbitqkd.cli``::

    python3 perfbench/spans.py SPANS.json run-ppp --config cfg.json

It runs the CLI command with the recorder installed and writes the spans to
SPANS.json after the command returns.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager

import pbitqkd.protocol
from pbitqkd.channels import PauliNoiseModel
from pbitqkd.states import DensityState


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_counts(args, kwargs, transcript) -> dict:
    config = args[0] if args else kwargs["config"]
    return {
        "n": config.n,
        "abort": bool(transcript.abort),
        "raw_len": int(transcript.key.get("raw_len", 0)),
        "final_len": int(transcript.key.get("final_len", 0)),
    }


def _ec_counts(args, kwargs, result) -> dict:
    stats = result[1]
    return {
        "in_bits": len(args[0]),
        "blocks": stats["blocks"],
        "syndrome_bits": stats["syndrome_bits"],
        "residual": stats["residual_disagreements"],
    }


def _pa_counts(args, kwargs, result) -> dict:
    return {"in_bits": len(args[0]) if len(result) else 0}


# (layer, name, counts) for every module-level name rebound in protocol and cli
FUNCTIONS = [
    ("protocol.run", "run_ppp", _run_counts),
    ("protocol.run", "run_pm", _run_counts),
    ("ecpa.error_correct", "error_correct", _ec_counts),
    ("ecpa.toeplitz", "toeplitz_seed", None),
    ("ecpa.toeplitz", "toeplitz_apply", _pa_counts),
    ("estimation.table", "joint_outcome_table", None),
    ("estimation.decompose", "decompose_two_local", None),
    ("estimation.estimate", "estimate_eps_z_locc", None),
    ("twist.gamma_x", "gamma_x", None),
    ("bounds.security", "protocol_failure_bound", None),
    ("bounds.security", "composable_insecurity", None),
    ("bounds.security", "relaxation_budget", None),
    ("bounds.choose_params", "choose_params", None),
    ("states.base_state", "rho_h", None),
    ("states.base_state", "make_pdit", None),
    ("channels", "pauli_op", None),
]


# (layer, class, name) for every method rebound on its class
METHODS = [
    ("channels", PauliNoiseModel, "sample_pattern"),
    ("states.conjugate", DensityState, "conjugate_by"),
]


class Tracer:
    """In-memory span list; ``op`` is stamped on every span opened."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        rss0 = maxrss_mb()
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_mb"] = maxrss_mb() - rss0
            self._open.pop()

    def wrap(self, layer: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec.update(counts(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Rebind the traced names in ``modules`` and the traced methods."""
        saved = []
        for module in modules:
            for layer, name, counts in FUNCTIONS:
                if hasattr(module, name):
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, self.wrap(layer, getattr(module, name), counts))
        for layer, cls, name in METHODS:
            saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, self.wrap(layer, cls.__dict__[name]))
        try:
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    @contextmanager
    def traced_op(self, modules, op_id: int):
        """Trace one in-process op: rebind ``modules`` and open its root span."""
        self.op = op_id
        with self.installed(modules), self.span("op"):
            yield

    def adopt(self, spans: list[dict], op: int) -> None:
        """Append spans recorded by a traced child process under op id ``op``."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + base, op=op)
            if rec["parent"] is not None:
                rec["parent"] += base
            self.spans.append(rec)


def _child_time(spans: list[dict]) -> dict[int, float]:
    """Total duration of each span's direct children, by span id."""
    out: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            out[rec["parent"]] = out.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
    return out


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Times and per-op counts are means per traced op; ratios are taken over
    the calls they describe.
    """
    by_layer: dict[str, list[dict]] = {}
    for rec in spans:
        by_layer.setdefault(rec["name"], []).append(rec)
    child_time = _child_time(spans)

    def per_op(layer: str, key: str | None = None) -> float:
        recs = by_layer.get(layer, [])
        total = sum((r["end"] - r["start"]) if key is None else r.get(key, 0) for r in recs)
        return total / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    all_runs = by_layer.get("protocol.run", [])
    # a call that raised has no counts, so only finished calls enter the counts
    runs = [r for r in all_runs if "abort" in r]
    kept = [r for r in runs if not r["abort"]]
    ecs = [r for r in by_layer.get("ecpa.error_correct", []) if "blocks" in r]
    return {
        "protocol.run_s": per_op("protocol.run"),
        "protocol.self_s": sum(r["end"] - r["start"] - child_time.get(r["id"], 0.0) for r in all_runs) / ops,
        "protocol.rss_growth_mb": max((r["rss_mb"] for r in all_runs), default=0.0),
        "protocol.abort_ratio": ratio(sum(r["abort"] for r in runs), len(runs)),
        "protocol.key_fraction": ratio(sum(r["raw_len"] for r in runs), sum(r["n"] for r in runs)),
        "ecpa.error_correct_s": per_op("ecpa.error_correct"),
        "ecpa.ec_blocks": per_op("ecpa.error_correct", "blocks"),
        "ecpa.syndrome_ratio": ratio(sum(r["syndrome_bits"] for r in ecs), sum(r["in_bits"] for r in ecs)),
        "ecpa.residual_errors": per_op("ecpa.error_correct", "residual"),
        "ecpa.toeplitz_s": per_op("ecpa.toeplitz"),
        "ecpa.pa_in_bits": per_op("ecpa.toeplitz", "in_bits"),
        "ecpa.key_yield": ratio(sum(r["final_len"] for r in kept), sum(r["raw_len"] for r in kept)),
        "estimation.decompose_s": per_op("estimation.decompose"),
        "estimation.table_s": per_op("estimation.table"),
        "estimation.table_calls": len(by_layer.get("estimation.table", [])) / ops,
        "estimation.estimate_s": per_op("estimation.estimate"),
        "states.base_state_s": per_op("states.base_state"),
        "states.conjugate_s": per_op("states.conjugate"),
        "twist.gamma_x_s": per_op("twist.gamma_x"),
        "channels.s": per_op("channels"),
        "bounds.security_s": per_op("bounds.security"),
        "bounds.s": per_op("bounds.security") + per_op("bounds.choose_params"),
        "bounds.choose_params_calls": len(by_layer.get("bounds.choose_params", [])) / ops,
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from pbitqkd import cli  # the in-process workloads never load the CLI module

    tracer = Tracer()
    tracer.op = 0
    with tracer.installed([pbitqkd.protocol, cli]):
        with tracer.span("cli.command"):
            code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
