"""pbitqkd benchmark: run one workload for a fixed time and check every output.

    python3 perfbench/run.py --workload ppp_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere; it benchmarks the package under ``src/`` next to this
directory and imports it from source.  Workloads, metric names and units come
from ``BENCHMARK.json`` at the repository root.

``--trace 0`` measures the end-to-end metrics untraced and also prints
``op_s_p50``, ``final_bits_per_s``, ``key_agree_ratio``, ``failed_ratio``
and the abort share, which BENCHMARK.json does not declare.  ``--trace 1``
runs every op both traced and untraced and reports the per-layer metrics;
its spans are written to ``.perfbench/spans-<workload>-<seed>.json``.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit status 0 when a result was printed (``correct`` says whether every op
passed its checks), 2 when the package or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: fresh-interpreter imports per run; setup_s is their median
SETUP_REPEATS = 3
IMPORT_TIMEOUT_S = 60
#: units of the figures printed beside the metrics BENCHMARK.json declares
PRINTED_UNITS = {
    "op_s_p50": "s", "final_bits_per_s": "bits/s", "key_agree_ratio": "ratio",
    "failed_ratio": "ratio", "abort_ratio": "ratio",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --- set-up and import time ----------------------------------------------------


def import_times(env: dict) -> list[float]:
    """Wall time of ``import pbitqkd`` in each of SETUP_REPEATS fresh interpreters."""
    code = "import time; t = time.perf_counter(); import pbitqkd; print(time.perf_counter() - t)"
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=IMPORT_TIMEOUT_S, check=True)
        out.append(float(proc.stdout))
    return out


def parse_importtime(text: str) -> tuple[float, float]:
    """(pbitqkd, scipy) cumulative import seconds from ``-X importtime`` output.

    The scipy figure sums every scipy subtree whose parent is not scipy.
    Lines come in post-order (children first), so they are walked reversed.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(parts[1]), name.strip()))

    def is_scipy(name: str | None) -> bool:
        return name is not None and (name == "scipy" or name.startswith("scipy."))

    package_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if name == "pbitqkd" and parent is None:
            package_us = cumulative
        if is_scipy(name) and not is_scipy(parent):
            scipy_us += cumulative
        stack.append((depth, name))
    return package_us / 1e6, scipy_us / 1e6


def import_breakdown(env: dict) -> tuple[float, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pbitqkd"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True)
    return parse_importtime(proc.stderr)


# --- the measured window --------------------------------------------------------


def run_window(workload, seconds: float, tracer=None):
    """Closed loop: ops back to back, in whole cycles, for about ``seconds``.

    A new cycle starts while the window, if it took one more cycle of the
    mean length so far, would overshoot ``seconds`` by less than half a
    cycle; at least one cycle runs.  With a tracer, every op runs twice in a
    row, traced and untraced, in an order that alternates from op to op (and
    shifts by one each cycle, so every kind of a cycle runs traced first and
    untraced first); ``ops`` then lists each op twice, and each pair's
    outputs must be byte-identical.  Without one, the op at
    ``workload.rerun_index`` is rerun and must give the same bytes
    (criterion 13).  The ops are checked afterwards.
    """
    from checks import rerun_problems

    ops, results = [], []
    start = time.perf_counter()
    i = 0
    while True:
        op = workload.next_op(i)
        if tracer is None:
            modes = [None]
        else:
            modes = [tracer, None] if (i % workload.cycle + i // workload.cycle) % 2 == 0 else [None, tracer]
        for mode in modes:
            ops.append(op)
            results.append(workload.execute(op, mode, i))
        i += 1
        if i % workload.cycle:
            continue
        if (time.perf_counter() - start) * (1 + 0.5 * workload.cycle / i) > seconds:
            break
    for op, result in zip(ops, results):
        result.problems = workload.check(op, result)
    if tracer is None:
        k = workload.rerun_index
        results[k].problems += rerun_problems(results[k].outputs, workload.execute(ops[k]).outputs)
    else:
        for first, again in zip(results[::2], results[1::2]):
            again.problems += rerun_problems(first.outputs, again.outputs)
    return ops, results


def transcripts(ops, results) -> list[dict]:
    """Parsed protocol transcripts of the ops that passed their checks."""
    out = []
    for op, result in zip(ops, results):
        if result.problems:
            continue
        texts = result.outputs if op.runs else (result.outputs[:1] if op.argv[0].startswith("run-") else [])
        out += [json.loads(text) for text in texts]
    return out


def end_to_end(workload, ops, results, setup: list[float]) -> tuple[dict, dict]:
    """(declared end-to-end metrics, the other end-to-end figures printed beside them)."""
    busy = sum(r.wall for r in results)
    who = resource.RUSAGE_CHILDREN if workload.cycle > 1 else resource.RUSAGE_SELF
    runs = transcripts(ops, results)
    keyed = [t for t in runs if t["key"]["final_len"] > 0]
    metrics = {
        "setup_s": median(setup),
        "copies_per_s": sum(op.copies for op in ops) / busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    failed = sum(1 for r in results if r.problems)
    derived = {
        "op_s_p50": median([r.wall for r in results]),
        "final_bits_per_s": sum(t["key"]["final_len"] for t in runs) / busy,
        "key_agree_ratio": (sum(t["key"]["agreement"] is True for t in keyed) / len(keyed)) if keyed else None,
        "failed_ratio": failed / len(results),
        "abort_ratio": (sum(t["abort"] for t in runs) / len(runs)) if runs else None,
    }
    return metrics, derived


def per_layer(workload, ops, results, tracer, env: dict) -> tuple[dict, dict]:
    """(per-layer metrics, spans) for a traced window."""
    from spans import Tracer, layer_metrics
    from workloads import cli_twins, run_child

    pairs = list(zip(results[::2], results[1::2]))
    metrics = layer_metrics(tracer.spans, len(pairs))
    cli_tracer = tracer
    if workload.cycle == 1:
        # in-process workloads: run the first op's configs once more through the
        # traced CLI, which also checks that the CLI prints the same transcript
        cli_tracer = Tracer()
        for twin, text in zip(cli_twins(ops[0]), results[0].outputs):
            res = run_child(twin, workload.workdir, env, cli_tracer)
            if res.error or res.outputs[0].rstrip("\n") != text:
                results[0].problems.append(f"CLI {twin.label} differs from the in-process transcript")
    commands = [s["end"] - s["start"] for s in cli_tracer.spans if s["name"] == "cli.command"]
    metrics["cli.command_s"] = median(commands)
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_breakdown(env)
    # each pair ran the same op, so the difference is the cost of the tracing
    metrics["trace.overhead_s"] = median([
        (a.wall - b.wall) if a.traced else (b.wall - a.wall) for a, b in pairs
    ])
    spans = {"window": tracer.spans}
    if cli_tracer is not tracer:
        spans["cli"] = cli_tracer.spans
    return metrics, spans


# --- output ------------------------------------------------------------------------


def report(spec: dict, name: str, args, ops, results, metrics: dict, extra: dict) -> dict:
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    failed = sum(1 for r in results if r.problems)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  ops {len(results)}  failed {failed}")
    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"  {key:<28} {'null' if value is None else format(value, '>14.6g'):>14} {PRINTED_UNITS[key]}")
    by_kind: dict[str, list[float]] = {}
    for op, result in zip(ops, results):
        by_kind.setdefault(op.label, []).append(result.wall)
    print("  ops by kind: " + ", ".join(f"{k} {len(v)} x {median(v):.4f} s" for k, v in by_kind.items()))
    walls = sorted(r.wall for r in results)
    if len(walls) >= 4:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"  op wall s: min {walls[0]:.4f}  q1 {q1:.4f}  median {median(walls):.4f}  "
              f"q3 {q3:.4f}  max {walls[-1]:.4f}")
    for i, result in enumerate(results):
        for problem in result.problems:
            print(f"  FAILED op {i} ({ops[i].label}): {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def run_one(spec: dict, args, env: dict) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, env)
        if not args.trace:
            setup = import_times(env)
            ops, results = run_window(workload, args.seconds)
            metrics, extra = end_to_end(workload, ops, results, setup)
            return report(spec, args.workload, args, ops, results, metrics, extra)
        tracer = Tracer()
        ops, results = run_window(workload, args.seconds, tracer)
        metrics, spans = per_layer(workload, ops, results, tracer, env)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        return report(spec, args.workload, args, ops, results, metrics, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(spec: dict, args) -> dict:
    """Every workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {w['name']} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w['name']}/{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pbitqkd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'pbitqkd'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    result = run_all(spec, args) if args.workload == "all" else run_one(spec, args, dict(os.environ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
