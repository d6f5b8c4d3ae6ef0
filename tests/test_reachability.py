"""Reachability: every function in src/ runs under some command, or names what keeps it.

A child process runs a fixed list of CLI commands in process, then
``protocol.model_estimates``, under ``sys.setprofile``, and reports every src
function it entered.  A src function that none of them enters fails the test
unless ``KEPT`` names it with what keeps it; references and fixtures that
only tests use belong in tests/reference.py.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# function -> what keeps it in src, for each src function no command enters
KEPT = {
    "bounds.substring_sampling_bound": "spec formula of criteria 9 and 10",
    "bounds.log2_substring_sampling_bound": "spec formula of criteria 9 and 10",
    "bounds.estimation_failure_terms": "spec formula of criterion 10",
    "bounds.EstimationFailureTerms.log2_total": "spec formula of criterion 10",
    "bounds.group_average_error_bound": "spec formula of criterion 10",
    "channels.pauli_op": "apply_pauli calls it, which perfbench/checks.py calls",
    "channels.apply_pauli": "perfbench/checks.py calls it",
    "states.DensityState.conjugate_by": "perfbench/spans.py rebinds it",
    "states.DensityState.expect": "perfbench/checks.py calls it",
    "channels.PauliNoiseModel.to_json": "perfbench/checks.py calls it",
    "__init__._load_exports": "the PEP 562 loader: the first exported name used",
    "__init__.__dir__": "the PEP 562 loader: dir(pbitqkd)",
    "states.purify": "the ccq oracle that checks the rate formula",
    "states.ccq_state": "the ccq oracle that checks the rate formula",
}

KEYED = {"kind": "pbit", "twisting": "u_h", "ancilla": "comp00",
         "noise": {"eps_x": 0.02, "eps_z": 0.01}}
RHO_H = {"kind": "rho_h", "kappa": 0.001}
PPP = {"n": 20000, "m_x": 1000, "m_prime": 1000}
# below n = 1e5 a pm run aborts on its parameters before it labels the bases
PM = {"n": 100000, "s": 1, "delta": 0.5, "m_x": 2000}

# config file -> its contents; each is written to the child's work directory
CONFIGS = {
    "candidates.json": {"source": KEYED, "candidates": ["u_h"], "m_prime": 400},
    "ppp_rho_h.json": {**PPP, "seed": 0, "source": RHO_H},
    "ppp_keyed.json": {**PPP, "seed": 0, "source": KEYED},
    "ppp_eve.json": {**PPP, "seed": 0, "source": RHO_H, "eve": 0.3},
    "ppp_fixed_weight.json": {**PPP, "seed": 0, "source": KEYED,
                              "eve": {"eps_x": 0.05, "eps_z": 0.05, "mode": "fixed_weight"}},
    "pm_rho_h.json": {**PM, "seed": 0, "source": {"kind": "rho_h"}},
    "pm_keyed.json": {**PM, "seed": 0, "source": KEYED},
    "sweep_ppp.json": {**PPP, "protocol": "ppp", "seeds": [0, 1], "source": RHO_H},
    "sweep_pm.json": {**PM, "protocol": "pm", "seeds": [0], "kappa_values": [0.0, 0.01]},
    "pm_ensemble.json": {"source": {"kind": "pbit"}},
    "misspelt.json": {**PPP, "seed": 0, "m_primes": 1000},
}

# (argv, exit code)
COMMANDS = [
    (["verify-example"], 0),
    (["verify-example", "--kappa", "0.01"], 0),
    (["solve-params"], 0),
    (["bounds", "--n", "100000"], 0),
    (["estimate", "--seed", "1"], 0),
    (["estimate", "--seed", "1", "--config", "candidates.json"], 0),
    (["run-ppp", "--config", "ppp_rho_h.json"], 0),
    (["run-ppp", "--config", "ppp_keyed.json"], 0),
    (["run-ppp", "--config", "ppp_eve.json"], 0),
    (["run-ppp", "--config", "ppp_fixed_weight.json"], 0),
    (["run-pm", "--config", "pm_rho_h.json"], 0),
    (["run-pm", "--config", "pm_keyed.json", "--out", "pm_keyed.out.json"], 0),
    (["sweep", "--config", "sweep_ppp.json", "--out", "sweep_ppp.csv"], 0),
    (["sweep", "--config", "sweep_pm.json", "--out", "sweep_pm.csv"], 0),
    (["pm-ensemble"], 0),
    (["pm-ensemble", "--config", "pm_ensemble.json"], 0),
    (["run-ppp", "--config", "misspelt.json"], 2),
    (["run-pm", "--seed", "0"], 2),
]

# model_estimates is library API that no command calls: README's variance analysis reads it
MODEL_SOURCES = [{"kind": "rho_h"}, KEYED]

CHILD = r"""
import contextlib, io, json, sys

job = json.load(sys.stdin)
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
from pbitqkd import cli, protocol

codes = []
for argv in job["commands"]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
for source in job["model_sources"]:
    protocol.model_estimates(protocol.SourceSpec.from_dict(source), 4000, 400)
sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""


def src_functions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> module.qualname, for every def in src."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[path, first] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "pbitqkd").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return out


def entered_functions(workdir: Path) -> set[str]:
    for name, config in CONFIGS.items():
        (workdir / name).write_text(json.dumps(config), encoding="utf-8")
    job = {"commands": [argv for argv, _ in COMMANDS], "model_sources": MODEL_SOURCES}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(job), cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in COMMANDS], proc.stderr[-2000:]
    functions = src_functions()
    return {functions[path, line] for path, line in map(tuple, result["entered"])
            if (path, line) in functions}


def test_every_src_function_is_entered_or_kept(tmp_path):
    functions = set(src_functions().values())
    entered = entered_functions(tmp_path)
    assert sorted(functions - entered - set(KEPT)) == [], "entered by no command and not kept"
    assert sorted(set(KEPT) - functions) == [], "kept, but no longer in src"
    assert sorted(set(KEPT) & entered) == [], "kept, but a command enters it"
