"""Output checks for benchmark ops.

Every check returns a list of problems; an op fails when any check returns
one.  The exact bit-error rate an estimate is held against comes from the
source state through the library's public functions, so a sampling or
estimation bug shows as a failed op rather than as a faster one.

Known defects are not failures: a keyed run whose final keys disagree (the
toy error correction leaves residual errors) passes here and is reported
through ``key_agree_ratio`` instead.
"""

from __future__ import annotations

import csv
import io
import json
import math

from pbitqkd import ProtocolConfig, apply_pauli, gamma_z

#: An estimate further than this many binomial standard errors from the
#: exact rate fails its op.
Z_LIMIT = 5.0

TRANSCRIPT_KEYS = {
    "schema", "protocol", "config", "events", "estimates", "security", "key",
    "abort", "abort_reason",
}


def _xor_prob(a: float, b: float) -> float:
    return a * (1.0 - b) + b * (1.0 - a)


class Checker:
    """Validates transcripts and CLI outputs against exact source values."""

    def __init__(self) -> None:
        self._exact: dict[str, float] = {}

    def exact_eps_x(self, config: dict) -> float:
        """Exact probability that the key bits differ, for a protocol config.

        Source noise acts on pbit sources only (as in ``run_ppp``); an Eve
        pattern is XORed on top.  Only X flips move the sigma_z sigma_z
        statistic, so the state is mixed over the X flip alone.
        """
        cfg = ProtocolConfig.from_dict({"seed": 0, **config})
        key = json.dumps([cfg.source.to_dict(), cfg.eve and cfg.eve.to_json()], sort_keys=True)
        if key not in self._exact:
            p_flip = 0.0
            if cfg.source.kind == "pbit" and cfg.source.noise is not None:
                p_flip = cfg.source.noise.eps_x
            if cfg.eve is not None:
                p_flip = _xor_prob(p_flip, cfg.eve.eps_x)
            base = cfg.source.base_state()
            flipped = apply_pauli(base, 1, 0, "B")
            gz = gamma_z(base.layout)
            zz = (1.0 - p_flip) * base.expect(gz) + p_flip * flipped.expect(gz)
            self._exact[key] = (1.0 - float(zz)) / 2.0
        return self._exact[key]

    def eps_x_problems(self, eps_x_hat: float, m_x: int, config: dict, where: str) -> list[str]:
        exact = self.exact_eps_x(config)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / m_x)
        z = abs(eps_x_hat - exact) / se
        if z > Z_LIMIT:
            return [f"{where}: eps_x_hat {eps_x_hat:.6f} is {z:.1f} standard errors from exact {exact:.6f}"]
        return []

    def transcript_problems(self, text: str, config: dict, expect_abort: bool) -> list[str]:
        try:
            t = json.loads(text)
        except (TypeError, ValueError) as exc:
            return [f"transcript is not valid JSON: {exc}"]
        if not isinstance(t, dict) or set(t) != TRANSCRIPT_KEYS:
            return ["transcript does not have the transcript keys"]
        problems = []
        events = t["events"]
        last = None
        if isinstance(events, list) and events and isinstance(events[-1], dict):
            last = events[-1].get("event")
        if last not in ("complete", "abort"):
            problems.append(f"event list ends in {last!r}, not complete or abort")
        elif (last == "abort") != bool(t["abort"]):
            problems.append("abort flag disagrees with the last event")
        key = t["key"] if isinstance(t["key"], dict) else {}
        final_len = key.get("final_len")
        if not isinstance(final_len, int) or final_len < 0:
            problems.append(f"final_len {final_len!r} is not a length")
        else:
            want = 2 * math.ceil(final_len / 8)
            for side in ("alice_hex", "bob_hex"):
                if len(key.get(side, "")) != want:
                    problems.append(f"{side} has {len(key.get(side, ''))} hex digits, final_len {final_len} needs {want}")
        if expect_abort and not t["abort"]:
            problems.append("an Eve run did not abort")
        est = t["estimates"]
        if isinstance(est, dict) and "eps_x_hat" in est:
            problems += self.eps_x_problems(est["eps_x_hat"], est["m_x"], config, "transcript")
        return problems

    def cli_problems(self, command: str, code: int, stdout: str, expect: dict) -> list[str]:
        """Checks for one CLI child: exit code 0, one JSON document, content."""
        if code != 0:
            return [f"{command} exited {code}, expected 0"]
        if command in ("run-ppp", "run-pm"):
            return self.transcript_problems(stdout, expect["config"], expect.get("abort", False))
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"{command} printed invalid JSON: {exc}"]
        try:
            return self._document_problems(command, doc, expect)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return [f"{command} printed a document without the expected fields: {exc!r}"]

    def _document_problems(self, command: str, doc: dict, expect: dict) -> list[str]:
        if command == "verify-example":
            failing = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
            return [f"verify-example checks failed: {failing}"] if failing or doc.get("ok") is not True else []
        if command == "solve-params":
            sol = doc.get("solution", {})
            ok = sol.get("feasible") is True and isinstance(sol.get("n"), int) and sol["n"] > 0
            return [] if ok else [f"solve-params gave no feasible n: {sol}"]
        if command == "bounds":
            ok = doc.get("params", {}).get("n") == expect["n"] and isinstance(doc.get("vacuous"), bool)
            return [] if ok else ["bounds output lacks params.n or the vacuous flag"]
        if command == "estimate":
            return self.eps_x_problems(doc["eps_x_hat"], doc["m_x"], expect["config"], "estimate")
        if command == "sweep":
            return self.sweep_problems(doc, expect)
        return [f"no check for command {command!r}"]

    def sweep_problems(self, doc: dict, expect: dict) -> list[str]:
        grid = expect["grid"]
        rows = list(csv.DictReader(io.StringIO(expect.get("csv", ""))))
        if doc.get("rows") != len(grid["seeds"]) or len(rows) != len(grid["seeds"]):
            return [f"sweep wrote {len(rows)} rows, reported {doc.get('rows')}, expected {len(grid['seeds'])}"]
        problems = []
        config = {"n": grid["n"], "source": {**grid["source"], "p": grid["p"], "kappa": grid["kappa"]}}
        for want_seed, row in zip(grid["seeds"], rows):
            if int(row["seed"]) != want_seed or row["abort"] not in ("0", "1"):
                problems.append(f"sweep row {row} does not match seed {want_seed}")
            elif row["eps_x_hat"]:
                problems += self.eps_x_problems(float(row["eps_x_hat"]), grid["m_x"], config, f"sweep seed {want_seed}")
        return problems


def rerun_problems(first: list[str], again: list[str]) -> list[str]:
    """Criterion 13: the same config and seed give byte-identical output."""
    return [] if first == again else ["rerun of the op is not byte-identical"]
