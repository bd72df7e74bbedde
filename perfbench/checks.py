"""Running one operation (a corpus entry or a sweep request) and checking its
reports against the outputs recorded in reference.json.

An operation fails if it raises, exits non-zero, yields `pass: false` or a
non-finite margin, or disagrees with the reference. Disagreeing is also a
mismatch, which makes the run incorrect. Reproducing a failure that the
reference recorded (the known qou defect) is a failure but no mismatch, and
an operation that comes out clean where the reference failed counts as fixed.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# harness.PATH_AGREEMENT_TOL: absolute below 1, relative above
TOL = 1e-4
VALUES = ("lhs", "rhs", "margin")


def record(rep) -> dict:
    """The checked part of a report, from a CheckReport or its dict form."""
    d = rep if isinstance(rep, dict) else rep.to_dict()
    return {"check_name": d["check_name"], "params": d["params"], "pass": d["pass"],
            **{k: d[k] for k in VALUES}}


def report_key(rec: dict) -> str:
    return rec["check_name"] + " " + json.dumps(rec["params"], sort_keys=True)


def run_entry(fn, span):
    """Call a corpus thunk inside `span`; returns (seconds, reports, records, error)."""
    start = time.perf_counter()
    with span:
        try:
            reports = fn()
            error = None
        except Exception as exc:  # the benchmark records the failure and goes on
            reports, error = [], f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, reports, [record(r) for r in reports], error


def run_request(argv, span):
    """Run one CLI request in process; returns (seconds, exit code, records, error)."""
    from epi_lab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with span, redirect_stdout(out), redirect_stderr(err):
        try:
            code, error = cli.run(argv), None
        except Exception as exc:  # as above
            code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    recs = []
    if code in (0, 1):
        recs = [record(r) for r in json.loads(out.getvalue())["reports"]]
    elif error is None:
        error = err.getvalue().strip()
    return elapsed, code, recs, error


def failures(recs, code=0, error=None) -> list:
    """Why an operation failed; empty when it is clean."""
    out = [f"raised {error}"] if error else []
    if code not in (0, None):
        out.append(f"exit {code}")
    for r in recs:
        if not r["pass"]:
            out.append(f"{r['check_name']} pass=false")
        if not math.isfinite(r["margin"]):
            out.append(f"{r['check_name']} margin={r['margin']}")
    return out


def _same(a, b) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= TOL * max(1.0, abs(b))
    return repr(a) == repr(b)


def mismatches(ref: dict, recs, code=0, check_values=True) -> list:
    """Differences between an operation's output and its reference."""
    out = []
    if ref.get("exit", 0) != code:
        out.append(f"exit {code}, reference {ref.get('exit', 0)}")
    mine = {report_key(r): r for r in recs}
    theirs = {report_key(r): r for r in ref["reports"]}
    if len(mine) != len(recs) or sorted(mine) != sorted(theirs):
        out.append(f"report set {sorted(mine)} differs from reference {sorted(theirs)}")
        return out
    for key, r in mine.items():
        t = theirs[key]
        if r["pass"] != t["pass"]:
            out.append(f"{key}: pass={r['pass']}, reference {t['pass']}")
        if check_values:
            out += [f"{key}: {v}={r[v]!r}, reference {t[v]!r}" for v in VALUES if not _same(r[v], t[v])]
    return out


def judge(ref: dict, recs, code=0, error=None, check_values=True):
    """(failed, mismatch list, fixed) for one operation."""
    failed = failures(recs, code, error)
    if not failed and failures(ref["reports"], ref.get("exit", 0)):
        same_set = sorted(map(report_key, recs)) == sorted(map(report_key, ref["reports"]))
        if same_set:
            return False, [], True
    if error:
        return True, [f"raised {error}"], False
    mismatch = mismatches(ref, recs, code, check_values)
    return bool(failed or mismatch), mismatch, False


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def corpus_reference(reference: dict, name: str, seed: int):
    """(reference, whether values are checked) for a corpus entry at a seed.
    Seed-dependent entries were recorded for a range of seeds; outside it only
    the report set and verdicts are checked."""
    ref = reference["corpus"][name]
    if "seeded" not in ref:
        return ref, True
    seeded = ref["seeded"]
    if str(seed) in seeded:
        return seeded[str(seed)], True
    return seeded["0"], False
