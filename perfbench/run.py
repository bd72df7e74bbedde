"""epi-lab benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload corpus-channel --seed 1 --seconds 8 --trace 0

Runs from the root of a source checkout and imports `epi_lab` from `src/`,
in this one process with one suite worker; the BLAS thread variables are
left as found and recorded. A run does passes over the workload's operations
(corpus entries or CLI requests) until the next pass would end after
`--seconds`, and always at least one. Every operation's reports are checked
against reference.json.

With `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
spans are recorded around the public functions of every module and the
result carries the per-layer metrics. The last line of standard output is
the result object; the line before it holds the details (environment, pass
and operation times, failures).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 5
# quantile of the request times reported as the tail
TAIL_QUANTILE = 0.9

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio",
    "check_max_s": "s", "request_p50_s": "s", "request_tail_s": "s",
}


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description="epi-lab benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import epi_lab, build the inputs and print the seconds taken")
    return ap.parse_args(argv)


def build_inputs(workload: str, seed: int):
    import workloads

    if workload == workloads.SWEEP:
        return workloads.sweep_requests(seed)
    return workloads.corpus_entries(workload, seed)


def set_up(args):
    """Import epi_lab and build the workload inputs; returns (inputs, seconds).
    Called before anything else in the process has imported numpy."""
    start = time.perf_counter()
    import epi_lab.cli  # noqa: F401  (imports every module of the package)

    inputs = build_inputs(args.workload, args.seed)
    return inputs, time.perf_counter() - start


def measure_setup(args, count: int) -> list:
    """Set-up seconds of `count` further fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn()
    return None


def commit():
    """The checkout's git commit; None outside a git work tree (the digest of
    the sources identifies the code there)."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "epi_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": _blas_threads()},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EPI_LAB_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# passes


def corpus_pass(entries, seed, reference, tracer):
    import checks
    from epi_lab import harness

    ops, reports = [], []
    start = time.perf_counter()
    for name, fn in entries:
        span = tracer.op(name) if tracer else nullcontext()
        elapsed, reps, recs, error = checks.run_entry(fn, span)
        reports += reps
        ops.append({"id": name, "s": elapsed, "recs": recs, "code": 0, "error": error})
    reports.sort(key=lambda r: (r.check_name, json.dumps(r.params, sort_keys=True)))
    harness.payload_to_json(harness.suite_payload(reports, seed))
    wall = time.perf_counter() - start
    for op in ops:
        ref, values = checks.corpus_reference(reference, op["id"], seed)
        judge(op, ref, values)
    return wall, ops


def sweep_pass(requests, reference, tracer):
    import checks
    import workloads

    ops = []
    start = time.perf_counter()
    for rid, argv in requests:
        span = tracer.op(rid) if tracer else nullcontext()
        elapsed, code, recs, error = checks.run_request(argv, span)
        ops.append({"id": rid, "s": elapsed, "recs": recs, "code": code, "error": error})
    wall = time.perf_counter() - start
    for op, (_, argv) in zip(ops, requests):
        judge(op, reference["sweep"][workloads.request_key(argv)], True)
    return wall, ops


def judge(op, ref, check_values):
    import checks

    failed, mismatch, fixed = checks.judge(ref, op["recs"], op["code"], op["error"], check_values)
    op.update(failed=failed, mismatch=mismatch, fixed=fixed, values_checked=check_values,
              reports=len(op["recs"]), reports_failed=sum(not r["pass"] for r in op["recs"]))
    del op["recs"]


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, steadier than interpolating between the two nearest ones when
    each request time is noisy. The maximum for q = 1."""
    from scipy.stats.mstats import hdquantiles

    if q >= 1.0 or len(values) == 1:
        return max(values)
    return float(hdquantiles(values, prob=[q])[0])


def request_times(passes, sweep: bool) -> list:
    """Request-time samples, one list per group: the requests of each sweep
    pass, or, on a corpus workload, the passes themselves (the corpus slice
    run as one suite request)."""
    if sweep:
        return [[op["s"] for op in ops] for _, ops in passes]
    return [[wall for wall, _ in passes]]


def end_to_end(passes, setup, attempted, failed, sweep) -> dict:
    requests = request_times(passes, sweep)
    return {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
        "check_max_s": statistics.median(max(op["s"] for op in ops) for _, ops in passes),
        "request_p50_s": statistics.median(quantile(t, 0.5) for t in requests),
        "request_tail_s": statistics.median(quantile(t, TAIL_QUANTILE) for t in requests),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "epi_lab" / "__init__.py").is_file():
        print(f"perfbench: no epi_lab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs, seconds = set_up(args)
    if args.setup_probe:
        print(repr(seconds))
        return 0
    # set-up time is an end-to-end metric; a traced run does not report it
    setup = [seconds] + ([] if args.trace else measure_setup(args, SETUP_SAMPLES - 1))

    import checks
    import tracing
    import workloads

    reference = checks.load_reference()
    env = environment()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        unwrapped = tracer.unwrapped_bindings()
        if unwrapped:
            print(f"perfbench: traced functions left unwrapped: {unwrapped}", file=sys.stderr)
            return 3

    sweep = args.workload == workloads.SWEEP
    passes, layers = [], []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        if sweep:
            requests = inputs if not passes else workloads.sweep_requests(args.seed, len(passes))
            wall, ops = sweep_pass(requests, reference, tracer)
        else:
            wall, ops = corpus_pass(inputs, args.seed, reference, tracer)
        passes.append((wall, ops))
        if tracer:
            problems = tracer.check_spans(wall)
            if problems:
                print("perfbench: span invariants broken:\n  " + "\n  ".join(problems[:20]),
                      file=sys.stderr)
                return 3
            m = tracer.metrics(wall)
            m.update({
                "harness.reports": sum(op["reports"] for op in ops),
                "harness.reports_failed": sum(op["reports_failed"] for op in ops),
                "cli.requests": len(ops) if sweep else 0,
                "cli.nonzero_exits": sum(op["code"] not in (0, None) for op in ops),
            })
            layers.append(m)
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds:
            break

    all_ops = [op for _, ops in passes for op in ops]
    attempted = len(all_ops)
    failed = sum(op["failed"] for op in all_ops)
    mismatched = [op for op in all_ops if op["mismatch"]]
    if tracer:
        names = [name for name, _, _ in tracing.PER_LAYER]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        values = {name: statistics.median(m[name] for m in layers) for name in names}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    else:
        values = end_to_end(passes, setup, attempted, failed, sweep)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    n_requests = len(request_times(passes, sweep)[0])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "setup_s": setup,
        "passes_s": [wall for wall, _ in passes],
        "fail_ratio": failed / attempted,
        "tail": {"quantile": TAIL_QUANTILE, "samples": n_requests},
        "operations": [{k: op[k] for k in ("id", "s", "code", "failed", "fixed", "values_checked")}
                       for op in passes[0][1]],
        "failed": [{"id": op["id"], "code": op["code"], "error": op["error"]}
                   for op in all_ops if op["failed"]],
        "mismatches": [{"id": op["id"], "problems": op["mismatch"]} for op in mismatched],
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {"correct": not mismatched, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
