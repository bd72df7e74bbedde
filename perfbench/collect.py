"""Repeat benchmark runs and summarise them; build the committed baseline.

    python3 perfbench/collect.py runs --workloads all --seeds 1-10 --trace 0 --out RUNS.json
    python3 perfbench/collect.py baseline --untraced RUNS0.json --traced RUNS1.json \
        --out perfbench/baseline.json

`runs` starts run.py once per (workload, seed), one at a time, and reports
for every metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median. `baseline` combines an untraced and a traced
collection into baseline.json: end-to-end medians, the per-layer table of the
traced pass, the observed layer shares beside the predicted ones, and the
tracing overhead (traced minus untraced wall_s).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Share of a workload's traced wall time that its target layers should hold,
# as predicted before this benchmark existed.
PREDICTED = {
    "corpus-channel": (["channels.", "fock.displacement."], 0.95),
    "corpus-spectra": (["fock.eigensolve."], 0.85),
    "corpus-grid": (["phase_space."], 0.70),
}


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    run_s = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    return {"seed": seed, "run_s": run_s, "result": result,
            "detail": {k: detail[k] for k in ("passes_s", "setup_s", "fail_ratio", "tail",
                                              "failed", "mismatches", "environment")}}


def summarise(runs) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def cmd_runs(args) -> int:
    names = workloads.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    collected = {}
    for workload in names:
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} run_s={runs[-1]['run_s']:.1f} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()
                      if not args.trace or k == "trace.wall_s"), flush=True)
        collected[workload] = {"runs": runs, "summary": summarise(runs)}
        for name, s in collected[workload]["summary"].items():
            if args.trace and not name.endswith("_s"):
                continue
            print(f"  {workload:15s} {name:34s} median={s['median']:.5g} spread={s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_baseline(args) -> int:
    untraced = json.loads(Path(args.untraced).read_text())
    traced = json.loads(Path(args.traced).read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"environment": None, "workloads": {}}
    for workload, data in untraced.items():
        out["environment"] = data["runs"][0]["detail"]["environment"]
        entry = {
            "seeds": [r["seed"] for r in data["runs"]],
            "end_to_end": {name: {k: s[k] for k in ("median", "q1", "q3", "spread")}
                           | {"bound": bounds[name]} for name, s in data["summary"].items()},
            "fail_ratio": statistics.median(r["detail"]["fail_ratio"] for r in data["runs"]),
        }
        if workload in traced:
            run = traced[workload]["runs"][0]
            layers = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            wall = layers["trace.wall_s"]
            shares = {k[:-len(".self_s")] if k.endswith(".self_s") else k: v / wall
                      for k, v in layers.items()
                      if k.endswith("_s") and k != "trace.wall_s" and not k.endswith("total_s")}
            entry["traced_seed"] = run["seed"]
            entry["per_layer"] = layers
            entry["self_time_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
            entry["tracing_overhead_s"] = wall - data["summary"]["wall_s"]["median"]
            if workload in PREDICTED:
                prefixes, predicted = PREDICTED[workload]
                observed = sum(v for k, v in shares.items()
                               if any(k.startswith(p) or k + "." == p for p in prefixes))
                entry["target_share"] = {"layers": prefixes, "predicted": predicted,
                                         "observed": observed}
        out["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workloads", default="all")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    b = sub.add_parser("baseline")
    b.add_argument("--untraced", required=True)
    b.add_argument("--traced", required=True)
    b.add_argument("--out", required=True)
    args = ap.parse_args()
    return cmd_runs(args) if args.cmd == "runs" else cmd_baseline(args)


if __name__ == "__main__":
    sys.exit(main())
