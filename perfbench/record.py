"""Record reference.json: the reports of every corpus workload entry and of
every request in the sweep pool, from the epi_lab sources of this checkout.

Run from the repository root, only when the expected outputs change on
purpose:

    python3 perfbench/record.py

Entries whose reports depend on the suite seed are recorded for seeds
0 .. SEEDS-1. A pool request that exits with a usage or numeric error (2) is
a generator bug: recording stops.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# seeds recorded for corpus entries whose reports depend on the suite seed
SEEDS = 1000


def entry_records(workload: str, seed: int) -> dict:
    out = {}
    for name, fn in workloads.corpus_entries(workload, seed):
        _, _, recs, error = checks.run_entry(fn, nullcontext())
        if error:
            raise RuntimeError(f"{name} raised {error}")
        out[name] = {"reports": recs}
    return out


def main() -> int:
    sweep = {}
    for rid, argv in workloads.sweep_pool().items():
        elapsed, code, recs, error = checks.run_request(argv, nullcontext())
        if code not in (0, 1):
            raise RuntimeError(f"generator bug: {rid} {argv} gave exit {code}: {error}")
        why = checks.failures(recs, code)
        print(f"{elapsed:7.3f}s {rid} exit={code} {'; '.join(why)}", flush=True)
        sweep[workloads.request_key(argv)] = {"exit": code, "reports": recs}

    corpus = {}
    for workload in workloads.CORPUS:
        first = entry_records(workload, 0)
        second = entry_records(workload, 1)
        for name, ref in first.items():
            if ref == second[name]:
                corpus[name] = ref
                continue
            seeded = {"0": ref, "1": second[name]}
            for seed in range(2, SEEDS):
                fn = dict(workloads.corpus_entries(workload, seed))[name]
                _, _, recs, error = checks.run_entry(fn, nullcontext())
                if error:
                    raise RuntimeError(f"{name} at seed {seed} raised {error}")
                seeded[str(seed)] = {"reports": recs}
            corpus[name] = {"seeded": seeded}
            print(f"{name}: seed-dependent, recorded seeds 0..{SEEDS - 1}", flush=True)

    reference = {"commit": run.commit(), "tolerance": checks.TOL, "corpus": corpus, "sweep": sweep}
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
