"""Acceptance suite: every criterion runs at its stated tolerance against the
built-in corpus and prints one pass/fail line.

The corpus is executed once through the CLI (seed 7) and shared by the
criteria; the determinism criterion performs a second full run.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import pytest

from epi_lab import cli
from epi_lab import harness as hn


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "run1.json"
    code = cli.run(["suite", "--seed", "7", "--out", str(path)])
    payload = json.loads(path.read_text())
    by_name = {}
    for rep in payload["reports"]:
        by_name.setdefault(rep["check_name"], []).append(rep)
    return {"code": code, "payload": payload, "by_name": by_name, "path": path}


def _emit(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _all_pass(reports):
    return all(r["pass"] for r in reports), min((r["margin"] for r in reports), default=0.0)


def test_criterion_01_cross_representation(suite_run, capsys):
    reps = suite_run["by_name"]["oracle-crossrep"]
    assert {r["params"]["state"] for r in reps} == {"vacuum", "thermal", "coherent", "tmsv"}
    ok, _ = _all_pass(reps)
    worst = max(r["lhs"] for r in reps)
    _emit(capsys, 1, "cross-representation oracle", ok, f"worst deviation {worst:.2e} <= 1e-6")


def test_criterion_02_convolution_oracle(suite_run, capsys):
    reps = suite_run["by_name"]["conv-vacuum-entropy"]
    assert sorted(r["params"]["t"] for r in reps) == [0.2, 0.5, 1.0]
    ok, _ = _all_pass(reps)
    slow = max(r["diagnostics"]["channel_ms"] for r in reps)
    ok = ok and slow < 10_000.0
    worst = max(abs(r["lhs"] - r["rhs"]) for r in reps)
    _emit(capsys, 2, "convolution oracle", ok,
          f"worst |S - g(t)| {worst:.2e} <= 1e-4, slowest case {slow:.0f} ms")


def test_criterion_03_tightness(suite_run, capsys):
    main = [r for r in suite_run["by_name"]["tightness"]
            if r["params"]["a"] == 1.0 and r["params"]["b"] == 1.0][0]
    gaps = main["diagnostics"]["gaps"]
    noise = suite_run["by_name"]["tightness-noise-entropy"][0]
    epis = suite_run["by_name"]["tightness-epi"]
    ok = (
        main["pass"]
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and gaps[-1] <= 0.01
        and noise["pass"]
        and all(r["pass"] and r["margin"] >= 0 for r in epis)
    )
    _emit(capsys, 3, "tightness family", ok,
          f"gap(k=16) {gaps[-1]:.4f} <= 0.01, |S(R|M)-b| {noise['lhs']:.1e} <= 1e-9, "
          f"{len(epis)} member EPIs hold outright")


def test_criterion_04_conditional_epi(suite_run, capsys):
    reps = suite_run["by_name"]["cond-epi"]
    agrees = suite_run["by_name"]["cond-epi-path-agreement"]
    ok = all(r["margin"] >= -1e-3 for r in reps) and all(r["pass"] for r in reps + agrees)
    has_negative = any(r["diagnostics"]["S_A_given_M"] < 0 for r in reps)
    ok = ok and has_negative
    _emit(capsys, 4, "conditional EPI", ok,
          f"{len(reps)} instances, min margin {min(r['margin'] for r in reps):.2e}, "
          f"negative-S(A|M) instance covered: {has_negative}")


def test_criterion_05_stam(suite_run, capsys):
    reps = suite_run["by_name"]["stam"]
    eq = suite_run["by_name"]["stam-matched-equality"][0]
    ok = all(r["pass"] for r in reps) and eq["pass"]
    _emit(capsys, 5, "Stam inequality", ok,
          f"margins {[round(r['margin'], 4) for r in reps]}, matched relative gap "
          f"{eq['lhs']:.3f} <= 0.02")


def test_criterion_06_scaling(suite_run, capsys):
    reps = suite_run["by_name"]["scaling"]
    ok = all(r["pass"] for r in reps)
    devs = {r["params"]["instance"]: r["diagnostics"]["deviations"] for r in reps}
    decreasing = all(all(a > b for a, b in zip(d, d[1:])) for d in devs.values())
    ok = ok and decreasing
    _emit(capsys, 6, "universal scaling", ok,
          f"deviations decreasing over t=5,20,50 and final <= bound for {list(devs)}")


def test_criterion_07_isoperimetric(suite_run, capsys):
    reps = suite_run["by_name"]["isoperimetric"]
    mono = suite_run["by_name"]["isoperimetric-ratio-monotone"][0]
    sat = suite_run["by_name"]["isoperimetric-saturation"][0]
    ok = all(r["lhs"] >= math.e * (1 - 1e-2) for r in reps)
    ok = ok and all(r["pass"] for r in reps) and mono["pass"] and sat["pass"]
    _emit(capsys, 7, "isoperimetric inequality", ok,
          f"{len(reps)} instances >= e(1-1e-2); thermal ratios {mono['diagnostics']['ratios']} "
          f"decrease to 1; classical saturation gap {sat['lhs']:.1e}")


def test_criterion_08_concavity(suite_run, capsys):
    reps = suite_run["by_name"]["concavity"]
    ok = all(r["pass"] for r in reps)
    worst = max(r["lhs"] for r in reps)
    _emit(capsys, 8, "entropy power concavity", ok,
          f"worst second difference {worst:.2e} <= 1e-3 on {len(reps)} instances")


def test_criterion_09_debruijn_regularity(suite_run, capsys):
    regs = suite_run["by_name"]["debruijn-regularity"]
    cons = suite_run["by_name"]["debruijn-consistency"][0]
    ok = all(r["pass"] for r in regs) and cons["pass"]
    _emit(capsys, 9, "de Bruijn identity and regularity", ok,
          f"Delta(t) nonnegative, nondecreasing, midpoint-concave on t in [0.1, 2]; "
          f"gain vs integral of J gap {cons['diagnostics']['gap']:.1e} <= 1e-4")


def test_criterion_10_qou_decay(suite_run, capsys):
    decays = suite_run["by_name"]["qou-decay"]
    fixed = suite_run["by_name"]["qou-fixed-point"][0]
    semi = suite_run["by_name"]["qou-semigroup"][0]
    agree = suite_run["by_name"]["qou-gaussian-fock-agreement"][0]
    paths = {r["params"]["path"] for r in decays}
    ok = (
        all(r["pass"] for r in decays)
        and paths == {"fock", "gaussian"}
        and fixed["lhs"] <= 1e-5
        and semi["lhs"] <= 1e-5
        and agree["pass"]
    )
    _emit(capsys, 10, "damping semigroup decay", ok,
          f"{len(decays)} decay checks (both paths), fixed point {fixed['lhs']:.1e} <= 1e-5, "
          f"composition {semi['lhs']:.1e} <= 1e-5")


def test_criterion_11_capacity(suite_run, capsys):
    val = suite_run["by_name"]["capacity-value"][0]
    mono = suite_run["by_name"]["capacity-monotone"][0]
    mp.mp.dps = 50

    def g(n):
        n = mp.mpf(n)
        return (n + 1) * mp.log(n + 1) - n * mp.log(n)

    exact = g("1.5") - mp.log(mp.e ** (-g(1)) + mp.e / 2)
    dev = abs(val["lhs"] - float(exact))
    ok = val["pass"] and mono["pass"] and dev <= 1e-6
    _emit(capsys, 11, "capacity bound", ok,
          f"|value - 50-digit oracle| {dev:.2e} <= 1e-6, monotone over E in (0.5, 1, 2)")


def test_criterion_12_background_epis(suite_run, capsys):
    bs = suite_run["by_name"]["bs-epi"]
    cl = suite_run["by_name"]["classical-epi"]
    ok = len(bs) == 3 and len(cl) == 3 and all(r["pass"] for r in bs + cl)
    _emit(capsys, 12, "background EPIs", ok,
          f"beam-splitter margins {[round(r['margin'], 5) for r in bs]}, "
          f"classical margins {[round(r['margin'], 5) for r in cl]}")


def test_criterion_13_determinism(suite_run, tmp_path, capsys):
    path2 = tmp_path / "run2.json"
    code = cli.run(["suite", "--seed", "7", "--out", str(path2)])
    assert code == 0
    canon1 = hn.canonical_json(suite_run["payload"])
    canon2 = hn.canonical_json(json.loads(path2.read_text()))
    ok = canon1 == canon2
    _emit(capsys, 13, "determinism", ok,
          f"two seed-7 runs agree on {len(canon1)} canonical bytes")


# The canonical seed-7 payload as recorded, whose sha256 is the canonical sha
# on an AVX-512 (SkylakeX) OpenBLAS kernel. A change that moves values on
# purpose re-records it:
#   PYTHONPATH=src python -c 'import sys; from epi_lab import harness as hn;
#   sys.stdout.write(hn.canonical_json(hn.suite_payload(hn.run_suite(7), 7)))' \
#     > tests/data/suite_seed7_canonical.json
RECORDED = Path(__file__).parent / "data" / "suite_seed7_canonical.json"
# numbers may move between OpenBLAS kernels (by at most 6.8e-12 across SkylakeX,
# Haswell, Zen, Sandybridge and Prescott), so they are compared to a bound, not bytes
RECORDED_TOL = 1e-10


def _deviation(run, ref, where):
    """(largest |x - y| / max(1, |y|), where) over the numbers of run and ref,
    which must otherwise agree exactly: the same keys, lengths, strings,
    booleans and integers."""
    if isinstance(ref, dict):
        assert run.keys() == ref.keys(), where
        return max((_deviation(run[k], ref[k], f"{where}.{k}") for k in ref), default=(0.0, where))
    if isinstance(ref, list):
        assert len(run) == len(ref), where
        return max((_deviation(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(run, ref))),
                   default=(0.0, where))
    if type(ref) is float and type(run) is float:
        if run == ref or (math.isnan(run) and math.isnan(ref)):
            return 0.0, where
        return abs(run - ref) / max(1.0, abs(ref)), where
    assert type(run) is type(ref) and run == ref, where
    return 0.0, where


def test_reports_match_the_recorded_payload(suite_run, capsys):
    run = hn.canonical_payload(suite_run["payload"])
    ref = json.loads(RECORDED.read_text())
    ids = [(r["check_name"], r["params"]) for r in ref["reports"]]
    assert [(r["check_name"], r["params"]) for r in run["reports"]] == ids
    assert [r["pass"] for r in run["reports"]] == [r["pass"] for r in ref["reports"]]
    assert {**run, "reports": None} == {**ref, "reports": None}
    dev, where = max(_deviation(x, y, f"{y['check_name']} {y['params']}")
                     for x, y in zip(run["reports"], ref["reports"]))
    with capsys.disabled():
        print(f"[acceptance] {len(ids)} reports against the recorded payload: largest deviation "
              f"{dev:.2e}{f' at {where}' if dev else ''}, bound {RECORDED_TOL:.0e}")
    assert dev <= RECORDED_TOL, where


def test_suite_exit_code(suite_run, capsys):
    ok = suite_run["code"] == 0
    n = len(suite_run["payload"]["reports"])
    with capsys.disabled():
        print(f"[acceptance] suite exit code {suite_run['code']} with {n} reports")
    assert ok
