"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_no_module_binds_an_unwrapped_traced_function(tracer):
    assert tracer.originals
    assert tracer.unwrapped_bindings() == []


def test_uninstall_restores_every_binding(tracer):
    from epi_lab import channels, fock

    assert hasattr(channels.displacement_batch, "__wrapped__")
    tracer.uninstall()
    assert channels.displacement_batch is fock.displacement_batch
    assert not hasattr(fock.displacement_batch, "__wrapped__")


def test_spans_nest_and_self_times_fit_the_wall(tracer):
    cheap = ("tightness[a=1,b=1]", "qou-decay[fock-1]", "bs-epi[identity]",
             "debruijn-consistency", "scaling[independent]")
    entries = [(n, fn) for n, fn in workloads.corpus_entries("corpus-grid", 7)
               + workloads.corpus_entries("corpus-spectra", 7) if n in cheap]
    wall, ops = run.corpus_pass(entries, 7, checks.load_reference(), tracer)
    assert not any(op["failed"] or op["mismatch"] for op in ops)
    assert tracer.check_spans(wall) == []
    assert all(span[5] is not None for span in tracer.spans if span[4] is not None)
    m = tracer.metrics(wall)
    assert m["channels.beam_splitter.calls"] > 0 and m["fock.eigensolve.calls"] > 0
    assert sum(tracer.self_s.values()) <= wall


def test_sweep_requests_follow_the_seed():
    a, b = workloads.sweep_requests(11), workloads.sweep_requests(11)
    assert a == b
    assert workloads.sweep_requests(12) != a
    assert len({workloads.request_key(argv) for _, argv in a}) == len(a) == len(workloads.SLOTS)
    second = workloads.sweep_requests(11, pass_index=1)
    assert not {rid for rid, _ in a} & {rid for rid, _ in second}


def test_corpus_workloads_are_disjoint_and_present():
    from epi_lab import harness

    names = [n for entries in workloads.CORPUS.values() for n in entries]
    assert len(names) == len(set(names))
    suite = {name for name, _ in harness.default_suite(7)}
    assert set(names) <= suite


def test_missing_corpus_entry_fails_loudly(monkeypatch):
    monkeypatch.setitem(workloads.CORPUS, "corpus-grid", ("no-such-entry",))
    with pytest.raises(LookupError):
        workloads.corpus_entries("corpus-grid", 7)


def test_reference_covers_every_operation():
    ref = checks.load_reference()
    assert set(ref["sweep"]) == {workloads.request_key(a) for a in workloads.sweep_pool().values()}
    assert set(ref["corpus"]) == {n for entries in workloads.CORPUS.values() for n in entries}


def test_judge_counts_the_recorded_defect_without_a_mismatch():
    defect = {"check_name": "qou-decay", "params": {}, "pass": False,
              "lhs": float("nan"), "rhs": float("inf"), "margin": float("nan")}
    ref = {"exit": 1, "reports": [defect]}
    assert checks.judge(ref, [dict(defect)], 1) == (True, [], False)
    clean = dict(defect, **{"pass": True, "lhs": 0.1, "rhs": 0.2, "margin": 0.1})
    assert checks.judge(ref, [clean], 0) == (False, [], True)
    ok = {"exit": 0, "reports": [clean]}
    failed, mismatch, _ = checks.judge(ok, [dict(clean, lhs=0.1002)], 0)
    assert failed and mismatch
    assert checks.judge(ok, [dict(clean, lhs=0.10001)], 0) == (False, [], False)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_request_quantiles():
    times = [float(i) for i in range(1, 19)]
    assert run.quantile(times, run.TAIL_QUANTILE) > run.quantile(times, 0.5)
    assert run.quantile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)
    assert run.quantile([3.0], 0.5) == 3.0 and run.quantile([1.0, 5.0], 1.0) == 5.0


def test_quadrature_points_count_the_grid_the_program_builds(tracer):
    from epi_lab import channels, fock, phase_space

    rho = fock.vacuum(12)
    channels.quantum_heat_flow_fock_multi(rho, [0.05, 0.1])
    cells = phase_space.gaussian_pdf(0.1, spacing=0.25 * 0.05 ** 0.5).values.size
    assert tracer.counts["channels.heat_flow.quadrature_points"] == cells
    assert tracer.counts["channels.noise_channel.quadrature_points"] == 0
    channels.quantum_heat_flow_fock(rho, 0.1)
    cells_single = phase_space.gaussian_pdf(0.1).values.size
    assert tracer.counts["channels.heat_flow.quadrature_points"] == cells + cells_single
    assert tracer.counts["channels.noise_channel.quadrature_points"] == cells_single
