"""Spans around the public functions of epi_lab, installed from outside the
program.

`Tracer.install` replaces each traced function, in every epi_lab module that
binds it (`from .fock import displacement_batch` makes a second binding), by
a wrapper that records a span: layer, start, end, parent span and the
operation (corpus entry or sweep request) it ran under. A layer's self time
is its spans' durations minus their child spans. Counters are computed from
argument shapes and contents, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("gaussian", "phase_space", "fock", "channels", "measures", "harness", "cli")


def _public(module, prefix=""):
    return sorted(
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_") and name.startswith(prefix)
    )


def layer_table(mods) -> list:
    """(layer, module name, function names) for every traced function."""
    hn = mods["harness"]
    checks = _public(hn, "check_") + ["stam_matched_equality_report", "capacity_bound"]
    return [
        ("fock.displacement", "fock", ["displacement_batch"]),
        ("fock.eigensolve", "fock", ["eigenvalues", "relative_entropy", "trace_norm_distance"]),
        ("fock.moments", "fock", ["moments_of_state"]),
        ("fock.construct", "fock", ["vacuum", "fock", "thermal", "coherent", "cat",
                                    "two_mode_squeezed_vacuum", "random_mixed", "tensor_product"]),
        ("channels.noise_channel", "channels", ["classical_noise_channel", "extended_channel"]),
        ("channels.heat_flow", "channels", ["quantum_heat_flow_fock", "quantum_heat_flow_fock_multi",
                                            "register_heat_flow_A"]),
        ("channels.kernel", "channels", ["one_mode_kernels", "one_mode_kernel",
                                         "apply_one_mode_kernel", "qou_superoperator"]),
        ("channels.beam_splitter", "channels", ["beam_splitter", "beam_splitter_unitary",
                                                "qou_channel_fock", "qou_environment"]),
        ("channels.cq_heat_flow", "channels", ["cq_classical_heat_flow", "register_heat_flow_R"]),
        ("phase_space.convolution", "phase_space", ["classical_convolution", "classical_heat_flow"]),
        ("phase_space.pdf", "phase_space", ["gaussian_pdf", "delta_pdf", "uniform_square_pdf",
                                            "moments", "energy"]),
        ("phase_space.entropy", "phase_space", ["shannon_entropy"]),
        ("measures.fisher_A", "measures", ["fisher_A_given_M"]),
        ("measures.fisher_R", "measures", ["fisher_R_given_M"]),
        ("measures.cq_entropy", "measures", ["cq_conditional_entropy_R_given_M",
                                             "register_conditional_entropy_A",
                                             "integral_fisher_R_given_M",
                                             "conditional_mutual_information"]),
        ("gaussian", "gaussian", _public(mods["gaussian"])),
        ("harness", "harness", checks),
        ("harness.serialize", "harness", ["suite_payload", "payload_to_json", "canonical_payload",
                                          "canonical_json", "reports_to_csv"]),
        ("cli.parse", "cli", ["parse_config", "parse_instance", "parse_state_spec",
                              "parse_noise_spec"]),
        ("cli.write", "cli", ["write_reports"]),
    ]


# ---------------------------------------------------------------------------
# counters: (function name) -> f(bound arguments) -> [(counter, increment)],
# plus an optional repeat key; a key seen before in the pass is a repeat


def _fingerprint(a) -> tuple:
    """Shape plus a hash of an even sample of at most 65536 entries."""
    a = np.asarray(a)
    flat = a.reshape(-1)
    step = max(1, flat.size // 65536)
    digest = hashlib.blake2b(np.ascontiguousarray(flat[::step]).tobytes(), digest_size=16)
    return a.shape, digest.hexdigest()


def _grid(f) -> tuple:
    return _fingerprint(f.values), f.origin, f.spacing


def _eig(n, *matrices):
    return [("calls", 1), ("work_n3", n ** 3), ("max_dim", n)], tuple(map(_fingerprint, matrices))


COUNTERS = {
    "displacement_batch": lambda a: (
        [("calls", 1), ("points", len(np.atleast_2d(a["xis"])))], None),
    "eigenvalues": lambda a: _eig(a["rho"].dim, a["rho"].matrix),
    "relative_entropy": lambda a: _eig(a["sigma"].dim, a["sigma"].matrix),
    "trace_norm_distance": lambda a: _eig(a["rho"].dim, a["rho"].matrix, a["sigma"].matrix),
    "classical_noise_channel": lambda a: (
        [("calls", 1)], ("noise", _grid(a["f"]), _fingerprint(a["rho"].matrix), a["target"])),
    "quantum_heat_flow_fock": lambda a: (
        [("calls", 1)],
        ("heat", _fingerprint(a["rho"].matrix), (a["t"],), a["target"], a["spacing"], a["extent"])),
    "quantum_heat_flow_fock_multi": lambda a: (
        [("calls", 1)],
        ("heat", _fingerprint(a["rho"].matrix), tuple(a["t_list"]), a["target"], a["spacing"],
         a["extent"])),
    "beam_splitter": lambda a: ([("calls", 1)], None),
    "classical_convolution": lambda a: (
        [("calls", 1), ("cells_out", (a["g"].size + a["f"].size - 1) ** 2)], None),
    "fisher_A_given_M": lambda a: ([("calls", 1)], None),
    "fisher_R_given_M": lambda a: ([("calls", 1)], None),
}
# layers whose repeat keys share one seen-set, and the ratio they report
REPEATS = {"fock.eigensolve": "fock.eigensolve", "channels.noise_channel": "channels",
           "channels.heat_flow": "channels"}
# layers whose `.quadrature_points` count the displacement_batch points
# evaluated inside their spans: the quadrature the program actually runs
QUADRATURE = ("channels.noise_channel", "channels.heat_flow")
FISHER = ("measures.fisher_A", "measures.fisher_R")

# (name, unit, better) of every per-layer metric a traced run reports; the
# harness report counts and cli request counts come from the run itself
PER_LAYER = [
    ("fock.displacement.calls", "count", "lower"),
    ("fock.displacement.points", "count", "lower"),
    ("fock.displacement.self_s", "s", "lower"),
    ("fock.eigensolve.calls", "count", "lower"),
    ("fock.eigensolve.self_s", "s", "lower"),
    ("fock.eigensolve.work_n3", "count", "lower"),
    ("fock.eigensolve.max_dim", "count", "lower"),
    ("fock.eigensolve.repeat_ratio", "ratio", "lower"),
    ("fock.moments.self_s", "s", "lower"),
    ("fock.construct.self_s", "s", "lower"),
    ("channels.noise_channel.calls", "count", "lower"),
    ("channels.noise_channel.self_s", "s", "lower"),
    ("channels.noise_channel.quadrature_points", "count", "lower"),
    ("channels.heat_flow.calls", "count", "lower"),
    ("channels.heat_flow.self_s", "s", "lower"),
    ("channels.heat_flow.quadrature_points", "count", "lower"),
    ("channels.kernel.self_s", "s", "lower"),
    ("channels.beam_splitter.calls", "count", "lower"),
    ("channels.beam_splitter.self_s", "s", "lower"),
    ("channels.cq_heat_flow.self_s", "s", "lower"),
    ("channels.repeat_ratio", "ratio", "lower"),
    ("phase_space.convolution.calls", "count", "lower"),
    ("phase_space.convolution.self_s", "s", "lower"),
    ("phase_space.convolution.cells_out", "count", "lower"),
    ("phase_space.pdf.self_s", "s", "lower"),
    ("phase_space.entropy.self_s", "s", "lower"),
    ("measures.fisher_A.calls", "count", "lower"),
    ("measures.fisher_A.total_s", "s", "lower"),
    ("measures.fisher_R.calls", "count", "lower"),
    ("measures.fisher_R.total_s", "s", "lower"),
    ("measures.fisher.failed", "count", "lower"),
    ("measures.cq_entropy.self_s", "s", "lower"),
    ("gaussian.calls", "count", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("harness.checks", "count", "higher"),
    ("harness.reports", "count", "higher"),
    ("harness.reports_failed", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.serialize_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.parse_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Span recorder for one process; `install` once, `uninstall` to restore."""

    def __init__(self):
        self._installed = []  # (module, attribute, original)
        self.originals = set()  # ids of the wrapped functions
        self.reset()

    def reset(self):
        self.spans = []       # [layer, function, start, end, parent, op]
        self._stack = []      # open span indices
        self._child = []      # child time accumulated by each open span
        self._depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.seen = defaultdict(set)
        self.op_id = None

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"epi_lab.{m}") for m in MODULES}
        package = [importlib.import_module("epi_lab")] + list(mods.values())
        for layer, module, names in layer_table(mods):
            for name in names:
                orig = getattr(mods[module], name)
                wrapper = self._wrap(layer, name, orig)
                self.originals.add(id(orig))
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._installed.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed = []

    def unwrapped_bindings(self) -> list:
        """Module attributes in epi_lab that still hold a traced original."""
        import epi_lab

        mods = [epi_lab] + [importlib.import_module(f"epi_lab.{m}") for m in MODULES]
        return [f"{mod.__name__}.{attr}" for mod in mods for attr, value in vars(mod).items()
                if id(value) in self.originals]

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        repeat_set = REPEATS.get(layer)
        fisher = layer in FISHER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                incs, key = counter(bound.arguments)
                for what, n in incs:
                    metric = f"{layer}.{what}"
                    if what == "max_dim":
                        self.counts[metric] = max(self.counts[metric], n)
                    else:
                        self.counts[metric] += n
                if key is not None:
                    self.counts[f"{repeat_set}.keyed"] += 1
                    if key in self.seen[repeat_set]:
                        self.counts[f"{repeat_set}.repeats"] += 1
                    self.seen[repeat_set].add(key)
                if name == "displacement_batch":
                    points = dict(incs)["points"]
                    for outer in QUADRATURE:
                        if self._depth[outer]:
                            self.counts[f"{outer}.quadrature_points"] += points
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [layer, name, 0.0, 0.0, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            self._child.append(0.0)
            self._depth[layer] += 1
            span[2] = start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if fisher:
                    self.counts["measures.fisher.failed"] += 1
                raise
            finally:
                span[3] = end = time.perf_counter()
                duration = end - start
                self._stack.pop()
                self.self_s[layer] += duration - self._child.pop()
                self._depth[layer] -= 1
                if self._depth[layer] == 0:
                    self.total_s[layer] += duration
                if self._child:
                    self._child[-1] += duration

        return traced

    @contextmanager
    def op(self, op_id: str):
        """Root span of one corpus entry or sweep request."""
        self.op_id = op_id
        span = ["op", op_id, 0.0, 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._child.append(0.0)
        span[2] = start = time.perf_counter()
        try:
            yield
        finally:
            span[3] = end = time.perf_counter()
            self._stack.pop()
            self.self_s["op"] += (end - start) - self._child.pop()
            self.op_id = None

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Span-derived per-layer metrics of one pass (see PER_LAYER)."""
        c, own = self.counts, self.self_s
        out = {name: c[name] for name in (
            "fock.displacement.calls", "fock.displacement.points",
            "fock.eigensolve.calls", "fock.eigensolve.work_n3", "fock.eigensolve.max_dim",
            "channels.noise_channel.calls", "channels.noise_channel.quadrature_points",
            "channels.heat_flow.calls", "channels.heat_flow.quadrature_points",
            "channels.beam_splitter.calls", "phase_space.convolution.calls",
            "phase_space.convolution.cells_out", "measures.fisher_A.calls",
            "measures.fisher_R.calls", "measures.fisher.failed")}
        for layer in ("fock.displacement", "fock.eigensolve", "fock.moments", "fock.construct",
                      "channels.noise_channel", "channels.heat_flow", "channels.kernel",
                      "channels.beam_splitter", "channels.cq_heat_flow",
                      "phase_space.convolution", "phase_space.pdf", "phase_space.entropy",
                      "measures.cq_entropy", "gaussian", "harness"):
            out[f"{layer}.self_s"] = own[layer]
        for group in ("fock.eigensolve", "channels"):
            keyed = c[f"{group}.keyed"]
            out[f"{group}.repeat_ratio"] = c[f"{group}.repeats"] / keyed if keyed else 0.0
        out.update({
            "measures.fisher_A.total_s": self.total_s["measures.fisher_A"],
            "measures.fisher_R.total_s": self.total_s["measures.fisher_R"],
            "gaussian.calls": sum(span[0] == "gaussian" for span in self.spans),
            "harness.checks": sum(span[1].startswith("check_") for span in self.spans),
            "harness.serialize_s": own["harness.serialize"],
            "cli.parse_s": own["cli.parse"],
            "cli.write_s": self.total_s["cli.write"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": own["op"],
            "trace.spans": len(self.spans),
        })
        return out

    # -- checks -------------------------------------------------------------

    def check_spans(self, wall_s: float) -> list:
        """Nesting and self-time invariants of the recorded spans."""
        problems = []
        child = defaultdict(float)
        for i, (layer, name, start, end, parent, op) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} {name} ends before it starts")
            if parent is not None:
                p = self.spans[parent]
                if not (p[2] <= start and end <= p[3]):
                    problems.append(f"span {i} {name} is not inside its parent {p[1]}")
                if p[5] != op:
                    problems.append(f"span {i} {name} has another op than its parent")
                child[parent] += end - start
        total_self = 0.0
        for i, span in enumerate(self.spans):
            own = (span[3] - span[2]) - child[i]
            if own < -1e-9:
                problems.append(f"span {i} {span[1]} has negative self time {own}")
            total_self += own
        if total_self > wall_s + 1e-9:
            problems.append(f"self times sum to {total_self} > pass wall {wall_s}")
        return problems
