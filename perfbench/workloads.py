"""The four benchmark workloads: three disjoint slices of the built-in corpus
and a seeded sweep of CLI requests.

Corpus workloads name `harness.default_suite` entries and run them in the
order listed here. The sweep draws one request per slot from a fixed pool
(`POOL_SIZE` variants per slot, generated once from the slot name), so every
request the sweep can produce has a recorded reference output. Each slot
fixes the parameters that set a request's cost (command, cutoff, label
count, noise variances); the variants differ in states, weights, noise centers
and seeds. That keeps the cost of a pass nearly independent of `--seed`
while no input repeats within a run.

Requests under ~0.4 s (qou, classical-epi, small beam splitters) vary by tens
of percent from run to run on a small shared machine. The sweep has 7 of them
and 11 slower ones, so the request median and the 0.9 tail quantile fall
among the slower, steadier requests.
"""

from __future__ import annotations

import random

CORPUS = {
    # ~95 % quadrature convolution: one-mode, two-mode-kernel and multi-time
    # heat-flow paths. cond-epi[f2-register] and linear-epi[register] compute
    # the same register channel output, so a cache shows here.
    "corpus-channel": (
        "conv-vacuum-entropy[t=0.2]",
        "conv-vacuum-entropy[t=0.5]",
        "conv-vacuum-entropy[t=1.0]",
        "cond-epi[f1,t=0.2]",
        "cond-epi[f1,t=1.0]",
        "cond-epi[f2-register]",
        "linear-epi[register]",
        "stam[register]",
    ),
    # ~85 % dense Fock eigensolves (two of the same 5625 x 5625 matrix),
    # beam splitters and the damping semigroup; no quadrature channel at all.
    "corpus-spectra": (
        "oracle-crossrep[vacuum]",
        "oracle-crossrep[thermal]",
        "oracle-crossrep[coherent]",
        "oracle-crossrep[tmsv]",
        "bs-epi[thermal-thermal]",
        "bs-epi[identity]",
        "bs-epi[fock-vacuum]",
        "qou-decay[fock-1]",
        "qou-decay[tmsv-k2]",
        "qou-decay[random]",
        "qou-fixed-point",
        "qou-semigroup",
        "qou-gaussian-fock-agreement",
    ),
    # Gaussian closed forms, grid densities and classical-side Fisher
    # ladders; no Fock channel or eigensolve of consequence.
    "corpus-grid": (
        "tightness[a=1,b=1]",
        "tightness[a=-1,b=0]",
        "tightness-noise-entropy",
        "tightness-epi[k=2]",
        "tightness-epi[k=4]",
        "tightness-epi[k=8]",
        "tightness-epi[k=16]",
        "linear-epi[lam=0.5]",
        "linear-epi[lam=0.9]",
        "linear-epi[lam=optimal]",
        "stam[matched]",
        "scaling[independent]",
        "scaling[register]",
        "isoperimetric[thermal,nu=2.0]",
        "isoperimetric[thermal,nu=5.0]",
        "isoperimetric[thermal,nu=10.0]",
        "isoperimetric-ratio-monotone",
        "isoperimetric[classical]",
        "isoperimetric[tmsv]",
        "fisher-isoperimetric[thermal]",
        "fisher-isoperimetric[classical]",
        "concavity[gauss-thermal]",
        "concavity[gauss-tmsv]",
        "debruijn-regularity[register]",
        "debruijn-regularity[independent]",
        "debruijn-consistency",
        "capacity-value",
        "capacity-monotone",
        "classical-epi[gauss-gauss]",
        "classical-epi[gauss-uniform]",
        "classical-epi[near-delta]",
    ),
}

SWEEP = "cli-sweep"
WORKLOADS = tuple(CORPUS) + (SWEEP,)
POOL_SIZE = 8


def corpus_entries(workload: str, seed: int):
    """(name, thunk) pairs of the workload, in order. A name that
    `default_suite` no longer provides is an error, never a skip."""
    from epi_lab import harness

    entries = dict(harness.default_suite(seed))
    missing = [name for name in CORPUS[workload] if name not in entries]
    if missing:
        raise LookupError(f"{workload}: default_suite has no entries {missing}")
    return [(name, entries[name]) for name in CORPUS[workload]]


# ---------------------------------------------------------------------------
# sweep request generators, one per slot


def _f(x: float) -> str:
    return f"{x:.2f}"


def _coherent(rng: random.Random) -> str:
    return f"coherent:{_f(rng.uniform(-0.8, 0.8))}{rng.uniform(-0.8, 0.8):+.2f}j"


def _one_mode_label(rng: random.Random) -> str:
    kind = rng.choice(("vacuum", "fock", "thermal", "cat", "coherent"))
    if kind == "vacuum":
        return "vacuum"
    if kind == "fock":
        return f"fock:{rng.randint(0, 2)}"
    if kind == "thermal":
        return f"thermal:{_f(rng.uniform(0.2, 0.8))}"
    if kind == "cat":
        return f"cat:{_f(rng.uniform(0.8, 1.8))}"
    return _coherent(rng)


def _probs(rng: random.Random, n: int) -> str:
    cuts = sorted(rng.randint(15, 85) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [100])]
    parts = [max(p, 10) for p in parts]
    parts[-1] = 100 - sum(parts[:-1])
    return "|".join(_f(p / 100) for p in parts)


def _register_epi(rng: random.Random, cutoff: int, ts) -> list:
    """Noise variances are fixed per slot: the smallest sets the shared grid
    spacing, and with it every label's quadrature grid and so the cost."""
    states = "|".join(_one_mode_label(rng) for _ in ts)
    noises = "|".join(
        f"gauss:{_f(t)}@{_f(rng.uniform(-0.6, 0.6))},{_f(rng.uniform(-0.6, 0.6))}" for t in ts
    )
    return ["epi", "--state", f"register:p={_probs(rng, len(ts))},{states}",
            "--noise", noises, "--cutoff", str(cutoff)]


def _tmsv_epi(rng: random.Random, cutoff: int) -> list:
    # every variance up to 0.5 gets the same 71 x 71 quadrature grid
    return ["epi", "--state", f"tmsv:{_f(rng.uniform(0.3, 0.66))}",
            "--noise", f"gauss:{_f(rng.uniform(0.2, 0.5))}", "--cutoff", str(cutoff)]


def _concavity(rng: random.Random) -> list:
    if rng.random() < 0.5:
        state = f"fock:{rng.randint(1, 2)}"
    else:
        state = f"cat:{_f(rng.uniform(0.8, 1.4))}"
    return ["concavity", "--state", state, "--cutoff", "32"]


def _bs_epi(rng: random.Random, cutoff: int) -> list:
    return ["bs-epi", "--state", _one_mode_label(rng), "--state-b", _one_mode_label(rng),
            "--lambda", _f(rng.uniform(0.1, 0.9)), "--cutoff", str(cutoff)]


def _qou(rng: random.Random, state: str, lam: float, cutoff: int) -> list:
    # lambda sets the environment cutoff and so the cost: fixed per slot
    return ["qou", "--state", state, "--mu", "1", "--lambda", _f(lam),
            "--t-list", "0.5,1,2", "--cutoff", str(cutoff), "--seed", str(rng.randint(0, 9999))]


def _qou_pure(rng: random.Random) -> list:
    kind = rng.choice(("fock", "coherent", "cat"))
    if kind == "fock":
        state = f"fock:{rng.randint(0, 2)}"
    elif kind == "cat":
        state = f"cat:{_f(rng.uniform(0.8, 1.4))}"
    else:
        state = _coherent(rng)
    return _qou(rng, state, 0.57, 20)


def _classical_epi(rng: random.Random) -> list:
    return ["classical-epi",
            "--noise", f"gauss:{_f(rng.uniform(0.2, 1.0))}@{_f(rng.uniform(-0.6, 0.6))},0.00",
            "--noise-b", f"gauss:{_f(rng.uniform(0.2, 1.0))}"]


# The two qou slots marked "defect" sit where fock.relative_entropy treats
# truncated-thermal levels below null_tol=1e-12 as null while the state still
# weighs them: D0 = inf, margin = NaN, exit code 1. They stay in the sweep so
# the defect counts in pass_ratio (see NOTES.md). The other two qou slots use
# lambda 0.57 and 0.58 at cutoffs 20 and 22, where no level is null, so the
# number of failing requests per pass does not depend on the seed.
SLOTS = (
    ("epi-register2-c48", lambda r: _register_epi(r, 48, (0.3, 0.8))),
    ("epi-register2-c56", lambda r: _register_epi(r, 56, (0.4, 0.5))),
    ("epi-register3-c40", lambda r: _register_epi(r, 40, (0.2, 0.5, 1.0))),
    ("epi-tmsv-c32-a", lambda r: _tmsv_epi(r, 32)),
    ("epi-tmsv-c32-b", lambda r: _tmsv_epi(r, 32)),
    ("concavity-c32", _concavity),
    ("bs-epi-c24", lambda r: _bs_epi(r, 24)),
    ("bs-epi-c32", lambda r: _bs_epi(r, 32)),
    ("bs-epi-c36-a", lambda r: _bs_epi(r, 36)),
    ("bs-epi-c36-b", lambda r: _bs_epi(r, 36)),
    ("bs-epi-c40-a", lambda r: _bs_epi(r, 40)),
    ("bs-epi-c40-b", lambda r: _bs_epi(r, 40)),
    ("bs-epi-c44", lambda r: _bs_epi(r, 44)),
    ("qou-random-c22", lambda r: _qou(r, f"random:{r.randint(1, 4)}", 0.58, 22)),
    ("qou-random-defect-c26", lambda r: _qou(r, f"random:{r.randint(1, 4)}", 0.33, 26)),
    ("qou-thermal-defect-c28",
     lambda r: _qou(r, f"thermal:{_f(r.uniform(0.5, 0.8))}", 0.3, 28)),
    ("qou-pure-c20", _qou_pure),
    ("classical-epi", _classical_epi),
)


def sweep_pool():
    """All requests the sweep can issue: POOL_SIZE variants per slot, as
    {request id: argv}."""
    return {
        f"{name}/{k}": gen(random.Random(f"{name}/{k}"))
        for name, gen in SLOTS
        for k in range(POOL_SIZE)
    }


def sweep_requests(seed: int, pass_index: int = 0):
    """(request id, argv) pairs of one sweep pass: one variant per slot, in a
    seeded order. Later passes of the same run step to the next variant, so
    requests repeat only after POOL_SIZE passes."""
    rng = random.Random(seed)
    picks = [rng.randrange(POOL_SIZE) for _ in SLOTS]
    order = list(range(len(SLOTS)))
    rng.shuffle(order)
    pool = sweep_pool()
    ids = [f"{SLOTS[s][0]}/{(picks[s] + pass_index) % POOL_SIZE}" for s in order]
    return [(rid, pool[rid]) for rid in ids]


def request_key(argv) -> str:
    return " ".join(argv)
