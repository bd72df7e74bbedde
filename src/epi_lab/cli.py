"""Command-line frontend: parse state and noise specifications, run single
checks or the full suite, and write JSON or CSV reports.

State grammar:   vacuum | fock:N | thermal:N | coherent:RE[+IMj] | cat:A
                 | tmsv:R | random:RANK
                 | register:p=P1[|P2...],SPEC1|SPEC2[|...]
Noise grammar:   gauss:T[@X,Y] | file:PATH, with one |-separated entry per
                 register label (a single entry is shared).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import channels as ch
from . import fock as fk
from . import gaussian as ga
from . import harness as hn
from . import phase_space as ps
from .errors import EpiLabError, UsageError

COMMANDS = (
    "epi", "linear-epi", "stam", "scaling", "tightness", "isoperimetric",
    "concavity", "capacity", "qou", "bs-epi", "classical-epi", "suite",
)


def _finite(text: str, kind=float):
    """A finite float (or complex); NaN, infinities and non-numbers are usage errors."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise UsageError(f"expected a number, got {text!r}") from exc
    if not np.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _int_in(text: str, lo: int, hi: float = np.inf) -> int:
    """An integer in [lo, hi]; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc
    if not lo <= value <= hi:
        raise UsageError(f"expected an integer in [{lo}, {hi}], got {text!r}")
    return value


def _parse_floats(text: str):
    values = [_finite(x) for x in text.split(",") if x.strip()]
    if not values:
        raise UsageError(f"expected at least one number, got {text!r}")
    return values


def parse_state_spec(spec: str, cutoff: int, seed: int):
    """One-mode Fock state (plus its Gaussian twin when one exists)."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "vacuum":
            return fk.vacuum(cutoff), ga.vacuum_state()
        if kind == "fock":
            return fk.fock(int(arg), cutoff), None
        if kind == "thermal":
            n = _finite(arg)
            return fk.thermal(n, cutoff), ga.thermal_state(n)
        if kind == "coherent":
            alpha = _finite(arg.replace(" ", ""), complex)
            return fk.coherent(alpha, cutoff), ga.coherent_state(alpha)
        if kind == "cat":
            return fk.cat(_finite(arg), cutoff), None
        if kind == "random":
            return fk.random_mixed(int(arg), cutoff, seed), None
    except (ValueError, UsageError) as exc:
        raise UsageError(f"bad state spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown state constructor {kind!r} in {spec!r}")


def _parse_gauss_args(spec: str):
    body, _, center = spec.partition(":")[2].partition("@")
    try:
        t = _finite(body)
        cxy = tuple(_finite(x) for x in center.split(",")) if center else (0.0, 0.0)
    except UsageError as exc:
        raise UsageError(f"bad noise spec {spec!r}: {exc}") from exc
    if len(cxy) != 2:
        raise UsageError(f"noise center needs two coordinates X,Y, got {spec!r}")
    return t, cxy


def parse_noise_spec(spec: str, spacing=None) -> ps.GridPdf:
    kind = spec.partition(":")[0]
    if kind == "gauss":
        t, cxy = _parse_gauss_args(spec)
        return ps.gaussian_pdf(t, center=cxy, spacing=spacing)
    if kind == "file":
        path = spec.partition(":")[2]
        try:
            f = ps.load_gridpdf(path)
            f.validate()
            return f
        except OSError as exc:
            raise UsageError(f"cannot read noise file {path!r}: {exc}") from exc
    raise UsageError(f"unknown noise constructor {kind!r} in {spec!r}")


def _tmsv_r(spec: str):
    """Squeezing parameter of a `tmsv:R` spec; None for any other state."""
    kind, _, arg = spec.partition(":")
    if kind != "tmsv":
        return None
    try:
        return _finite(arg)
    except UsageError as exc:
        raise UsageError(f"bad state spec {spec!r}: {exc}") from exc


def _parse_input(state_spec: str, args):
    """The input A with its memory named by --state: (instance params, a
    thunk that builds it, its Gaussian twin or None)."""
    if state_spec.startswith("register:"):
        body = state_spec[len("register:") :]
        head, _, specs = body.partition(",")
        if not head.startswith("p=") or not specs:
            raise UsageError(f"register spec must look like register:p=0.5,fock:1|cat:2 "
                             f"(got {state_spec!r})")
        ps_list = _parse_floats(head[2:].replace("|", ","))
        parts = specs.split("|")
        if len(ps_list) == 1 and len(parts) == 2:
            ps_list = [ps_list[0], 1.0 - ps_list[0]]
        if len(ps_list) != len(parts):
            raise UsageError("register probabilities and state specs disagree in length")
        reg = ch.Register(ps_list, [parse_state_spec(p, args.cutoff, args.seed)[0] for p in parts])
        return {"family": "F2", "labels": len(parts), "instance": "register"}, lambda: reg, None
    r = _tmsv_r(state_spec)
    if r is not None:
        return {"family": "F1"}, lambda: fk.two_mode_squeezed_vacuum(r, args.cutoff), ga.tmsv_state(r)
    st, gs = parse_state_spec(state_spec, args.cutoff, args.seed)
    return {"family": "trivial-M"}, lambda: st, gs


def parse_instance(state_spec: str, noise_spec: str, args) -> hn.Instance:
    """Assemble the check instance named by --state/--noise."""
    params, a, gs = _parse_input(state_spec, args)
    spacing = args.grid_spacing
    labels = params.get("labels")
    if labels:
        noises = noise_spec.split("|")
        if len(noises) == 1:
            noises = noises * labels
        if len(noises) != labels:
            raise UsageError("need one noise entry per register label")
        return hn.Instance(params, a,
                           lambda: ch.Register(a().probs, [parse_noise_spec(n, spacing) for n in noises]))

    def noise():
        return parse_noise_spec(noise_spec, spacing)

    t = _parse_gauss_args(noise_spec)[0] if noise_spec.startswith("gauss:") else None
    if gs is None or t is None:
        return hn.Instance({**params, "instance": "cq"}, a, noise)
    return hn.Instance({**params, "instance": state_spec, "t": t}, a, noise, gaussian=lambda: (gs, t))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epi-lab",
        description="Verification lab for bosonic entropy power inequalities.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--state", help="state spec (see grammar); default thermal:1.0 for bs-epi, "
                                    "tmsv:0.66 for every other command")
    p.add_argument("--state-b", default="vacuum", help="second input for bs-epi")
    p.add_argument("--noise", default="gauss:0.5", help="noise spec (see grammar)")
    p.add_argument("--noise-b", default="gauss:0.5", help="second noise for classical-epi")
    p.add_argument("--cutoff", type=lambda x: _int_in(x, 1, fk.MAX_CUTOFF), default=60,
                   help=f"Fock cutoff per mode, in [1, {fk.MAX_CUTOFF}]")
    p.add_argument("--grid-spacing", type=_finite, default=None)
    p.add_argument("--t-list", default="0.5,1.0,2.0", help="comma-separated times")
    p.add_argument("--k-list", default="2,4,8,16", help="comma-separated family sizes")
    p.add_argument("--lambda", dest="lam", default="0.5",
                   help="mixing parameter in [0,1], or 'optimal' for linear-epi")
    p.add_argument("--mu", type=_finite, default=1.0)
    p.add_argument("--a", type=_finite, default=1.0, help="tightness target S(A|M)")
    p.add_argument("--b", type=_finite, default=1.0, help="tightness target S(R|M)")
    p.add_argument("--E", type=_finite, default=1.0, help="energy budget for capacity")
    p.add_argument("--seed", type=lambda x: _int_in(x, 0), default=7, help="non-negative random seed")
    p.add_argument("--out", default=None, help="report output path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--config", default=None, help="flat key = value config file")
    return p


def _apply_config_file(path) -> list:
    """Prepend file options so explicit flags win."""
    opts = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("_", "-")
                opts += [f"--{key}", val.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    return opts


def parse_config(argv):
    parser = build_parser()
    if "-h" in argv or "--help" in argv:
        parser.parse_args(argv)  # prints help and exits
    try:
        args, extra = parser.parse_known_args(argv)
        if args.config:
            args, extra = parser.parse_known_args(argv[:1] + _apply_config_file(args.config) + argv[1:])
    except SystemExit as exc:
        raise UsageError("invalid arguments") from exc
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    if args.state is None:
        args.state = "thermal:1.0" if args.command == "bs-epi" else "tmsv:0.66"
    return args


def _lam_value(args):
    """The --lambda value: a finite number, or "optimal", which only linear-epi takes."""
    if args.lam == "optimal":
        if args.command != "linear-epi":
            raise UsageError(f"{args.command} needs a numeric --lambda")
        return "optimal"
    try:
        return _finite(args.lam)
    except UsageError as exc:
        raise UsageError(f"--lambda must be a number or 'optimal', got {args.lam!r}") from exc


def run_command(args) -> list:
    cmd = args.command
    t_list = _parse_floats(args.t_list)
    if cmd == "suite":
        return hn.run_suite(seed=args.seed)
    if cmd == "epi":
        return hn.check_conditional_epi(parse_instance(args.state, args.noise, args))
    if cmd == "linear-epi":
        return [hn.check_linear_epi(parse_instance(args.state, args.noise, args), _lam_value(args))]
    if cmd == "stam":
        return hn.check_stam(parse_instance(args.state, args.noise, args))
    if cmd == "scaling":
        r = parse_instance(args.state, args.noise, args).r()
        sigma = max(ps.largest_variance(f) for f in ch.Register.of(r).parts)
        return [hn.check_scaling(r, t_list, sigma, args.state)]
    if cmd == "tightness":
        k_list = _parse_floats(args.k_list)
        reports = [hn.check_tightness(args.a, args.b, k_list),
                   hn.check_tightness_noise_entropy(args.b)]
        reports += [hn.check_tightness_epi(args.a, args.b, k) for k in k_list]
        return reports
    if cmd in ("isoperimetric", "concavity"):
        # both check the input A alone: its Gaussian twin, else its Fock state or register
        _, a, gs = _parse_input(args.state, args)
        state = a() if gs is None else gs
        if cmd == "isoperimetric":
            return [hn.check_isoperimetric(state, args.state)]
        return [hn.check_concavity_entropy_power(state, args.state)]
    if cmd == "capacity":
        f = parse_noise_spec(args.noise, args.grid_spacing)
        val = hn.capacity_bound(args.E, f)
        return [hn.make_report("capacity-bound", {"E": args.E, "noise": args.noise}, val, 0.0, val, 0.0,
                               hn.capacity_terms(f))]
    if cmd == "qou":
        lam = _lam_value(args)
        r = _tmsv_r(args.state)
        state = parse_state_spec(args.state, args.cutoff, args.seed)[0] if r is None else ga.tmsv_state(r)
        return [hn.check_qou_decay(state, args.mu, lam, t_list)]
    if cmd == "bs-epi":
        lam = _lam_value(args)
        st_a, _ = parse_state_spec(args.state, args.cutoff, args.seed)
        st_b, _ = parse_state_spec(args.state_b, args.cutoff, args.seed)
        return [hn.check_beam_splitter_epi(st_a, st_b, lam, f"{args.state}|{args.state_b}")]
    if cmd == "classical-epi":
        g = parse_noise_spec(args.noise, args.grid_spacing)
        f = parse_noise_spec(args.noise_b, g.spacing)
        return [hn.check_classical_epi(g, f, f"{args.noise}|{args.noise_b}")]
    raise UsageError(f"unknown command {cmd!r}")


def write_reports(reports, args) -> str:
    payload = hn.suite_payload(reports, args.seed)
    if args.format == "csv":
        text = hn.reports_to_csv(reports)
    else:
        text = hn.payload_to_json(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report file {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def run(argv) -> int:
    """Exit code 0 iff all checks pass, 1 on an inequality failure, 2 on
    usage or numeric errors."""
    try:
        args = parse_config(argv)
        reports = run_command(args)
        write_reports(reports, args)
    except UsageError as exc:
        print(f"epi-lab: usage error: {exc}", file=sys.stderr)
        return 2
    except (EpiLabError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"epi-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"epi-lab: FAILED {r.check_name} {r.params} margin={r.margin!r} "
              f"tolerance={r.tolerance!r}", file=sys.stderr)
    return 1 if failed else 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
