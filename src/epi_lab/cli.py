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
import math
import sys

import numpy as np

from . import fock as fk
from . import gaussian as ga
from . import harness as hn
from . import phase_space as ps
from .errors import EpiLabError, UsageError

COMMANDS = (
    "epi", "linear-epi", "stam", "scaling", "tightness", "isoperimetric",
    "concavity", "capacity", "qou", "bs-epi", "classical-epi", "suite",
)


def _parse_floats(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def parse_state_spec(spec: str, cutoff: int, seed: int):
    """One-mode Fock state (plus its Gaussian twin when one exists)."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "vacuum":
            return fk.vacuum(cutoff), ga.vacuum_state()
        if kind == "fock":
            return fk.fock(int(arg), cutoff), None
        if kind == "thermal":
            return fk.thermal(float(arg), cutoff), ga.thermal_state(float(arg))
        if kind == "coherent":
            alpha = complex(arg.replace(" ", ""))
            gs = ga.GaussianState(
                [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag], 0.5 * np.eye(2)
            )
            return fk.coherent(alpha, cutoff), gs
        if kind == "cat":
            return fk.cat(float(arg), cutoff), None
        if kind == "random":
            return fk.random_mixed(int(arg), cutoff, seed), None
    except (ValueError, EpiLabError) as exc:
        if isinstance(exc, EpiLabError) and not isinstance(exc, UsageError):
            raise
        raise UsageError(f"bad state spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown state constructor {kind!r} in {spec!r}")


def _parse_gauss_args(spec: str):
    body, _, center = spec.partition(":")[2].partition("@")
    try:
        t = float(body)
        cxy = tuple(float(x) for x in center.split(",")) if center else (0.0, 0.0)
    except ValueError as exc:
        raise UsageError(f"bad noise spec {spec!r}") from exc
    return t, cxy


def parse_noise_spec(spec: str, spacing=None, extent=None, snap=False) -> ps.GridPdf:
    kind = spec.partition(":")[0]
    if kind == "gauss":
        t, cxy = _parse_gauss_args(spec)
        if snap and spacing:
            # register labels must share one grid lattice
            cxy = tuple(round(c / spacing) * spacing for c in cxy)
        return ps.gaussian_pdf(t, center=cxy, spacing=spacing, extent=extent)
    if kind == "file":
        path = spec.partition(":")[2]
        try:
            f = ps.load_gridpdf(path)
            f.validate()
            return f
        except OSError as exc:
            raise UsageError(f"cannot read noise file {path!r}: {exc}") from exc
    raise UsageError(f"unknown noise constructor {kind!r} in {spec!r}")


def _gauss_noise_t(spec: str):
    kind, _, arg = spec.partition(":")
    if kind != "gauss":
        return None
    return float(arg.partition("@")[0])


def parse_instance(state_spec: str, noise_spec: str, args) -> hn.Instance:
    """Assemble the check instance named by --state/--noise."""
    spacing, extent = args.grid_spacing, args.grid_extent
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
        states = [parse_state_spec(p, args.cutoff, args.seed)[0] for p in parts]
        noises = noise_spec.split("|")
        if len(noises) == 1:
            noises = noises * len(parts)
        if len(noises) != len(parts):
            raise UsageError("need one noise entry per register label")
        if spacing is None:
            # shared lattice across the labels: resolve the narrowest noise
            ts = [_parse_gauss_args(n)[0] for n in noises if n.startswith("gauss:")]
            if ts:
                spacing = 0.25 * math.sqrt(min(0.5, min(ts)))
        return hn.Instance(
            {"family": "F2", "labels": len(parts), "instance": "register"}, lambda: states,
            lambda s=None: tuple(parse_noise_spec(n, s or spacing, extent, snap=True) for n in noises),
            probs=ps_list,
        )
    if state_spec.startswith("tmsv:"):
        r = float(state_spec.partition(":")[2])
        family, fock, gs = "F1", lambda: fk.two_mode_squeezed_vacuum(r, args.cutoff), ga.tmsv_state(r)
    else:
        st, gs = parse_state_spec(state_spec, args.cutoff, args.seed)
        family, fock = "trivial-M", lambda: st

    def noise(s=None):
        return (parse_noise_spec(noise_spec, s or spacing, extent),)

    t = _gauss_noise_t(noise_spec)
    if gs is None or t is None:
        return hn.Instance({"family": family, "instance": "cq"}, fock, noise)
    return hn.Instance(
        {"family": family, "instance": state_spec, "t": t}, fock, noise, gaussian=lambda: gs,
        noise_t=t, fock_diagnostics={"cutoff": args.cutoff} if family == "F1" else {},
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epi-lab",
        description="Verification lab for bosonic entropy power inequalities.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--state", default="tmsv:0.66", help="state spec (see grammar)")
    p.add_argument("--state-b", default="vacuum", help="second input for bs-epi")
    p.add_argument("--noise", default="gauss:0.5", help="noise spec (see grammar)")
    p.add_argument("--noise-b", default="gauss:0.5", help="second noise for classical-epi")
    p.add_argument("--cutoff", type=int, default=60, help="Fock cutoff per mode")
    p.add_argument("--grid-spacing", type=float, default=None)
    p.add_argument("--grid-extent", type=float, default=None)
    p.add_argument("--t-list", default="0.5,1.0,2.0", help="comma-separated times")
    p.add_argument("--k-list", default="2,4,8,16", help="comma-separated family sizes")
    p.add_argument("--lambda", dest="lam", default="0.5",
                   help="mixing parameter in [0,1], or 'optimal' for linear-epi")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0, help="tightness target S(A|M)")
    p.add_argument("--b", type=float, default=1.0, help="tightness target S(R|M)")
    p.add_argument("--E", type=float, default=1.0, help="energy budget for capacity")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=None, help="tolerance override")
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
        prelim, _ = parser.parse_known_args(argv)
        if prelim.config:
            command, rest = argv[0], [a for a in argv[1:]]
            argv = [command] + _apply_config_file(prelim.config) + rest
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        raise UsageError("invalid arguments") from exc
    extra = [e for e in extra if e != "--config" and e != (prelim.config or "")]
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _lam_value(args):
    if args.lam == "optimal":
        return "optimal"
    try:
        return float(args.lam)
    except ValueError as exc:
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
        inst = parse_instance(args.state, args.noise, args)
        if inst.gaussian:
            raise UsageError("scaling runs on register or independent-noise instances")
        sigma = max(float(np.linalg.eigvalsh(ps.moments(f)[1]).max()) for f in inst.noise())
        return [hn.check_scaling(inst.pair(), t_list, sigma, args.state)]
    if cmd == "tightness":
        k_list = _parse_floats(args.k_list)
        reports = [hn.check_tightness(args.a, args.b, k_list),
                   hn.check_tightness_noise_entropy(args.b)]
        reports += [hn.check_tightness_epi(args.a, args.b, k) for k in k_list]
        return reports
    if cmd == "isoperimetric":
        inst = parse_instance(args.state, args.noise, args)
        # without a Gaussian twin the inequality is checked on the noise R
        return [hn.check_isoperimetric(inst.gaussian() if inst.gaussian else inst.pair(), args.state)]
    if cmd == "concavity":
        inst = parse_instance(args.state, args.noise, args)
        if inst.gaussian:
            state = inst.gaussian()
        else:
            state = inst.fock() if inst.probs is None else inst.pair()
        grid = [round(0.05 * i, 10) for i in range(11)]
        return [hn.check_concavity_entropy_power(state, grid, args.state)]
    if cmd == "capacity":
        f = parse_noise_spec(args.noise, args.grid_spacing, args.grid_extent)
        val = hn.capacity_bound(args.E, f)
        rep = hn.make_report(
            "capacity-bound", {"E": args.E, "noise": args.noise}, val, 0.0, val, 0.0,
            {"E0": ps.energy(f) / 2.0, "S0": ps.shannon_entropy(f)},
        )
        return [rep]
    if cmd == "qou":
        lam = _lam_value(args)
        if lam == "optimal":
            raise UsageError("qou needs a numeric --lambda")
        if args.state.startswith("tmsv:"):
            r = float(args.state.partition(":")[2])
            return [hn.check_qou_decay(ga.tmsv_state(r), args.mu, lam, t_list, bipartite=True)]
        st, _ = parse_state_spec(args.state, args.cutoff, args.seed)
        return [hn.check_qou_decay(st, args.mu, lam, t_list, bipartite=False)]
    if cmd == "bs-epi":
        lam = _lam_value(args)
        if lam == "optimal":
            raise UsageError("bs-epi needs a numeric --lambda")
        st_a, _ = parse_state_spec(args.state, args.cutoff, args.seed)
        st_b, _ = parse_state_spec(args.state_b, args.cutoff, args.seed)
        return [hn.check_beam_splitter_epi(st_a, st_b, lam, f"{args.state}|{args.state_b}")]
    if cmd == "classical-epi":
        g = parse_noise_spec(args.noise, args.grid_spacing, args.grid_extent)
        f = parse_noise_spec(args.noise_b, g.spacing, args.grid_extent)
        return [hn.check_classical_epi(g, f, f"{args.noise}|{args.noise_b}")]
    raise UsageError(f"unknown command {cmd!r}")


def _apply_tolerance_override(reports, tol):
    if tol is None:
        return reports
    out = []
    for r in reports:
        out.append(hn.make_report(r.check_name, r.params, r.lhs, r.rhs, r.margin, tol,
                                  r.diagnostics))
    return out


def write_reports(reports, args) -> str:
    payload = hn.suite_payload(reports, args.seed)
    if args.format == "csv":
        text = hn.reports_to_csv(reports)
    else:
        text = hn.payload_to_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def run(argv) -> int:
    """Exit code 0 iff all checks pass, 1 on an inequality failure, 2 on
    usage or numeric errors."""
    try:
        args = parse_config(argv)
        reports = _apply_tolerance_override(run_command(args), args.tolerance)
        write_reports(reports, args)
    except UsageError as exc:
        print(f"epi-lab: usage error: {exc}", file=sys.stderr)
        return 2
    except EpiLabError as exc:
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
