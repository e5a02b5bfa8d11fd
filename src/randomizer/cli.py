"""Command-line workbench: sample channels, build and audit nets, certify, sweep, compute bounds.

Exit codes: 0 success, 1 usage error, 2 runtime/operation error. All
randomness flows from --seed; an omitted seed is generated and echoed in the
summary line so every run stays reconstructible.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys

from . import bounds as bounds_mod
from .certify import DEFAULT_MAX_ITERS, DEFAULT_RESTARTS, verdict
from .channel import build_random_channel
from .errors import RandomizerError
from .experiments import (
    DEFAULT_CHANNELS_PER_CELL,
    SweepConfig,
    _write_json,
    load_channel,
    load_net,
    run_concentration_trial,
    run_randomizing_sweep,
    save_certificate,
    save_channel,
    save_net,
    write_concentration_csv,
    write_sweep_csv,
)
from .haar import RngStream
from .netcover import audit_covering, build_delta_net
from .workers import parallel_map


def _resolve_stream(args) -> RngStream:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
    return RngStream(int(seed))


def _comma_list(text: str, cast, what: str) -> list:
    try:
        items = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        items = []
    if not items:
        raise argparse.ArgumentTypeError(
            f"expected a nonempty comma-separated list of {what}, got {text!r}")
    return items


def _int_list(text: str) -> list[int]:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> list[float]:
    return _comma_list(text, float, "numbers")


def _cmd_sample_channel(args) -> int:
    stream = _resolve_stream(args)
    ch = build_random_channel(args.dim, args.count, stream)
    save_channel(args.out, ch)
    print(f"sample-channel: d={ch.dim} N={ch.count} seed={stream.seed} -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    stream = _resolve_stream(args)
    ch = load_channel(args.channel)
    net = load_net(args.net)
    cert = verdict(ch, args.epsilon, net, restarts=args.restarts, max_iters=args.max_iters,
                   rng=stream.child(1))
    if args.report is not None:
        save_certificate(args.report, cert)
    destination = f" -> {args.report}" if args.report is not None else ""
    print(
        f"verify: verdict={cert.verdict.value} epsilon={cert.epsilon} d={ch.dim} N={ch.count} "
        f"delta={cert.delta} B={cert.B:.6g} A_upper={cert.A_upper:.6g} "
        f"A_lower={cert.A_lower:.6g} net_size={cert.net_size} seed={stream.seed}{destination}"
    )
    return 0


def _cmd_net(args) -> int:
    stream = _resolve_stream(args)
    net = build_delta_net(args.dim, args.delta, stream, max_states=args.max_states)
    save_net(args.out, net)
    print(
        f"net: d={net.dim} delta={net.delta} size={net.size} "
        f"stopped_by={net.provenance.get('stopped_by')} seed={stream.seed} -> {args.out}"
    )
    return 0


def _cmd_audit_net(args) -> int:
    stream = _resolve_stream(args)
    net = load_net(args.net)
    report = audit_covering(net, args.trials, stream)
    if args.report is not None:
        _write_json(args.report, {"dim": report.dim, "delta": report.delta,
                                  "trials": report.trials, "max_gap": report.max_gap,
                                  "failures": report.failures, "seed": stream.seed})
    print(
        f"audit-net: size={net.size} delta={net.delta} trials={report.trials} "
        f"max_gap={report.max_gap:.6f} failures={report.failures} seed={stream.seed}"
    )
    return 0


def _cmd_concentration(args) -> int:
    stream = _resolve_stream(args)
    cells = [(n, delta) for n in args.counts for delta in args.deltas]
    reports = list(parallel_map(
        lambda ic: run_concentration_trial(args.dim, ic[1][0], ic[1][1], args.trials,
                                           stream.child(ic[0])),
        enumerate(cells),
    ))
    if args.out is not None:
        write_concentration_csv(args.out, reports)
    worst = max((r.empirical_tail - r.bound for r in reports), default=0.0)
    vacuous = sum(1 for r in reports if r.vacuous)
    destination = f" -> {args.out}" if args.out is not None else ""
    print(
        f"concentration: d={args.dim} cells={len(reports)} trials={args.trials} "
        f"max(tail-bound)={worst:.3e} vacuous={vacuous} seed={stream.seed}{destination}"
    )
    return 0


def _cmd_sweep(args) -> int:
    stream = _resolve_stream(args)
    grid = SweepConfig(
        dims=tuple(args.dims), epsilons=tuple(args.epsilons), counts=tuple(args.counts),
        channels_per_cell=args.channels, restarts=args.restarts, max_iters=args.max_iters,
    )
    report = run_randomizing_sweep(grid, stream)
    if args.out is not None:
        write_sweep_csv(args.out, report)
    skipped = sum(1 for c in report.cells if c.skipped)
    destination = f" -> {args.out}" if args.out is not None else ""
    print(
        f"sweep: cells={len(report.cells)} skipped={skipped} "
        f"channels_per_cell={grid.channels_per_cell} seed={stream.seed}{destination}"
    )
    return 0


def _cmd_bounds(args) -> int:
    required = bounds_mod.required_N(args.dim, args.epsilon)
    minimal = bounds_mod.min_N_for_success(args.dim, args.epsilon)
    payload = {
        "d": args.dim,
        "epsilon": args.epsilon,
        "c": bounds_mod.CONCENTRATION_EXPONENT,
        "C": bounds_mod.SAMPLE_SIZE_PREFACTOR,
        "required_N": required,
        "min_N_for_success": minimal,
        "failure_log_bound_at_required_N": bounds_mod.failure_log_bound(
            args.dim, args.epsilon, required),
    }
    print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randomizer",
        description="Random unitary mixing channels and epsilon-randomizing certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="base seed; omitted: generated and echoed in the summary")

    p = sub.add_parser("sample-channel", help="sample a Haar random unitary channel")
    p.add_argument("--dim", type=int, required=True, help="Hilbert space dimension d")
    p.add_argument("--count", type=int, required=True, help="number of unitaries N")
    p.add_argument("--out", required=True, help="output channel JSON path")
    add_seed(p)
    p.set_defaults(func=_cmd_sample_channel)

    p = sub.add_parser("verify", help="certify or refute the epsilon-randomizing property")
    p.add_argument("--channel", required=True, help="channel JSON path")
    p.add_argument("--epsilon", type=float, required=True, help="target epsilon in (0, 1)")
    p.add_argument("--net", required=True, help="net JSON path, as written by `net`")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS, help="optimizer restarts")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=DEFAULT_MAX_ITERS,
                   help="optimizer iteration cap")
    p.add_argument("--report", default=None, help="certificate JSON output path")
    add_seed(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("net", help="build a delta-net of pure states")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="covering radius in (0, 2)")
    p.add_argument("--max-states", dest="max_states", type=int, default=None,
                   help="size budget; waives the feasibility guard")
    p.add_argument("--out", required=True, help="output net JSON path")
    add_seed(p)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("audit-net", help="Monte Carlo audit of a net's covering radius")
    p.add_argument("--net", required=True, help="net JSON path")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--report", default=None, help="optional JSON report path")
    add_seed(p)
    p.set_defaults(func=_cmd_audit_net)

    p = sub.add_parser("concentration", help="empirical tail of the pair statistic vs its bound")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--counts", type=_int_list, required=True,
                   help="comma-separated N values, one cell per (N, delta)")
    p.add_argument("--deltas", type=_float_list, required=True,
                   help="comma-separated delta values in (0, 1)")
    p.add_argument("--trials", type=int, default=10_000, help="channels per cell")
    p.add_argument("--out", default=None, help="CSV output path")
    add_seed(p)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("sweep", help="verdict fractions over a (d, epsilon, N) grid")
    p.add_argument("--dims", type=_int_list, default=[2], help="comma-separated dimensions")
    p.add_argument("--epsilons", type=_float_list, default=[0.5],
                   help="comma-separated epsilon values; nets cover at epsilon/(3+2 epsilon)")
    p.add_argument("--counts", type=_int_list, default=[64], help="comma-separated N values")
    p.add_argument("--channels", type=int, default=DEFAULT_CHANNELS_PER_CELL,
                   help="channels per cell")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--out", default=None, help="CSV output path")
    add_seed(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="closed-form sample-size and failure-probability numbers")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared; each parse_args call returns a fresh Namespace."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (RandomizerError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
