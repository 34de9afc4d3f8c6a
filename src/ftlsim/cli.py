"""Command line front end.

Subcommands:
  run           drive one FTL over a trace, print the metrics JSON
  compare       drive several FTLs over the same trace, print ratios
  learn-stats   feed a trace's writes through leaftl's flush path and print
                the segment and conflict-buffer size distributions of the
                table it ends with

`run --crash-at N` injects a crash after N ops and recovers; with the oracle
on (the default), every later read and a final scan of all written pages
must match the shadow map.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch or model
violation (the FTL broke a physical rule of the device), 4 device capacity
exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

from . import sim
from .config import ConfigError, build_config, parse_size
from .flash import CapacityError, ModelViolation
from .plr import GROUP_SIZE
from .workload import SYNTH_KINDS, TraceError, expand, parse_msr, synth


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable); sizes accept k/m/g/t suffixes",
    )
    p.add_argument("--gamma", type=int, help="error bound for learned segments")
    src = p.add_argument_group("trace source")
    src.add_argument("--trace", help="MSR-format CSV trace file")
    src.add_argument("--synth", choices=SYNTH_KINDS, help="synthetic workload kind")
    src.add_argument("--count", type=int, default=100_000, help="synthetic event count")
    src.add_argument("--seed", type=int, default=0)
    src.add_argument("--pages", type=parse_size, help="synthetic LPA span (pages)")
    src.add_argument("--stride", type=int, default=2)
    src.add_argument("--theta", type=float, default=0.99)
    src.add_argument("--read-ratio", type=float, default=0.0)
    src.add_argument(
        "--warmup-writes",
        type=int,
        default=0,
        help="sequential page writes issued before the trace",
    )
    p.add_argument("--csv", metavar="FILE", help="also write flat key,value CSV")


def _build_conf(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    return build_config(args.config, overrides)


# flag -> smallest value it accepts
_FLAG_MINIMUM = {
    "pages": 1,
    "count": 0,
    "stride": 1,
    "crash_at": 1,
    "force_gc_every": 1,
    "warmup_writes": 0,
}


def _check_flags(args):
    """Reject flag values that would run as something else (a crash that
    never fires, --force-gc-every -N as N, --stride 0 as a one-page
    workload, a read ratio outside [0, 1])."""
    for flag, low in _FLAG_MINIMUM.items():
        value = getattr(args, flag, None)
        if value is not None and value < low:
            name = flag.replace("_", "-")
            raise ConfigError(f"--{name} must be >= {low}, got {value}")
    if not 0.0 <= args.read_ratio <= 1.0:
        raise ConfigError(f"--read-ratio must be in [0, 1], got {args.read_ratio}")
    if not math.isfinite(args.theta):
        raise ConfigError(f"--theta must be finite, got {args.theta}")


def _span(args, conf):
    """Synthetic LPA span: --pages, or the logical space capped at 1M pages."""
    if args.pages is None:
        return min(conf.logical_pages, 1 << 20)
    return args.pages


def _load_events(args, conf):
    if args.trace:
        with open(args.trace) as fh:
            events = list(parse_msr(fh, page_size=conf.page_size))
    elif args.synth:
        events = synth(
            args.synth,
            args.count,
            _span(args, conf),
            seed=args.seed,
            stride=args.stride,
            theta=args.theta,
            read_ratio=args.read_ratio,
        )
    else:
        raise ConfigError("need --trace FILE or --synth KIND")
    if args.warmup_writes:
        warmup = synth("sequential", args.warmup_writes, _span(args, conf))
        events = warmup + list(events)
    return events


def _emit(doc, args):
    sys.stdout.write(sim.to_json(doc))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(sim.to_csv(doc))


def cmd_run(args):
    conf = _build_conf(args)
    events = _load_events(args, conf)
    doc = sim.run(
        args.ftl,
        conf,
        events,
        oracle=not args.no_oracle,
        crash_at=args.crash_at,
        force_gc_every=args.force_gc_every,
    )
    _emit(doc, args)


def cmd_compare(args):
    conf = _build_conf(args)
    events = _load_events(args, conf)
    _emit(sim.compare(args.ftls, conf, events), args)


def cmd_learn_stats(args):
    """Feed the trace's writes through leaftl's flush path (reads skipped,
    no oracle) and describe the segments its table holds at the end,
    resident or evicted."""
    conf = _build_conf(args)
    events = _load_events(args, conf)
    ftl = sim.build_ftl("leaftl", conf)
    for op, lpa in expand(events, conf.logical_pages):
        if op == "w":
            ftl.write(lpa, None)
    ftl.flush_block(force=True)
    seg_lengths: dict = {}
    crb_sizes: dict = {}
    accurate = approximate = 0
    for group in ftl.table.groups.values():
        for seg in chain.from_iterable(group.levels):
            seg_lengths[seg.length] = seg_lengths.get(seg.length, 0) + 1
            if seg.accurate:
                accurate += 1
            else:
                approximate += 1
                size = seg.bm.bit_count()
                crb_sizes[size] = crb_sizes.get(size, 0) + 1
    total = accurate + approximate
    _emit(
        {
            "schema_version": sim.SCHEMA_VERSION,
            "gamma": conf.gamma,
            "group_size": GROUP_SIZE,
            "segments": total,
            "accurate": accurate,
            "approximate": approximate,
            "segment_length_hist": {str(k): v for k, v in sorted(seg_lengths.items())},
            "crb_size_hist": {str(k): v for k, v in sorted(crb_sizes.items())},
            "mean_length": (
                round(sum(k * v for k, v in seg_lengths.items()) / total, 3)
                if total
                else 0.0
            ),
        },
        args,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftlsim", description="deterministic SSD / FTL simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one FTL over a trace")
    p.add_argument("--ftl", choices=sorted(sim.FTL_KINDS), default="leaftl")
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip data verification (the result document is the same)",
    )
    p.add_argument("--crash-at", type=int, help="inject a crash after N ops")
    p.add_argument("--force-gc-every", type=int, help="force GC every N ops")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several FTLs on one trace")
    p.add_argument(
        "--ftl",
        dest="ftls",
        default="leaftl,dftl,sftl",
        type=lambda s: s.split(","),
        help="comma separated FTL kinds; first is the ratio baseline",
    )
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("learn-stats", help="segment statistics for a trace")
    _add_common(p)
    p.set_defaults(func=cmd_learn_stats)

    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        args.func(args)
    except (ConfigError, TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sim.OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except ModelViolation as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity exhausted: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
