"""ftlsim benchmark: host ops/s of each FTL over one seeded workload.

    python3 bench/run.py --workload zipf-rw --seed 1 --seconds 30 --trace 0

Run from the repository root; ftlsim is imported from ./src.  The workload's
trace is generated from --seed and fed unchanged to `sim.run` for leaftl,
dftl and sftl in turn, with the oracle on.  Load model: a closed loop with
one client (sim.run issues a host op only after the previous one returns),
in one process.

--trace 0 repeats rounds of the three untraced runs for --seconds and reports
the end-to-end metrics (median over rounds; host times in reference seconds,
see HostSpeed, with the wall-clock values printed alongside).  --trace 1
repeats, per FTL, an
untraced run and a run with every layer wrapped (tracer.py), and reports
per-layer self time and call counts, the simulated statistics of the result
document and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Ops count as failed when sim.run raises (oracle mismatch, model violation,
capacity exhausted) or when two runs of one FTL in this process give
different result documents.  The SHA-256 of each FTL's result document is
printed and checked against digests.json; mismatches are reported as
`digest_mismatches`, not as failures, since a change may alter the simulated
behaviour on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "ftlsim").is_dir():
    sys.exit(f"ftlsim sources not found at {SRC / 'ftlsim'}")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import ftlsim  # noqa: E402
from ftlsim import sim  # noqa: E402
from ftlsim.flash import CapacityError, ModelViolation  # noqa: E402

if Path(ftlsim.__file__).resolve().parent != (SRC / "ftlsim").resolve():
    sys.exit(f"imported ftlsim from {ftlsim.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FTLS = ("leaftl", "dftl", "sftl")
SIM_ERRORS = (sim.OracleMismatch, ModelViolation, CapacityError)
SETUP_REPEATS = 5
# Host seconds the calibration loop takes on the reference host; host times
# are reported in reference seconds (see HostSpeed).
CALIB_REF_S = 0.03
CALIB_ITERS = 150_000
DIGESTS = BENCH_DIR / "digests.json"
SPANS_DIR = BENCH_DIR / "out"

END_TO_END = {
    **{f"{k}.ops_per_s": "ops/s" for k in FTLS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "leaftl.mapping_bytes": "bytes",
    "waf": "ratio",
}

_COMMON_FNS = (
    "ftl.write",
    "ftl.read",
    "ftl.flush_block",
    "ftl.run_gc",
    "ftl.wear_level",
    "ftl.snapshot",
    "ftl.recover",
    "map.insert",
    "map.lookup",
    "map.compact",
    "flash.read_page",
)
_LEAFTL_FNS = (
    "plr.learn_segments",
    "mapping.insert_fitted",
    "mapping.lookup",
    "mapping.compact",
    "mapping.serialize_group",
    "mapping.deserialize_group",
    "flash.correct_misprediction",
)
_BASELINE_FNS = ("baselines.touch_tpage",)
_MODEL = {
    "translation_reads": "count",
    "cache_hit_ratio": "ratio",
    "flash_reads_per_op": "reads/op",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "gc_writes": "count",
}
_LEAFTL_MODEL = {"misprediction_ratio": "ratio", "lookup_top_level_frac": "ratio"}


def traced_fns(kind: str) -> tuple:
    return _COMMON_FNS + (_LEAFTL_FNS if kind == "leaftl" else _BASELINE_FNS)


def _per_layer_units() -> dict:
    units = {"workload.generate_s": "s", "digest_mismatches": "count"}
    for kind in FTLS:
        units[f"{kind}.sim.run.self_s"] = "s"
        for fn in traced_fns(kind):
            units[f"{kind}.{fn}.self_s"] = "s"
            units[f"{kind}.{fn}.calls"] = "count"
        model = {**_MODEL, **(_LEAFTL_MODEL if kind == "leaftl" else {})}
        for name, unit in model.items():
            units[f"{kind}.model.{name}"] = unit
        units[f"{kind}.trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def model_metrics(kind: str, doc: dict) -> dict:
    """Simulated statistics of one result document."""
    c = doc["counters"]
    out = {
        "translation_reads": c["translation_reads"],
        "cache_hit_ratio": c["cache_hit_ratio"],
        "flash_reads_per_op": c["flash_reads"] / doc["ops"],
        "read_p50_us": doc["read_latency_us"]["p50"],
        "read_p99_us": doc["read_latency_us"]["p99"],
        "gc_writes": c["gc_writes"],
    }
    if kind == "leaftl":
        out["misprediction_ratio"] = c["misprediction_ratio"]
        out["lookup_top_level_frac"] = (
            c["lookup_levels"].get("1", 0) / c["lookups"] if c["lookups"] else 0.0
        )
    return {f"{kind}.model.{k}": v for k, v in out.items()}


def _calibration_loop() -> float:
    """Host seconds for a fixed loop of dict and integer operations, the
    kind of work the simulator spends its time on."""
    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CALIB_ITERS):
        table[i & 4095] = i
        acc += table.get((i * 7) & 4095, 0)
    return perf_counter() - start


class HostSpeed:
    """Converts host seconds to reference seconds.

    On a shared cloud host, other tenants slow every run down by up to half,
    in phases that last from fractions of a second to minutes.  So each
    measured call is bracketed by two runs of a fixed calibration loop, and
    its wall time is divided by the host's slowness at that moment: the mean
    of the two calibration times over CALIB_REF_S.  The result is the time
    the call would take on a host that runs the loop in CALIB_REF_S."""

    def __init__(self):
        self.last = _calibration_loop()

    def time(self, fn, *args, **kwargs):
        """Call fn; returns (result, wall seconds, reference seconds)."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - start
        before, self.last = self.last, _calibration_loop()
        return result, wall, wall * 2 * CALIB_REF_S / (before + self.last)


class Runner:
    """Runs sim.run over one materialised trace and keeps the tallies."""

    def __init__(self, conf, events, run_kw, host: HostSpeed):
        self.host = host
        self.conf = conf
        self.events = events
        self.run_kw = run_kw
        self.trace_ops = sum(ev.pages for ev in events)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}  # kind -> digest of the first document
        self.docs: dict = {}  # kind -> first document

    def run(self, kind: str):
        """One timed sim.run; returns its (wall, reference) seconds, or None
        if it failed."""
        self.attempted += self.trace_ops
        try:
            doc, wall, ref = self.host.time(
                sim.run, kind, self.conf, self.events, oracle=True, **self.run_kw
            )
        except SIM_ERRORS as exc:
            self.failed += self.trace_ops
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        digest = hashlib.sha256(sim.to_json(doc).encode()).hexdigest()
        first = self.digests.setdefault(kind, digest)
        self.docs.setdefault(kind, doc)
        if digest != first:
            self.failed += self.trace_ops
            self.errors.append(f"{kind}: result document differs between repeats")
            return None
        return wall, ref


def setup(workload, seed: int, ops=None, repeats: int = SETUP_REPEATS):
    """Build the config and materialise the trace `repeats` times; returns
    a Runner over the last trace and the median set-up (wall, reference)
    seconds."""
    host = HostSpeed()
    walls, refs = [], []
    for _ in range(repeats):
        built, wall, ref = host.time(workload.build, seed, ops)
        walls.append(wall)
        refs.append(ref)
    runner = Runner(*built, host)
    return runner, (statistics.median(walls), statistics.median(refs))


def _rounds(seconds: float, body) -> None:
    """Call body() at least once, then again while another round of the
    same length still fits in `seconds`."""
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        body()
        end = perf_counter()
        if end + (end - start) > deadline:
            return


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, setup_s: tuple, seconds: float) -> tuple:
    """End-to-end metrics from untraced rounds over all three FTLs; host
    times in reference seconds.  Returns (metrics, the same host metrics
    in wall seconds)."""
    wall = {kind: [] for kind in FTLS}
    ref = {kind: [] for kind in FTLS}

    def round_():
        for kind in FTLS:
            timed = runner.run(kind)
            if timed is not None:
                wall[kind].append(runner.trace_ops / timed[0])
                ref[kind].append(runner.trace_ops / timed[1])

    _rounds(seconds, round_)
    lea = runner.docs.get("leaftl", {}).get("counters", {})
    metrics = {f"{k}.ops_per_s": _median_or_zero(ref[k]) for k in FTLS}
    metrics.update(
        {
            "setup_s": setup_s[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "leaftl.mapping_bytes": lea.get("mapping_bytes", 0),
            "waf": lea.get("waf", 0.0),
        }
    )
    raw = {f"{k}.ops_per_s": _median_or_zero(wall[k]) for k in FTLS}
    raw["setup_s"] = setup_s[0]
    return metrics, raw


def measure_layers(runner: Runner, setup_s: tuple, seconds: float, spans_prefix=None):
    """Per-layer metrics from pairs of untraced and traced runs per FTL; host
    times in wall seconds.  Returns (metrics, {kind: {fn: self-time share of
    the traced run}})."""
    plain = {kind: [] for kind in FTLS}
    traced = {kind: [] for kind in FTLS}
    totals = {kind: [] for kind in FTLS}
    last = {}

    def round_():
        for kind in FTLS:
            timed = runner.run(kind)
            if timed is not None:
                plain[kind].append(timed[0])
            with Tracer() as tracer:
                timed = runner.run(kind)
            if timed is not None:
                traced[kind].append(timed[0])
                totals[kind].append(tracer.totals())
                last[kind] = tracer

    _rounds(seconds, round_)
    if spans_prefix is not None:
        for kind, tracer in last.items():
            tracer.save(f"{spans_prefix}-{kind}.npz")
    metrics = {"workload.generate_s": setup_s[0]}
    shares = {}
    for kind in FTLS:
        runs = totals[kind]
        shares[kind] = {}
        for fn in ("sim.run",) + traced_fns(kind):
            self_s = [t[fn][0] for t in runs]
            metrics[f"{kind}.{fn}.self_s"] = _median_or_zero(self_s)
            shares[kind][fn] = _median_or_zero(
                [s / t for s, t in zip(self_s, traced[kind])]
            )
            if fn != "sim.run":
                metrics[f"{kind}.{fn}.calls"] = runs[0][fn][1] if runs else 0
        doc = runner.docs.get(kind)
        if doc is not None:
            metrics.update(model_metrics(kind, doc))
        wall = min(traced[kind], default=0.0)
        base = min(plain[kind], default=0.0)
        metrics[f"{kind}.trace.overhead_frac"] = wall / base if base else 0.0
    return metrics, shares


def purpose_checks(workload: str, metrics: dict, shares: dict) -> list:
    """(description, holds) for what each workload was chosen to exercise."""
    churn = workload == "churn-gc-crash"
    checks = [
        (
            f"{kind}.ftl.run_gc.calls {'> 0' if churn else '== 0'}",
            (metrics[f"{kind}.ftl.run_gc.calls"] > 0) == churn,
        )
        for kind in FTLS
    ]
    if workload == "zipf-rw":
        checks.append(
            (
                "leaftl.mapping.deserialize_group.calls > 0",
                metrics["leaftl.mapping.deserialize_group.calls"] > 0,
            )
        )
    if workload == "seq-fill-read":
        lea = shares["leaftl"]
        share = sum(
            lea[fn]
            for fn in ("plr.learn_segments", "mapping.insert_fitted", "mapping.compact")
        )
        checks.append(
            (f"leaftl learner+insert+compact share {share:.3f} < 0.10", share < 0.10)
        )
    return checks


def check_digests(workload: str, seed: int, digests: dict, reference: dict):
    """Compare this run's document digests with the recorded ones; returns
    (mismatches, lines to print)."""
    recorded = reference.get(workload, {}).get(str(seed), {})
    mismatches = 0
    lines = []
    for kind in FTLS:
        got = digests.get(kind)
        want = recorded.get(kind)
        if want is None:
            status = "unrecorded"
        elif got == want:
            status = "ok"
        else:
            status = "MISMATCH"
            mismatches += 1
        lines.append(f"digest {workload} seed={seed} {kind} {got} {status}")
    return mismatches, lines


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, ops=None, spans_dir=SPANS_DIR
):
    """Run one workload; returns (result object, report lines)."""
    runner, setup_s = setup(WORKLOADS[name], seed, ops)
    lines = []
    if trace:
        prefix = None
        if spans_dir is not None:
            spans_dir.mkdir(exist_ok=True)
            prefix = spans_dir / f"spans-{name}-seed{seed}"
            lines.append(f"spans written to {prefix}-<ftl>.npz")
        metrics, shares = measure_layers(runner, setup_s, seconds, prefix)
        units = PER_LAYER
    else:
        metrics, raw = measure(runner, setup_s, seconds)
        units = END_TO_END
        lines += [
            f"wall-clock {name} {m} {v:.6g} {END_TO_END[m]}"
            for m, v in raw.items()
        ]
    with open(DIGESTS) as fh:
        reference = json.load(fh)
    mismatches, digest_lines = check_digests(name, seed, runner.digests, reference)
    lines += digest_lines
    if trace:
        metrics["digest_mismatches"] = mismatches
        for text, holds in purpose_checks(name, metrics, shares):
            lines.append(f"purpose {name}: {text}: {'ok' if holds else 'NOT MET'}")
    lines += [f"failed: {err}" for err in runner.errors]
    lines.append(f"ops {runner.attempted} ops_failed {runner.failed}")
    # an FTL whose every run failed has no result document: its simulated
    # metrics read 0 and `correct` is false
    values = {m: metrics.get(m, 0.0) for m in units}
    lines += [f"{name} {m} {values[m]:.6g} {u}" for m, u in units.items()]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
