"""Closed-loop trace driver with a built-in correctness oracle.

Every write carries a monotonically increasing payload; the driver keeps two
shadow maps: `latest` (every acknowledged write) and `committed` (writes that
reached flash at a flush).  Reads are checked against `latest`.  A crash
discards buffered writes, so `latest` rolls back to `committed` before
recovery; reads of never-written LPAs count as misses, not errors.

After the trace, the buffer is flushed, the mapping compacted, and the
oracle scans every written LPA through FtlBase.peek, which charges nothing
and changes no state.  So the document counts the trace alone, and a run
with the oracle off gives the same document.
"""

from __future__ import annotations

import json

from .baselines import Dftl, Sftl
from .config import Config
from .flash import FlashDevice
from .ftl import UnmappedRead
from .leaftl import LeaFtl
from .workload import expand

SCHEMA_VERSION = 1
SAMPLE_INTERVAL = 10_000  # ops between mapping_bytes_samples entries

FTL_KINDS = {"leaftl": LeaFtl, "dftl": Dftl, "sftl": Sftl}


class OracleMismatch(Exception):
    """A read returned different data than the shadow map expected."""


def build_ftl(kind: str, conf: Config):
    try:
        cls = FTL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown ftl kind {kind!r}; choose from {sorted(FTL_KINDS)}")
    return cls(FlashDevice(conf))


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def run(
    kind: str,
    conf: Config,
    events,
    oracle: bool = True,
    crash_at: int | None = None,
    force_gc_every: int | None = None,
) -> dict:
    """Drive one FTL over a trace; returns the metrics document."""
    ftl = build_ftl(kind, conf)
    logical = conf.logical_pages
    latest: dict = {}
    committed: dict = {}
    payload = 0
    ops = reads = writes = misses = 0
    crashes = 0
    read_lat: list = []
    samples: list = []
    for op, lpa in expand(events, logical):
        if op == "w":
            payload += 1
            latest[lpa] = payload
            _, flushed = ftl.write(lpa, payload)
            if flushed:
                for l, p in flushed:
                    committed[l] = p
            writes += 1
        else:
            reads += 1
            try:
                got, lat = ftl.read(lpa)
            except UnmappedRead:
                misses += 1
                if oracle and lpa in latest:
                    raise OracleMismatch(f"lpa {lpa}: mapped data reported missing")
            else:
                read_lat.append(lat)
                if oracle and got != latest.get(lpa):
                    raise OracleMismatch(
                        f"lpa {lpa}: read {got}, expected {latest.get(lpa)}"
                    )
        ops += 1
        if force_gc_every and ops % force_gc_every == 0:
            ftl.run_gc(force=True)
        if crash_at is not None and ops == crash_at:
            ftl.crash()
            latest = dict(committed)
            ftl.recover()
            crashes += 1
        if ops % SAMPLE_INTERVAL == 0:
            samples.append([ops, ftl.mapping_bytes()])
    flushed = ftl.flush_block(force=True)
    if flushed:
        for l, p in flushed:
            committed[l] = p
    # Consolidate the mapping before final reporting so mapping_bytes
    # reflects the steady-state table, not garbage pending the next
    # periodic compaction.  The oracle scan below runs after it, so the
    # consolidated table is also verified for correctness; it peeks, so
    # it moves no counter the document reports.
    ftl._map_compact()
    if oracle:
        peek = ftl.peek
        for lpa, want in latest.items():
            try:
                got = peek(lpa)
            except UnmappedRead:
                raise OracleMismatch(
                    f"final scan lpa {lpa}: mapped data reported missing"
                )
            if got != want:
                raise OracleMismatch(f"final scan lpa {lpa}: read {got}, expected {want}")
    read_lat.sort()
    n = len(read_lat)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ftl": kind,
        "gamma": conf.gamma,
        "ops": ops,
        "writes": writes,
        "reads": reads,
        "read_misses": misses,
        "crashes": crashes,
        "read_latency_us": {
            "mean": round(sum(read_lat) / n, 3) if n else 0.0,
            "p50": _percentile(read_lat, 0.50),
            "p95": _percentile(read_lat, 0.95),
            "p99": _percentile(read_lat, 0.99),
            "max": read_lat[-1] if n else 0.0,
        },
        "mapping_bytes_samples": samples,
        "counters": ftl.counters(),
    }
    return doc


def compare(kinds, conf: Config, events) -> dict:
    """Run several FTLs over the same materialized trace; report each
    document plus ratios against the first kind."""
    events = list(events)
    docs = {kind: run(kind, conf, events) for kind in kinds}
    base = docs[kinds[0]]["counters"]
    ratios = {}
    for kind in kinds[1:]:
        c = docs[kind]["counters"]
        ratios[kind] = {
            "mapping_bytes": (
                c["mapping_bytes"] / base["mapping_bytes"]
                if base["mapping_bytes"]
                else 0.0
            ),
            "waf": c["waf"] / base["waf"] if base["waf"] else 0.0,
            "flash_reads": (
                c["flash_reads"] / base["flash_reads"] if base["flash_reads"] else 0.0
            ),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "baseline": kinds[0],
        "runs": docs,
        "ratios_vs_baseline": ratios,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(doc, prefix, out):
    for key in sorted(doc):
        val = doc[key]
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(val, dict):
            _flatten(val, name, out)
        else:
            out.append((name, val))


def to_csv(doc: dict) -> str:
    """Flatten the metrics document into key,value rows for plotting."""
    rows: list = []
    _flatten(doc, "", rows)
    lines = ["key,value"]
    for name, val in rows:
        if isinstance(val, list):
            val = ";".join(str(v) for v in val)
        lines.append(f"{name},{val}")
    return "\n".join(lines) + "\n"
