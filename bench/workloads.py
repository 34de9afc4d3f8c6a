"""Benchmark workloads: each builds a Config and a materialised trace from a seed.

A workload is generated once per benchmark process and the same event list
is fed to every FTL, so the three schemes see identical inputs.  The seed is
the only source of variation; the FTLs receive nothing but the events.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ftlsim.config import Config
from ftlsim.workload import TraceEvent, synth

# The 4 GB acceptance geometry (tests/test_acceptance.py: device_4g).
DEVICE_4G = dict(
    channels=4,
    blocks_per_channel=1024,
    pages_per_block=256,
    page_size=4096,
    oob_size=512,
    gamma=8,
    buffer_bytes=256 * 4096,
    compaction_interval=50000,
    snapshot_interval=100000,
    snapshot_on_gc=True,
)


class Workload(NamedTuple):
    name: str
    why: str
    build: Callable  # (seed, ops or None) -> (Config, events, sim.run keyword args)


def _zipf_rw(seed: int, ops: int | None):
    conf = Config(**{**DEVICE_4G, "gamma": 16, "dram_bytes": 64 * 1024})
    events = synth(
        "zipf", ops or 60_000, conf.logical_pages, seed=seed, theta=0.99, read_ratio=0.5
    )
    return conf, events, {}


def _churn_gc_crash(seed: int, ops: int | None):
    conf = Config(
        **{
            **DEVICE_4G,
            "blocks_per_channel": 4,
            "dram_bytes": 1024 * 1024,
            "wear_threshold": 4,
        }
    )
    # Eight overwrites of the logical space: over four, the write
    # amplification is still climbing and its spread between seeds is three
    # times larger.
    n = ops or 8 * conf.logical_pages
    events = synth("mixed", n, conf.logical_pages, seed=seed)
    return conf, events, {"force_gc_every": max(1, n // 4), "crash_at": 2 * n // 3}


def _seq_fill_read(seed: int, ops: int | None):
    conf = Config(**{**DEVICE_4G, "gamma": 0, "dram_bytes": 8 * 1024 * 1024})
    half = (ops or 60_000) // 2
    start = int(np.random.default_rng(seed).integers(0, conf.logical_pages))
    fill = synth("sequential", half, conf.logical_pages, seed=seed, start_lpa=start)
    t0 = fill[-1].timestamp_ns + 1000
    back = [TraceEvent(t0 + 1000 * i, "r", ev.lpa, 1) for i, ev in enumerate(fill)]
    return conf, fill + back, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-rw",
            "zipf 0.99 reads+writes, 64 KB DRAM: leaftl evicts/reloads groups and "
            "corrects mispredictions; dftl/sftl miss their translation-page cache",
            _zipf_rw,
        ),
        Workload(
            "churn-gc-crash",
            "write-only mixed churn, 8 overwrites of a 16 MB device: GC, wear "
            "levelling, snapshot-on-GC and one crash plus recovery",
            _churn_gc_crash,
        ),
        Workload(
            "seq-fill-read",
            "sequential fill then read-back, gamma 0: the learner and mapping "
            "stay idle, so the sim.run loop, oracle and read path dominate "
            "(bypass workload)",
            _seq_fill_read,
        ),
    )
}
