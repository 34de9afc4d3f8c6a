"""Acceptance suite: end-to-end checks of the simulator's headline
guarantees, one test per criterion.  Each test prints a one-line summary
(visible with pytest -s) and asserts the stated tolerance.
"""

import random
import time

import pytest

from ftlsim import sim
from ftlsim.config import Config
from ftlsim.mapping import GROUP_OVERHEAD_BYTES, SEGMENT_BYTES, MappingTable
from ftlsim.plr import GROUP_SIZE, learn_segments
from ftlsim.plr import members as bm_members
from ftlsim.workload import TraceEvent, expand, synth


def device_4g(**kw):
    """~4 GB device: 4 channels x 1024 blocks x 256 pages x 4 KB."""
    defaults = dict(
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
    defaults.update(kw)
    return Config(**defaults)


def small_device(**kw):
    defaults = dict(
        channels=2,
        blocks_per_channel=128,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=8,
        dram_bytes=1 << 20,
        buffer_bytes=32 * 4096,
        compaction_interval=4096,
        snapshot_interval=10**9,
        snapshot_on_gc=False,
    )
    defaults.update(kw)
    return Config(**defaults)


def random_batch(rng, gamma):
    """One learning batch: (lpa, ppa) pairs, LPAs strictly increasing,
    PPAs consecutive (the shape a sorted flush produces)."""
    kind = rng.choice(("sequential", "strided", "random", "mixed"))
    size = rng.randrange(2, 65)
    base_lpa = rng.randrange(1 << 20)
    base_ppa = rng.randrange(1 << 24)
    if kind == "sequential":
        lpas = [base_lpa + i for i in range(size)]
    elif kind == "strided":
        stride = rng.randrange(2, 9)
        lpas = [base_lpa + i * stride for i in range(size)]
    elif kind == "random":
        lpas = sorted(rng.sample(range(base_lpa, base_lpa + 8 * size), size))
    else:
        lpas, cur = [], base_lpa
        while len(lpas) < size:
            run = min(rng.randrange(1, 9), size - len(lpas))
            lpas.extend(cur + i for i in range(run))
            cur += run + rng.randrange(1, 50)
    return [(lpa, base_ppa + i) for i, lpa in enumerate(lpas)]


def test_criterion_01_gamma_bound_property():
    """10,000 randomized batches: every member's prediction is within
    gamma using the stored quantized slope; accurate segments are exact."""
    rng = random.Random(0xACCE)
    start = time.time()
    checked = 0
    for batch_no in range(10000):
        gamma = (0, 1, 4, 8, 16)[batch_no % 5]
        pts = random_batch(rng, gamma)
        truth = dict(pts)
        segs = learn_segments(pts, gamma)
        members = []
        for gid, seg in segs:
            # members as the stored encoding gives them to lookups
            if not seg.accurate:
                offsets = bm_members(seg.bm)
            else:
                offsets = range(seg.start, seg.end + 1, seg.step)
            for off in offsets:
                lpa = gid * GROUP_SIZE + off
                pred = seg.predict(off)
                if seg.accurate:
                    assert pred == truth[lpa], (batch_no, lpa)
                else:
                    assert abs(pred - truth[lpa]) <= gamma, (batch_no, lpa)
                members.append(lpa)
                checked += 1
        assert sorted(members) == [lpa for lpa, _ in pts], batch_no
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: {checked} members over 10000 batches, "
        f"0 violations, {elapsed:.1f}s"
    )


def test_criterion_02_oracle_equivalence_100_traces():
    """100 randomized 200k-op traces on a ~4 GB device with forced GC,
    compaction, and one mid-trace crash: zero oracle mismatches for all
    three FTLs, in under 10 minutes."""
    start = time.time()
    kinds = ("mixed", "zipf", "random")
    for trace_no in range(100):
        events = synth(
            kinds[trace_no % 3], 200000, 65536, seed=trace_no, read_ratio=0.4
        )
        ftl = ("leaftl", "dftl", "sftl")[trace_no % 3]
        doc = sim.run(
            ftl,
            device_4g(gamma=(0, 4, 16)[(trace_no // 3) % 3]),
            events,
            crash_at=60000 + (trace_no * 997) % 80000,
            force_gc_every=60000,
        )
        assert doc["ops"] == 200000
        assert doc["crashes"] == 1
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"criterion 2 PASS: 100 traces, 0 mismatches, {elapsed:.0f}s")


def test_criterion_03_misprediction_cost():
    """On a zipf trace at gamma=16, corrective flash reads equal the
    misprediction count and no single read costs more than one extra.
    Every read below is of a flushed, uncached page, so the device counts
    one read of the predicted page plus the corrective ones."""
    conf = small_device(gamma=16)
    ftl = sim.build_ftl("leaftl", conf)
    written = {}
    for op, lpa in expand(synth("zipf", 30000, 4000, seed=7), conf.logical_pages):
        ftl.write(lpa, lpa * 3 + 1)
        written[lpa] = lpa * 3 + 1
    ftl.flush_block(force=True)
    ftl.cache.clear()
    dev = ftl.dev
    worst = extra = 0
    for lpa, want in written.items():
        before = dev.flash_reads
        got, _ = ftl.read(lpa)
        assert got == want, lpa
        corrective = dev.flash_reads - before - 1
        extra += corrective
        worst = max(worst, corrective)
    assert worst <= 1
    assert extra == ftl.mispredictions == ftl.counters()["extra_reads"]
    print(
        f"criterion 3 PASS: {ftl.mispredictions} mispredictions, "
        f"{extra} extra reads, worst per-read extra = {worst}"
    )


def test_criterion_04_sequential_memory_vs_dftl():
    """Sequential fill of 2^20 pages: the learned table is at least 50x
    smaller than per-page entries and matches the analytic size exactly."""
    conf = device_4g(
        gamma=0, channels=4, blocks_per_channel=1280, pages_per_block=256
    )
    assert conf.logical_pages == 1 << 20
    events = synth("sequential", 1 << 20, 1 << 20)
    lea = sim.run("leaftl", conf, events, oracle=False)["counters"]["mapping_bytes"]
    dftl = sim.run("dftl", conf, events, oracle=False)["counters"]["mapping_bytes"]
    groups = (1 << 20) // GROUP_SIZE
    analytic = groups * (SEGMENT_BYTES + GROUP_OVERHEAD_BYTES)
    assert lea == analytic
    assert lea <= dftl / 50
    print(
        f"criterion 4 PASS: leaftl {lea} B (= analytic {analytic}), "
        f"dftl {dftl} B, ratio {dftl / lea:.1f}x"
    )


def test_criterion_05_strided_memory_vs_sftl():
    """Stride-2 fill: learned segments cover the pattern that run-condensed
    per-page mapping cannot, by a factor of at least 2."""
    conf = device_4g(gamma=0, channels=4, blocks_per_channel=640)
    events = synth("strided", 1 << 18, 1 << 19, stride=2)
    lea = sim.run("leaftl", conf, events, oracle=False)["counters"]["mapping_bytes"]
    sftl = sim.run("sftl", conf, events, oracle=False)["counters"]["mapping_bytes"]
    assert lea * 2 < sftl
    print(f"criterion 5 PASS: leaftl {lea} B vs sftl {sftl} B ({sftl / lea:.1f}x)")


def test_criterion_06_random_worst_case():
    """Pure random single-page writes: segment bytes never exceed per-page
    entry bytes, and the whole table stays within 1.1x of it."""
    for gamma in (0, 8):
        conf = small_device(gamma=gamma, blocks_per_channel=320)
        ftl = sim.build_ftl("leaftl", conf)
        live = {}
        for op, lpa in expand(
            synth("random", 100000, 16384, seed=3), conf.logical_pages
        ):
            ftl.write(lpa, 0)
            live[lpa] = 0
        ftl.flush_block(force=True)
        ftl.compact_mapping()
        fp = ftl.table.memory_footprint()
        entry_bytes = 8 * len(live)
        assert fp["segment_bytes"] <= entry_bytes
        assert fp["total_bytes"] <= 1.1 * entry_bytes
        print(
            f"criterion 6 PASS (gamma={gamma}): segments {fp['segment_bytes']} B, "
            f"total {fp['total_bytes']} B vs per-page {entry_bytes} B"
        )


def test_criterion_07_monotone_gamma_sweep():
    """For five workload kinds, final mapping bytes never grow as gamma
    widens 0 -> 1 -> 4 -> 8 -> 16; misprediction ratio at gamma=16 stays
    under 15% on read-heavy zipf/sequential mixes."""
    for kind in ("sequential", "random", "strided", "zipf", "mixed"):
        events = synth(kind, 20000, 8192, seed=12)
        series = []
        for gamma in (0, 1, 4, 8, 16):
            conf = small_device(gamma=gamma)
            series.append(
                sim.run("leaftl", conf, events)["counters"]["mapping_bytes"]
            )
        assert series == sorted(series, reverse=True), (kind, series)
        print(f"criterion 7 mapping bytes {kind}: {series} (non-increasing)")
    zipf = synth("zipf", 15000, 4000, seed=5, read_ratio=0.5)
    seq = synth("sequential", 15000, 4000)  # pure sequential writes
    interleaved = []
    for i in range(0, 15000, 128):  # chunked so sequential runs survive
        interleaved.extend(zipf[i : i + 128])
        interleaved.extend(seq[i : i + 128])
    pure = synth("zipf", 30000, 4000, seed=5, read_ratio=0.5)
    for kind, events in (("zipf", pure), ("zipf/sequential", interleaved)):
        # realistic translation-cache budget, as a deployed device would have
        doc = sim.run("leaftl", small_device(gamma=16, dram_bytes=1 << 24), events)
        ratio = doc["counters"]["misprediction_ratio"]
        assert ratio < 0.15, (kind, ratio)
        print(f"criterion 7 PASS: {kind} gamma=16 misprediction ratio {ratio:.3f}")


def test_criterion_08_buffer_sort_property():
    """For 1,000 random write buffers, learning the LPA-sorted batch never
    produces more segments than learning the arrival-order batch."""
    rng = random.Random(88)
    for trial in range(1000):
        gamma = (0, 1, 4, 8, 16)[trial % 5]
        size = rng.randrange(4, 65)
        lpas = rng.sample(range(4 * GROUP_SIZE), size)
        base = rng.randrange(1 << 20)
        # arrival order: PPAs follow arrival; learn each maximal
        # LPA-increasing stretch (a line cannot fit a descending pair)
        unsorted_count = 0
        i = 0
        while i < size:
            j = i
            while j + 1 < size and lpas[j + 1] > lpas[j]:
                j += 1
            pts = [(lpas[k], base + k) for k in range(i, j + 1)]
            unsorted_count += len(learn_segments(pts, gamma))
            i = j + 1
        # sorted flush: same pages, PPAs assigned in LPA order
        pairs = [(lpa, base + r) for r, lpa in enumerate(sorted(lpas))]
        sorted_count = len(learn_segments(pairs, gamma))
        assert sorted_count <= unsorted_count, trial
    print("criterion 8 PASS: 1000 buffers, sorted <= unsorted everywhere")


def test_criterion_09_compaction_semantics():
    """100 randomized tables: every live LPA resolves identically before
    and after compaction, and memory never grows."""
    for trial in range(100):
        rng = random.Random(9000 + trial)
        gamma = rng.choice([0, 1, 4, 8, 16])
        table = MappingTable()
        ppa = rng.randrange(1 << 20)
        live = set()
        for _ in range(rng.randrange(10, 60)):
            count = rng.randrange(1, 33)
            lpas = sorted(rng.sample(range(768), count))
            table.insert_fitted(
                learn_segments([(l, ppa + i) for i, l in enumerate(lpas)], gamma)
            )
            ppa += count
            live.update(lpas)
        before_mem = table.total_bytes
        # compare the translation result (ppa, accuracy); the level a hit
        # comes from is diagnostic and legitimately changes under compaction
        before = {lpa: table.lookup(lpa)[:2] for lpa in live}
        table.compact()
        assert table.total_bytes <= before_mem, trial
        for lpa in live:
            assert table.lookup(lpa)[:2] == before[lpa], (trial, lpa)
    print("criterion 9 PASS: 100 tables, identical lookups, memory never grew")


def test_criterion_10_lookup_locality():
    """On sequential and zipf traces, at least 80% of mapping lookups
    resolve at the topmost level."""
    fill = synth("sequential", 4000, 4000)
    seq_reads = [TraceEvent(e.timestamp_ns + 10**9, "r", e.lpa, 1) for e in fill]
    traces = {
        "sequential": (fill + seq_reads, small_device(dram_bytes=1 << 18)),
        "zipf": (
            synth("zipf", 40000, 65536, seed=4, read_ratio=0.5),
            small_device(
                dram_bytes=1 << 18,
                compaction_interval=2048,
                blocks_per_channel=2048,
            ),
        ),
    }
    for kind, (events, conf) in traces.items():
        doc = sim.run("leaftl", conf, events)
        levels = doc["counters"]["lookup_levels"]
        total = sum(levels.values())
        top = levels.get("1", 0)
        assert total > 0
        frac = top / total
        assert frac >= 0.80, (kind, frac)
        print(f"criterion 10 PASS: {kind} topmost-level lookups {frac:.1%}")


def test_criterion_11_waf_sanity():
    """Write-once sequential fill has WAF exactly 1.0; under GC pressure
    all schemes share the data path, so WAF matches within 10%."""
    fill = synth("sequential", 4096, 4096)
    doc = sim.run("leaftl", small_device(), fill)
    assert doc["counters"]["waf"] == 1.0
    churn = synth("random", 30000, 5000, seed=11)
    wafs = {}
    for kind in ("leaftl", "dftl"):
        doc = sim.run(kind, small_device(blocks_per_channel=96), churn)
        wafs[kind] = doc["counters"]["waf"]
    assert wafs["leaftl"] > 1.0  # GC actually ran
    assert abs(wafs["leaftl"] / wafs["dftl"] - 1.0) <= 0.10
    print(
        f"criterion 11 PASS: sequential WAF 1.0; under GC leaftl "
        f"{wafs['leaftl']:.3f} vs dftl {wafs['dftl']:.3f}"
    )


def test_criterion_12_bit_identical_replay():
    """Replaying the same (seed, config, trace) yields byte-identical
    JSON metrics, including crash recovery and forced GC."""
    events = synth("zipf", 20000, 4000, seed=13, read_ratio=0.3)
    for kind in ("leaftl", "dftl", "sftl"):
        kw = dict(crash_at=9000, force_gc_every=7000)
        a = sim.to_json(sim.run(kind, small_device(), events, **kw))
        b = sim.to_json(sim.run(kind, small_device(), events, **kw))
        assert a == b, kind
    print("criterion 12 PASS: byte-identical replay for all three FTLs")
