"""FTL engine tests shared across mapping schemes, plus scheme-specific
behavior: buffering, flush, WAF accounting, GC, wear leveling, group
eviction, snapshot/recovery, and baseline memory shapes."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlsim import sim
from ftlsim.baselines import Dftl, Sftl
from ftlsim.config import Config
from ftlsim.ftl import FtlBase, UnmappedRead
from ftlsim.leaftl import LeaFtl
from ftlsim.sim import build_ftl
from ftlsim.workload import TraceEvent

KINDS = {"leaftl": LeaFtl, "dftl": Dftl, "sftl": Sftl}


def make(kind, gamma=0, **kw):
    defaults = dict(
        channels=2,
        blocks_per_channel=64,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=gamma,
        dram_bytes=1 << 20,
        buffer_bytes=32 * 4096,
        compaction_interval=10**9,
        snapshot_interval=10**9,
        snapshot_on_gc=False,
    )
    defaults.update(kw)
    return build_ftl(kind, Config(**defaults))


def fill(ftl, lpas, payload_base=0):
    committed = []
    for i, lpa in enumerate(lpas):
        _, flushed = ftl.write(lpa, payload_base + i)
        if flushed:
            committed.extend(flushed)
    return committed


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestEngine:
    def test_ftl_and_device_share_one_config(self, kind):
        ftl = make(kind)
        assert ftl.conf is ftl.dev.conf

    def test_buffer_dedups_overwrites(self, kind):
        ftl = make(kind)
        for i in range(10):
            ftl.write(5, i)
        assert len(ftl.buffer) == 1
        assert ftl.buffer[5] == 9
        assert ftl.data_writes == 0

    def test_block_fill_triggers_exactly_one_flush(self, kind):
        ftl = make(kind)
        for i in range(32):
            ftl.write(i, i)
        assert ftl.data_writes == 32
        assert ftl.dev.flash_writes == 32
        assert len(ftl.buffer) == 0

    def test_read_after_write_returns_last_payload(self, kind):
        ftl = make(kind)
        ftl.write(3, 100)
        ftl.write(3, 200)
        assert ftl.read(3)[0] == 200  # buffered
        fill(ftl, range(100, 140))
        got, _ = ftl.read(3)
        assert got == 200

    def test_buffered_write_acks_in_zero_time(self, kind):
        ftl = make(kind)
        lat, _ = ftl.write(1, 1)
        assert lat == 0.0

    def test_unwritten_lpa_is_a_miss(self, kind):
        ftl = make(kind)
        with pytest.raises(UnmappedRead):
            ftl.read(4321)

    def test_cache_hit_charges_no_flash_reads(self, kind):
        ftl = make(kind)
        fill(ftl, range(64))
        ftl.read(7)
        before = ftl.dev.flash_reads
        got, lat = ftl.read(7)
        assert got == 7
        assert ftl.dev.flash_reads == before
        assert lat == 0.0

    def test_read_cache_evicts_least_recently_used(self, kind):
        ftl = make(kind)
        fill(ftl, range(64))
        ftl.cache_cap = 2  # no flush follows, so the cap holds
        for lpa in (1, 2, 1, 3):
            assert ftl.read(lpa)[0] == lpa
        # the hit on 1 made 2 the oldest, so inserting 3 evicted 2
        assert list(ftl.cache) == [1, 3]
        assert ftl.cache_hits == 1
        ftl.write(3, 300)
        assert list(ftl.cache) == [1]

    def test_waf_one_for_write_once_fill(self, kind):
        ftl = make(kind)
        fill(ftl, range(1024))
        assert ftl.counters()["waf"] == 1.0

    def test_gc_reclaims_space_and_preserves_data(self, kind):
        ftl = make(kind, channels=1, blocks_per_channel=16)
        live = {}
        for i in range(1024):
            lpa = i % 96  # heavy overwrite pressure
            live[lpa] = i
            ftl.write(lpa, i)
        ftl.flush_block(force=True)
        assert ftl.gc_invocations > 0
        assert ftl.dev.flash_erases > 0
        assert ftl.counters()["waf"] >= 1.0
        for lpa, want in live.items():
            assert ftl.read(lpa)[0] == want

    def test_gc_of_fully_invalid_block_moves_nothing(self, kind):
        ftl = make(kind, channels=1, blocks_per_channel=8)
        fill(ftl, range(32))
        fill(ftl, range(32), payload_base=500)  # first block fully stale
        before = ftl.gc_writes
        ftl.run_gc(force=True)
        assert ftl.gc_writes == before

    def test_crash_then_recover_restores_flushed_data(self, kind):
        ftl = make(kind)
        committed = dict(fill(ftl, range(100)))
        ftl.write(999, 1)  # buffered only: lost
        ftl.crash()
        ftl.recover()
        with pytest.raises(UnmappedRead):
            ftl.read(999)
        for lpa, want in committed.items():
            assert ftl.read(lpa)[0] == want

    def test_wear_leveling_disabled_by_default(self, kind):
        ftl = make(kind)
        fill(ftl, range(512))
        assert ftl.wear_level() is None
        assert ftl.wear_swaps == 0

    def test_wear_leveling_swaps_cold_block(self, kind):
        ftl = make(kind, channels=1, blocks_per_channel=12, wear_threshold=4)
        live = {}
        for i in range(2000):
            lpa = 32 + (i % 64) if i else 0  # lpa 0 written once: cold block
            live[lpa] = i
            ftl.write(lpa, i)
        ftl.flush_block(force=True)
        if ftl.wear_swaps:  # spread must have crossed the threshold
            for lpa, want in live.items():
                assert ftl.read(lpa)[0] == want

    def test_wear_leveling_without_a_recycled_block_does_nothing(self, kind):
        ftl = make(kind, channels=1, blocks_per_channel=8, wear_threshold=1)
        dev = ftl.dev
        block = dev.allocate_block()
        for _ in range(2):
            dev.program_block(block, [(0, 0)])
            dev.erase_block(block)
            assert dev.allocate_block() == block
        dev.program_block(block, [(0, 0)])
        assert dev.erase_spread() == 2  # fresh blocks count as 0 erases
        assert ftl.wear_level() is None
        assert dev.allocate_worn_block() is None  # no fresh block was recycled

    def test_identical_placement_across_schemes(self, kind):
        # same trace -> same flash write count for every scheme
        ftl = make(kind, channels=1, blocks_per_channel=16)
        for i in range(2048):
            ftl.write(i % 128, i)
        ftl.flush_block(force=True)
        c = ftl.counters()
        assert (c["data_writes"], c["gc_writes"]) == (2048, c["gc_writes"])
        if not hasattr(TestEngine, "_placement"):
            TestEngine._placement = {}
        TestEngine._placement[kind] = (c["flash_writes"], c["flash_erases"])
        first = next(iter(TestEngine._placement.values()))
        assert TestEngine._placement[kind] == first


class TestLeaFtlSpecifics:
    def test_sequential_flush_learns_one_segment_per_group(self):
        ftl = make("leaftl", pages_per_block=256, buffer_bytes=256 * 4096)
        fill(ftl, range(256))
        assert ftl.table.groups[0].segment_count() == 1

    def test_misprediction_charges_exactly_one_extra_read(self):
        ftl = make("leaftl", gamma=8, pages_per_block=8)
        lpas = [0, 1, 2, 4, 6, 7, 9, 11]
        fill(ftl, lpas)
        for lpa in lpas:
            before_reads = ftl.dev.flash_reads
            before_mp = ftl.mispredictions
            got, _ = ftl.read(lpa)
            assert got == lpas.index(lpa)
            charged = ftl.dev.flash_reads - before_reads
            if ftl.mispredictions > before_mp:
                assert charged == 2
            else:
                assert charged == 1
        assert ftl.mispredictions > 0  # the batch above must mispredict
        assert ftl.extra_reads == ftl.mispredictions

    def test_evict_then_load_roundtrips(self):
        ftl = make("leaftl", gamma=4)
        fill(ftl, list(range(64)) + [100, 103, 105, 110] + list(range(200, 228)))
        before = {lpa: ftl.table.lookup(lpa) for lpa in range(64)}
        tw = ftl.translation_writes
        ftl.evict_group(0)
        assert ftl.translation_writes == tw + 1
        assert 0 not in ftl.table.groups
        tr = ftl.translation_reads
        bg = ftl.background_us
        ftl._require_group(0)
        assert ftl.translation_reads == tr + 1
        assert ftl.background_us == bg + ftl.conf.read_us
        for lpa, want in before.items():
            assert ftl.table.lookup(lpa) == want
        table = ftl.table
        assert table.total_bytes == sum(g.cached_bytes for g in table.groups.values())

    def test_lookup_of_evicted_group_reloads_transparently(self):
        ftl = make("leaftl")
        fill(ftl, range(64))
        ftl.evict_group(0)
        got, _ = ftl.read(10)
        assert got == 10
        assert 0 in ftl.table.groups

    def test_dram_budget_evicts_lru_groups(self):
        ftl = make("leaftl", dram_bytes=256)  # tiny mapping budget
        fill(ftl, range(4096))
        assert ftl.table.total_bytes <= 256
        assert len(ftl.gmd) > 0
        got, _ = ftl.read(3)  # evicted group still readable
        assert got == 3

    def test_crash_right_after_snapshot_relearns_nothing(self):
        ftl = make("leaftl")
        fill(ftl, range(128))
        ftl.snapshot()
        ftl.crash()
        ftl.recover()
        assert ftl.blocks_relearned == 0
        assert ftl.read(100)[0] == 100

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_crash_after_k_post_snapshot_flushes(self, k):
        ftl = make("leaftl")
        fill(ftl, range(128))
        ftl.snapshot()
        fill(ftl, range(1000, 1000 + k * 32), payload_base=1000)
        ftl.crash()
        ftl.recover()
        assert ftl.blocks_relearned == k
        for i, lpa in enumerate(range(1000, 1000 + k * 32)):
            assert ftl.read(lpa)[0] == 1000 + i
        assert ftl.read(127)[0] == 127

    def test_recover_relearns_snapshot_blocks_reprogrammed_since(self):
        # GC erases and reuses blocks the snapshot recorded; their stored
        # validity belongs to the old contents and must not be restored
        ftl = make("leaftl", gamma=4, channels=1, blocks_per_channel=16)
        committed = dict(fill(ftl, range(128)))
        ftl.snapshot()
        snap_seq = max(seq for seq, _ in ftl.snap.validity.values())
        committed.update(fill(ftl, [i % 96 for i in range(2000)], payload_base=1000))
        ftl.crash()
        programmed = dict(ftl.dev.programmed_blocks())
        stale = [
            bid
            for bid, (seq, _) in ftl.snap.validity.items()
            if bid in programmed and programmed[bid].program_seq != seq
        ]
        assert ftl.gc_invocations > 0 and stale
        ftl.recover()
        after = sum(blk.program_seq > snap_seq for blk in programmed.values())
        assert ftl.blocks_relearned == after
        for lpa, want in committed.items():
            assert ftl.read(lpa)[0] == want

    def test_compaction_interval_fires(self):
        ftl = make("leaftl", compaction_interval=64)
        fill(ftl, range(256))  # 8 flushes of 32; threshold crossed every 2
        assert ftl.compactions == 4


class TestBaselineMemory:
    def test_dftl_bytes_are_eight_per_entry(self):
        ftl = make("dftl")
        fill(ftl, range(1000))
        ftl.flush_block(force=True)
        assert ftl.mapping_bytes() == 8 * 1000
        fill(ftl, range(500))  # overwrites add no entries
        ftl.flush_block(force=True)
        assert ftl.mapping_bytes() == 8 * 1000

    def test_sftl_sequential_region_is_one_run_per_tpage(self):
        # one channel keeps consecutive blocks physically contiguous
        ftl = make("sftl", channels=1)
        fill(ftl, range(512))  # exactly one translation page span
        assert ftl.mapping_bytes() == 8

    def test_sftl_stride_writes_condense_nothing(self):
        ftl = make("sftl", channels=1)
        n = 256
        fill(ftl, range(0, 2 * n, 2))
        assert ftl.mapping_bytes() == 8 * n

    def test_dftl_translation_cache_thrash_charges_reads(self):
        ftl = make("dftl", dram_bytes=2 * 4096)  # two cached pages
        fill(ftl, range(64))
        spread = [0, 600, 1200, 1800, 2400]  # five distinct tpages
        fill(ftl, spread, payload_base=500)
        ftl.flush_block(force=True)
        before = ftl.translation_reads
        for lpa in spread:
            ftl.read(lpa)
        # each read lands on an uncached translation page
        assert ftl.translation_reads - before >= len(spread) - 2


# 256-byte pages: 32 map entries per translation page, so a 32-page block
# of a 409-page logical space spans several translation pages.
TINY_TPAGES = dict(channels=1, page_size=256, oob_size=4, buffer_bytes=32 * 256)


def extent_runs(mapping, per_tpage):
    """Extent runs of an lpa->ppa map, counted by walking it in LPA order."""
    runs = 0
    prev = None
    for lpa, ppa in sorted(mapping.items()):
        if not (prev == (lpa - 1, ppa - 1) and lpa % per_tpage):
            runs += 1
        prev = (lpa, ppa)
    return runs


sftl_steps = st.lists(
    st.tuples(
        st.sampled_from(["flush", "relocate", "crash"]),
        st.sets(st.integers(0, 3 * 32 - 1), min_size=1, max_size=32),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(sftl_steps)
def test_sftl_join_count_matches_a_full_walk(steps):
    """Sftl counts its joined pairs per programmed block; after every host
    flush, relocation or crash and recovery the count equals a walk of the
    whole map, so mapping_bytes is 8 bytes per extent run."""
    ftl = make("sftl", **TINY_TPAGES)
    per = ftl.entries_per_tpage
    payload = 0
    for op, lpas in steps:
        entries = []
        for lpa in sorted(lpas):
            payload += 1
            entries.append((lpa, payload))
        if op == "flush":
            ftl._program_batch(entries)
        elif op == "relocate":
            ftl._program_batch(entries, ftl.dev.allocate_block())
        else:
            ftl.crash()
            ftl.recover()
        m = ftl.map
        joined = sum(
            1 for lpa, ppa in m.items() if (lpa + 1) % per and m.get(lpa + 1) == ppa + 1
        )
        assert ftl._joins == joined
        assert ftl.mapping_bytes() == 8 * extent_runs(m, per)


class _PerPageDftl(Dftl):
    _invalidate_old = FtlBase._invalidate_old


class _PerPageSftl(Sftl):
    _invalidate_old = FtlBase._invalidate_old


trace_ops = st.lists(
    st.tuples(st.sampled_from("wwwr"), st.integers(0, 408)), min_size=1, max_size=1500
)


@pytest.mark.parametrize(
    "kind,reference", [("dftl", _PerPageDftl), ("sftl", _PerPageSftl)]
)
@settings(max_examples=40, deadline=None)
@given(ops=trace_ops, tpages=st.integers(1, 3), fill_stride=st.integers(1, 2))
def test_block_invalidation_matches_per_page_lookups(
    kind, reference, ops, tpages, fill_stride
):
    """A host flush invalidates old copies one block at a time with one
    clean touch per run of entries sharing a translation page.  With a
    cache of 1-3 translation pages, which evicts inside a block, the
    document equals that of a lookup per page through _true_ppa."""
    conf = Config(
        **TINY_TPAGES,
        blocks_per_channel=16,
        pages_per_block=32,
        dram_bytes=tpages * 256,
        snapshot_on_gc=False,
    )
    events = [TraceEvent(0, "w", lpa, 1) for lpa in range(0, 409, fill_stride)]
    events += [TraceEvent(0, op, lpa, 1) for op, lpa in ops]
    doc = sim.run(kind, conf, events, force_gc_every=500)
    with mock.patch.dict(sim.FTL_KINDS, {kind: reference}):
        want = sim.run(kind, conf, events, force_gc_every=500)
    assert sim.to_json(doc) == sim.to_json(want)
