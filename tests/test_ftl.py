"""FTL engine tests shared across mapping schemes, plus scheme-specific
behavior: buffering, flush, WAF accounting, GC, wear leveling, group
eviction, snapshot/recovery, and baseline memory shapes."""

import pytest

from ftlsim.baselines import Dftl, Sftl
from ftlsim.config import Config
from ftlsim.ftl import UnmappedRead
from ftlsim.leaftl import LeaFtl
from ftlsim.sim import build_ftl

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
