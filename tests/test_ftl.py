"""FTL engine tests shared across mapping schemes, plus scheme-specific
behavior: buffering, flush, WAF accounting, GC, wear leveling, group
eviction, snapshot/recovery, and baseline memory shapes."""

import random
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ftlsim import sim
from ftlsim.baselines import Dftl, Sftl
from ftlsim.config import Config, ConfigError
from ftlsim.flash import ModelViolation
from ftlsim.ftl import FtlBase, UnmappedRead
from ftlsim.leaftl import LeaFtl
from ftlsim.mapping import GROUP_SIZE, deserialize_group, serialize_group
from ftlsim.sim import build_ftl
from ftlsim.workload import TraceEvent, synth
from reference_tpage_cache import ReferenceDftl, ReferenceSftl

KINDS = {"leaftl": LeaFtl, "dftl": Dftl, "sftl": Sftl}

# Each example of the slow sim.run equivalence tests runs whole traces, so
# shrinking a failure would take minutes; these tests report the first
# failing example as it was generated.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def make(kind, gamma=0, **kw):
    defaults = dict(
        channels=2,
        blocks_per_channel=64,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=gamma,
        dram_bytes=1 << 20,
        compaction_interval=10**9,
        snapshot_interval=10**9,
        snapshot_on_gc=False,
    )
    defaults.update(kw)
    # a one-block buffer of the geometry built, unless the test sizes it
    defaults.setdefault("buffer_bytes", defaults["pages_per_block"] * defaults["page_size"])
    return build_ftl(kind, Config(**defaults))


def evict(ftl, key):
    """Evict unit key alone from the translation cache: make it the least
    recently used and shrink the budget below the resident bytes."""
    ftl.tcache.move_to_end(key, last=False)
    budget = ftl.tcache_budget
    ftl.tcache_budget = ftl.tcache_bytes - 1
    ftl._evict_units()
    ftl.tcache_budget = budget


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
        assert ftl.dev.op_seq == 1  # one block programmed
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

    def test_relocations_count_toward_compaction(self, kind):
        # GC-heavy churn whose host writes stay below the interval
        interval = 1500
        ftl = make(
            kind, gamma=4, channels=1, blocks_per_channel=16, compaction_interval=interval
        )
        rng = random.Random(3)
        for i in range(1400):
            ftl.write(rng.randrange(320), i)
        assert ftl.host_writes < interval and ftl.gc_writes > 0
        assert ftl.compactions == 1
        # a recovery replay maps blocks again but moves no page
        pending = ftl._writes_since_compact
        ftl.crash()
        ftl.recover()
        assert ftl._writes_since_compact == pending

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


FOUR_BLOCKS = 4 * 32 * 4096  # a buffer of four 32-page blocks


def block_lpas(ftl):
    """The LPAs of each programmed block, in program order."""
    blocks = sorted(ftl.dev.programmed_blocks(), key=lambda b: b[1].program_seq)
    return [blk.lpas for _, blk in blocks]


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestMultiBlockBuffer:
    def test_flush_programs_sorted_block_chunks(self, kind):
        ftl = make(kind, buffer_bytes=FOUR_BLOCKS)
        lpas = [(i * 37) % 1000 for i in range(128)]  # distinct, unsorted
        committed = fill(ftl, lpas)
        assert [lpa for lpa, _ in committed] == sorted(lpas)
        chunks = block_lpas(ftl)
        assert [len(c) for c in chunks] == [32] * 4
        assert [lpa for c in chunks for lpa in c] == sorted(lpas)
        assert ftl.data_writes == 128 and not ftl.buffer

    def test_force_drains_a_partly_filled_buffer(self, kind):
        ftl = make(kind, buffer_bytes=FOUR_BLOCKS)
        lpas = [(i * 37) % 1000 for i in range(100)]
        assert fill(ftl, lpas) == []
        assert ftl.flush_block() is None  # 100 of 128 pages: no flush yet
        flushed = ftl.flush_block(force=True)
        assert [lpa for lpa, _ in flushed] == sorted(lpas)
        assert [len(c) for c in block_lpas(ftl)] == [32, 32, 32, 4]  # ceil(100/32)
        assert ftl.data_writes == 100 and not ftl.buffer
        for i, lpa in enumerate(lpas):
            assert ftl.read(lpa)[0] == i

    @pytest.mark.parametrize("size", [3 * 32 * 4096 - 1, 2 * 32 * 4096 + 4096])
    def test_buffer_bytes_round_down_to_whole_blocks(self, kind, size):
        ftl = make(kind, buffer_bytes=size)
        assert ftl.buffer_pages == 64
        fill(ftl, range(ftl.buffer_pages - 1))
        assert ftl.data_writes == 0
        fill(ftl, [ftl.buffer_pages - 1])
        assert ftl.data_writes == ftl.buffer_pages


def test_leaftl_learns_each_chunk_within_its_block():
    """Each chunk is learned with its own block's PPA bounds, so every
    prediction for an LPA of the chunk lands inside that chunk's block."""
    ftl = make("leaftl", gamma=8, buffer_bytes=FOUR_BLOCKS)
    lpas = [(i * 37) % 300 for i in range(128)]  # gaps: approximate segments
    fill(ftl, lpas)
    per = ftl.pages_per_block
    inexact = 0
    for bid, blk in ftl.dev.programmed_blocks():
        for i, lpa in enumerate(blk.lpas):
            ppa, _, _ = ftl.table.lookup(lpa)
            assert ppa // per == bid
            inexact += ppa != bid * per + i
    assert inexact > 0  # some predictions rely on the gamma window


def assert_only_newest_copies_valid(dev):
    """Every LPA on flash has exactly one valid page: its newest programmed
    copy, the one with the highest program_seq."""
    per = dev.conf.pages_per_block
    newest = {}  # lpa -> (program_seq, ppa)
    valid = set()
    for bid, blk in dev.programmed_blocks():
        assert blk.valid_count == sum(blk.valid)
        for ppa, lpa, ok in zip(range(bid * per, (bid + 1) * per), blk.lpas, blk.valid):
            if ok:
                valid.add(ppa)
            if newest.get(lpa, (-1,))[0] < blk.program_seq:
                newest[lpa] = (blk.program_seq, ppa)
    assert valid == {ppa for _, ppa in newest.values()}


def run_capturing(kind, conf, events, **kw):
    """sim.run, also returning the FTL it drove and how many buffered pages
    each crash lost.  Right after each recovery, every LPA's newest copy
    must be its only valid page."""
    built, lost = [], []

    def build(k, c):
        ftl = build_ftl(k, c)
        crash, recover = ftl.crash, ftl.recover

        def counted_crash():
            lost.append(len(ftl.buffer))
            crash()

        def checked_recover():
            recover()
            assert_only_newest_copies_valid(ftl.dev)

        ftl.crash, ftl.recover = counted_crash, checked_recover
        built.append(ftl)
        return ftl

    with mock.patch.object(sim, "build_ftl", build):
        doc = sim.run(kind, conf, events, **kw)
    return doc, built[0], lost


# a 32-block device with a four-block buffer, forced GC, snapshot-on-GC and
# wear levelling
CHURN = dict(
    channels=2,
    blocks_per_channel=16,
    pages_per_block=32,
    page_size=4096,
    oob_size=256,
    dram_bytes=4096,
    buffer_bytes=FOUR_BLOCKS,
    compaction_interval=1500,
    snapshot_interval=10**9,
    snapshot_on_gc=True,
    wear_threshold=2,
)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_crash_with_a_partly_filled_multi_block_buffer_recovers(kind):
    conf = Config(**CHURN, gamma=8)
    events = synth("zipf", 6000, conf.logical_pages, seed=1, read_ratio=0.3)
    doc, _, lost = run_capturing(
        kind, conf, events, crash_at=5000, force_gc_every=1500
    )
    # the crash lost more than a block but less than the whole buffer
    assert len(lost) == 1 and 32 < lost[0] < 128
    c = doc["counters"]
    assert doc["crashes"] == 1 and c["gc_invocations"] > 0
    assert c["blocks_relearned"] > 0


def device_state(dev):
    return {
        bid: (blk.lpas, blk.payloads, blk.valid, blk.erase_count, blk.program_seq)
        for bid, blk in dev.blocks.items()
    }


@pytest.mark.parametrize("trace,gamma", [("mixed", 0), ("zipf", 8), ("random", 16)])
def test_identical_flash_across_schemes(trace, gamma):
    """The three schemes share one data path, so one trace leaves the same
    LPAs, payloads, valid bitmaps, erase counts and program sequence numbers
    in every block, through multi-block flushes, forced GC, wear levelling
    and a crash.  A missed or doubled invalidation shows here even where no
    read notices it."""
    conf = Config(**CHURN, gamma=gamma)
    events = synth(trace, 6000, conf.logical_pages, seed=1, read_ratio=0.3)
    states = {}
    for kind in sorted(KINDS):
        doc, ftl, lost = run_capturing(
            kind, conf, events, crash_at=4000, force_gc_every=1500
        )
        c = doc["counters"]
        assert c["gc_invocations"] > 0 and c["wear_swaps"] > 0 and lost[0] > 0
        states[kind] = device_state(ftl.dev)
    assert states["leaftl"] == states["dftl"] == states["sftl"]


@settings(max_examples=40, deadline=None)
@given(
    trace=st.sampled_from(["mixed", "zipf", "random"]),
    gamma=st.sampled_from([0, 4, 16]),
    wear=st.booleans(),
    snapshot_on_gc=st.booleans(),
    snapshot_interval=st.sampled_from([128, 512, 10**9]),
    seed=st.integers(0, 2**16),
    count=st.integers(300, 2500),
    gc_at=st.floats(0.05, 1.0),
    crash_at=st.floats(0.05, 1.0),
)
def test_random_traces_leave_identical_flash(
    trace, gamma, wear, snapshot_on_gc, snapshot_interval, seed, count, gc_at,
    crash_at,
):
    """The shared data path, checked on random small traces: with or without
    wear levelling, with snapshots after every GC, every few flushes or
    never, through a forced GC and one crash between host ops, the three
    schemes leave identical flash in every block, and every block's LPAs
    strictly increase (a flush, GC and wear levelling all program a block
    sorted by LPA)."""
    conf = Config(
        **{
            **CHURN,
            "wear_threshold": 2 if wear else 0,
            "snapshot_on_gc": snapshot_on_gc,
            "snapshot_interval": snapshot_interval,
        },
        gamma=gamma,
    )
    events = synth(trace, count, conf.logical_pages, seed=seed, read_ratio=0.3)
    states = []
    for kind in sorted(KINDS):
        doc, ftl, _ = run_capturing(
            kind,
            conf,
            events,
            crash_at=max(1, int(count * crash_at)),
            force_gc_every=max(1, int(count * gc_at)),
        )
        assert doc["crashes"] == 1 and doc["counters"]["gc_invocations"] > 0
        for _, blk in ftl.dev.programmed_blocks():
            assert all(a < b for a, b in zip(blk.lpas, blk.lpas[1:])), blk.lpas
        states.append(device_state(ftl.dev))
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_recovery_skips_snapshot_mappings_into_reprogrammed_blocks(kind):
    """A periodic snapshot taken before a GC maps LPAs into blocks the GC
    erased and reprogrammed since.  Recovery must not invalidate the live
    pages those blocks hold now, or a later GC drops them and a host flush
    reads an unprogrammed page."""
    conf = Config(
        **{
            **CHURN,
            "snapshot_on_gc": False,
            "snapshot_interval": 1024,
            "wear_threshold": 0,
        },
        gamma=4,
    )
    events = synth("mixed", 2678, conf.logical_pages, seed=2451, read_ratio=0.3)
    doc, _, _ = run_capturing(kind, conf, events, crash_at=2405, force_gc_every=2109)
    c = doc["counters"]
    assert doc["crashes"] == 1 and c["gc_invocations"] > 0
    assert (c["snapshots"] > 0) == (kind == "leaftl")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_gc_never_picks_a_block_it_filled(kind):
    """A relocation invalidates nothing, so a block that a run_gc call
    fills stays full until the call ends, and _pick_victim skips it: no
    victim a call erases is a block the same call allocated earlier.
    Recorded through forced GC, watermark GC, wear levelling and a crash."""
    calls = []  # per run_gc call: ("alloc" | "victim", block id) in order
    in_gc = False

    def build(k, c):
        ftl = build_ftl(k, c)
        dev = ftl.dev
        run_gc, allocate, erase = ftl.run_gc, dev.allocate_block, dev.erase_block

        def recording_run_gc(force=False):
            nonlocal in_gc
            calls.append([])
            in_gc = True
            try:
                return run_gc(force)
            finally:
                in_gc = False

        def recording_allocate():
            bid = allocate()
            if in_gc:
                calls[-1].append(("alloc", bid))
            return bid

        def recording_erase(bid):
            if in_gc:
                calls[-1].append(("victim", bid))
            return erase(bid)

        ftl.run_gc = recording_run_gc
        dev.allocate_block, dev.erase_block = recording_allocate, recording_erase
        return ftl

    conf = Config(**CHURN, gamma=8)
    events = synth("zipf", 6000, conf.logical_pages, seed=1, read_ratio=0.3)
    with mock.patch.object(sim, "build_ftl", build):
        doc = sim.run(kind, conf, events, crash_at=4000, force_gc_every=1500)
    c = doc["counters"]
    assert c["wear_swaps"] > 0 and c["gc_invocations"] == len(calls)
    picked_after_a_fill = 0
    for steps in calls:
        allocated = set()
        for what, bid in steps:
            if what == "alloc":
                allocated.add(bid)
            else:
                assert bid not in allocated, steps
                picked_after_a_fill += bool(allocated)
    assert picked_after_a_fill > 0


class TestLeaFtlSpecifics:
    def test_sequential_flush_learns_one_segment_per_group(self):
        ftl = make("leaftl", pages_per_block=256, buffer_bytes=256 * 4096)
        fill(ftl, range(256))
        assert ftl.table.groups[0].nsegs == 1

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
        assert ftl.counters()["extra_reads"] == ftl.mispredictions

    def test_host_flush_raises_when_oob_correction_misses(self):
        """A host flush resolves each old copy as a read does; when the OOB
        window does not hold the LPA, it raises instead of leaving the old
        copy valid for GC to relocate."""
        ftl = make("leaftl", gamma=8, pages_per_block=8)
        lpas = [0, 1, 2, 4, 6, 7, 9, 11]
        fill(ftl, lpas)
        dev = ftl.dev
        predicted = {lpa: ftl.table.lookup(lpa)[0] for lpa in lpas}
        assert any(dev.read_page(ppa)[0] != lpa for lpa, ppa in predicted.items())
        with mock.patch.object(dev, "correct_misprediction", return_value=None):
            with pytest.raises(ModelViolation, match="not within gamma"):
                fill(ftl, lpas, payload_base=100)

    def test_evict_then_load_roundtrips(self):
        ftl = make("leaftl", gamma=4)
        fill(ftl, list(range(64)) + [100, 103, 105, 110] + list(range(200, 228)))
        before = {lpa: ftl.table.lookup(lpa) for lpa in range(64)}
        tw = ftl.translation_writes
        evict(ftl, 0)
        assert ftl.translation_writes == tw + 1
        assert list(ftl.gmd) == [0] and 0 not in ftl.tcache
        tr = ftl.translation_reads
        bg = ftl.background_us
        ftl._use_unit(0, True)
        assert ftl.translation_reads == tr + 1
        assert ftl.background_us == bg + ftl.conf.read_us
        for lpa, want in before.items():
            assert ftl.table.lookup(lpa) == want
        table = ftl.table
        assert table.total_bytes == sum(g.cached_bytes for g in table.groups.values())
        assert ftl.tcache_bytes == table.total_bytes and not ftl.gmd

    def test_lookup_of_evicted_group_reloads_transparently(self):
        ftl = make("leaftl")
        fill(ftl, range(64))
        evict(ftl, 0)
        got, _ = ftl.read(10)
        assert got == 10
        assert 0 in ftl.tcache

    def test_dram_budget_evicts_lru_groups(self):
        ftl = make("leaftl", dram_bytes=256)  # tiny mapping budget
        fill(ftl, range(4096))
        assert ftl.tcache_bytes <= 256
        assert len(ftl.gmd) > 0
        got, _ = ftl.read(3)  # evicted group still readable
        assert got == 3

    @pytest.mark.parametrize("touch", ["lookup", "overwrite", "relocation"])
    def test_lookup_protects_its_group_and_a_flush_does_not(self, touch):
        """Three one-segment groups (24 bytes each) against a 48-byte
        budget: the third evicts the least recently used one.  A read of
        group 0 makes group 1 the victim, and so does a host overwrite of
        group 0, whose flush looks up each LPA's old copy to invalidate it;
        a relocation into group 0, which maps a block without looking its
        LPAs up (as GC does), leaves group 0 the victim."""
        ftl = make("leaftl", dram_bytes=48)
        lpas = list(range(32)) + list(range(GROUP_SIZE, GROUP_SIZE + 32))
        committed = fill(ftl, lpas)
        assert list(ftl.tcache) == [0, 1]
        assert ftl.tcache_bytes == 48
        if touch == "lookup":
            assert ftl.read(5)[0] == 5
            victim = 1
        elif touch == "overwrite":
            fill(ftl, range(32), payload_base=100)
            assert list(ftl.tcache) == [1, 0]
            victim = 1
        else:
            ftl._program_batch(committed[:32], ftl.dev.allocate_block())
            victim = 0
        fill(ftl, range(2 * GROUP_SIZE, 2 * GROUP_SIZE + 32))
        assert list(ftl.gmd) == [victim]
        assert list(ftl.tcache) == [1 - victim, 2]

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


# A full first block {0..30, 40} ends at PPA 31 and the next block starts at
# PPA 32 with LPA 41, on the same translation page: the join (40, 41) spans
# two blocks.  Moving 40 again later breaks it at the new block's last entry.
CROSS_BLOCK = [("flush", set(range(31)) | {40}), ("flush", {41, 42, 60})]


@settings(max_examples=150, deadline=None)
@given(sftl_steps)
@example(CROSS_BLOCK)
@example(CROSS_BLOCK + [("relocate", {40}), ("crash", {0})])
@example(CROSS_BLOCK + [("flush", {39, 40}), ("flush", {41})])
def test_sftl_join_count_matches_a_full_walk(steps):
    """Sftl counts its joined pairs in one pass over each programmed block;
    after every host flush, relocation or crash and recovery the count
    equals a walk of the whole map, so mapping_bytes is 8 bytes per extent
    run."""
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


@pytest.mark.parametrize(
    "kind,reference", [("dftl", ReferenceDftl), ("sftl", ReferenceSftl)]
)
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(
    ops=trace_ops,
    dram=st.integers(1, 5 * 256 - 1),
    crash_pct=st.integers(1, 99),
    fill_stride=st.integers(1, 2),
)
def test_translation_cache_matches_the_page_cache_reference(
    kind, reference, ops, dram, crash_pct, fill_stride
):
    """FtlBase's translation cache, with dftl/sftl's data (page_size per
    page, a budget of whole pages and at least one), gives the document of
    the page cache dftl and sftl kept themselves (reference_tpage_cache.py)
    at caches of one to four pages, dram_bytes below one page included,
    across forced GC and a crash."""
    conf = Config(
        **TINY_TPAGES,
        blocks_per_channel=16,
        pages_per_block=32,
        dram_bytes=dram,
        snapshot_on_gc=False,
    )
    events = [TraceEvent(0, "w", lpa, 1) for lpa in range(0, 409, fill_stride)]
    events += [TraceEvent(0, op, lpa, 1) for op, lpa in ops]
    kw = dict(force_gc_every=500, crash_at=max(1, len(events) * crash_pct // 100))
    doc = sim.run(kind, conf, events, **kw)
    reference.last = None
    with mock.patch.dict(sim.FTL_KINDS, {kind: reference}):
        want = sim.run(kind, conf, events, **kw)
    assert reference.last.own_touches > 0
    assert want["crashes"] == 1 and want["counters"]["translation_writes"] > 0
    assert sim.to_json(doc) == sim.to_json(want)


class _SeparateLruLeaFtl(LeaFtl):
    """Keeps the LRU order in an OrderedDict of its own beside the
    translation cache and evicts from it with a loop of its own, charging
    a translation write per eviction, as leaftl did before FtlBase owned
    the cache; the cache's own eviction never runs.  A crash empties the
    order and a recovery rebuilds it in snapshot order."""

    last = None  # the instance built last, set on the concrete class

    def __init__(self, device):
        self._lru = OrderedDict()  # resident gid -> True, least recent first
        self.own_evictions = 0
        super().__init__(device)
        type(self).last = self

    def _use_unit(self, gid, dirty):
        # every lookup, by a read, a flush or a recovery, goes through here
        self._lru[gid] = True
        self._lru.move_to_end(gid)
        return super()._use_unit(gid, dirty)

    def _evict_units(self):
        budget = self.conf.dram_bytes
        while self.tcache_bytes > budget and self._lru:
            gid, _ = self._lru.popitem(last=False)
            del self.tcache[gid]
            self.tcache_bytes -= self._unload_unit(gid)
            self.translation_writes += 1
            self.background_us += self.conf.write_us
            self.own_evictions += 1

    def _map_reset(self):
        super()._map_reset()
        self._lru = OrderedDict()

    def _restore_snapshot(self):
        validity = super()._restore_snapshot()
        self._lru = OrderedDict.fromkeys(self.tcache, True)
        return validity


class _DecodingLeaFtl(_SeparateLruLeaFtl):
    """Reloads an evicted group by encoding and decoding it, as a device
    would write the translation page and read it back; its LRU is the
    separately kept one above."""

    def __init__(self, device):
        self.decoded = 0
        super().__init__(device)

    def _load_unit(self, gid):
        groups = self.table.groups
        if gid in self.gmd:
            groups[gid] = deserialize_group(serialize_group(groups[gid]))
            self.decoded += 1
        return super()._load_unit(gid)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(
    synth_kind=st.sampled_from(["zipf", "random"]),
    seed=st.integers(0, 2**16),
    gamma=st.sampled_from([0, 4, 16]),
    dram=st.integers(100, 600),
    crash=st.booleans(),
)
def test_group_reload_keeps_the_evicted_object(synth_kind, seed, gamma, dram, crash):
    """A reload re-adds the evicted group object instead of decoding its
    encoding; with a DRAM budget of a few hundred bytes, groups evict and
    reload inside every flush, and the document equals that of decoding
    (with the separately kept LRU, across a crash too)."""
    conf = Config(
        channels=2,
        blocks_per_channel=32,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=gamma,
        dram_bytes=dram,
        buffer_bytes=32 * 4096,
        compaction_interval=1500,
        snapshot_interval=2000,
    )
    events = synth(synth_kind, 3000, 2048, seed=seed, read_ratio=0.4)
    crash_at = 2500 if crash else None
    doc = sim.run("leaftl", conf, events, crash_at=crash_at)
    _DecodingLeaFtl.last = None
    with mock.patch.dict(sim.FTL_KINDS, {"leaftl": _DecodingLeaFtl}):
        want = sim.run("leaftl", conf, events, crash_at=crash_at)
    assert doc["counters"]["translation_reads"] > 0
    assert _DecodingLeaFtl.last.decoded > 0
    assert _DecodingLeaFtl.last.own_evictions > 0
    assert sim.to_json(doc) == sim.to_json(want)


def test_eviction_encodes_nothing():
    """An evicted group stays an object in the GMD; with no snapshot taken,
    nothing is ever encoded, however many groups evict and reload."""
    conf = Config(
        channels=2,
        blocks_per_channel=32,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=4,
        dram_bytes=300,
        buffer_bytes=32 * 4096,
        snapshot_interval=10**9,
        snapshot_on_gc=False,
    )
    events = synth("zipf", 3000, 2048, seed=1, read_ratio=0.4)
    with mock.patch("ftlsim.leaftl.serialize_group", wraps=serialize_group) as spy:
        doc = sim.run("leaftl", conf, events)
    assert doc["counters"]["translation_writes"] > 0
    assert doc["counters"]["translation_reads"] > 0
    assert spy.call_count == 0


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(
    synth_kind=st.sampled_from(["zipf", "random"]),
    seed=st.integers(0, 2**16),
    gamma=st.sampled_from([0, 4, 16]),
    dram=st.integers(100, 600),
)
def test_resident_table_order_is_the_lru(synth_kind, seed, gamma, dram):
    """With a DRAM budget of a few hundred bytes, groups evict and reload
    inside every flush; evicting from the front of the translation cache
    gives the same document as a separately kept LRU."""
    conf = Config(
        channels=2,
        blocks_per_channel=32,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=gamma,
        dram_bytes=dram,
        buffer_bytes=32 * 4096,
        compaction_interval=1500,
        snapshot_interval=2000,
    )
    events = synth(synth_kind, 3000, 2048, seed=seed, read_ratio=0.4)
    doc = sim.run("leaftl", conf, events)
    _SeparateLruLeaFtl.last = None
    with mock.patch.dict(sim.FTL_KINDS, {"leaftl": _SeparateLruLeaFtl}):
        want = sim.run("leaftl", conf, events)
    assert doc["counters"]["translation_reads"] > 0
    assert _SeparateLruLeaFtl.last.own_evictions > 0
    assert sim.to_json(doc) == sim.to_json(want)


def test_leaftl_refuses_a_device_beyond_binary32_ppas():
    """A single-point segment keeps its PPA as the intercept, which the
    translation-page encoding stores as binary32: exact only up to 2**24."""
    geometry = dict(page_size=4096, oob_size=512, gamma=0, dram_bytes=256)
    fits = Config(channels=2, blocks_per_channel=32768, pages_per_block=256, **geometry)
    assert fits.total_pages == 1 << 24
    build_ftl("leaftl", fits)
    big = Config(channels=2, blocks_per_channel=32769, pages_per_block=256, **geometry)
    with pytest.raises(ConfigError, match="at most 16777216"):
        build_ftl("leaftl", big)
    build_ftl("dftl", big)  # the per-page baselines have no such limit


def _observable_state(ftl):
    """Everything a peek could move: the reported counters, the read cache,
    and the translation cache (resident units in LRU order with their dirty
    flags, and their bytes)."""
    return [
        ftl.counters(),
        ftl.background_us,
        list(ftl.cache.items()),
        list(ftl.tcache.items()),
        ftl.tcache_bytes,
    ]


@pytest.mark.parametrize(
    "kind, dram",
    [
        ("leaftl", 1 << 20),
        ("dftl", 1 << 20),
        ("sftl", 1 << 20),
        ("leaftl", 4000),  # half the groups evicted to the GMD
        ("dftl", 8192),  # a two-page translation cache
    ],
)
def test_peek_resolves_every_lpa_and_moves_nothing(kind, dram):
    ftl = make(kind, gamma=4, dram_bytes=dram)
    rng = random.Random(3)
    latest = {}
    for i in range(3000):
        lpa = rng.randrange(2048)
        # reads reload evicted groups; the last 100 ops write, so a flush
        # evicts again
        if lpa in latest and i < 2900 and rng.random() < 0.4:
            assert ftl.read(lpa)[0] == latest[lpa]
        else:
            ftl.write(lpa, i)
            latest[lpa] = i
    assert ftl.buffer
    if dram == 4000:
        assert ftl.gmd and len(ftl.tcache) > 1
    elif dram == 8192:
        assert len(ftl.tcache) == 2
    else:
        assert ftl.cache
    before = _observable_state(ftl)
    for lpa, want in latest.items():
        assert ftl.peek(lpa) == want
    with pytest.raises(UnmappedRead):
        ftl.peek(2048 + GROUP_SIZE)
    assert _observable_state(ftl) == before
