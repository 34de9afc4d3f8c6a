"""Log-structured mapping table tests: insert/demote walkthroughs, CRB
ownership, merge masking, membership bitmaps against a list-based
reference, compaction equivalence and fixpoint, serialization, and memory
accounting."""

import math
import random
from bisect import bisect_right, insort_right
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftlsim.mapping import (
    GROUP_SIZE,
    GROUP_OVERHEAD_BYTES,
    SEGMENT_BYTES,
    GroupTable,
    MappingTable,
    Segment,
    _START,
    deserialize_group,
    seg_merge,
    serialize_group,
)
from ftlsim.plr import decode_slope, learn_segments, members, quantize_slope


def fitted(lpas, first, gamma=0):
    return [seg for _, seg in learn_segments(lpas, first, gamma)]


def bitmap(offsets):
    return sum(1 << o for o in offsets)


def insert_block(group, lpas, first, gamma=0):
    for seg in fitted(lpas, first, gamma):
        group.seg_update(seg)


class TestWalkthrough:
    def test_disjoint_inserts_share_level_zero(self):
        g = GroupTable()
        insert_block(g, list(range(64)), 1000)
        insert_block(g, list(range(200, 256)), 3000)
        assert len(g.levels) == 1
        assert [s.start for s in g.levels[0]] == [0, 200]

    def test_overlap_demotes_old_segment(self):
        g = GroupTable()
        insert_block(g, list(range(64)), 1000)
        insert_block(g, list(range(16, 32)), 2000)
        assert len(g.levels) == 2
        # old segment keeps its start but loses the overwritten members
        old = g.levels[1][0]
        assert old.start == 0 and old.end == 63
        ppa, accurate, level = g.lookup(50)
        assert ppa == 1050 and accurate and level == 2
        ppa, _, level = g.lookup(20)
        assert ppa == 2004 and level == 1

    def test_crb_ownership_resolves_approximate_overlap(self):
        g = GroupTable()
        insert_block(g, [75, 78, 80, 82], 500, gamma=4)
        insert_block(g, [72, 74, 80], 600, gamma=4)
        assert len(g.levels) == 2
        # 80 belongs to the new run now; 78 still resolves through the old
        runs = sorted(g.crb_runs())
        assert runs == [[72, 74, 80], [75, 78, 82]]
        ppa, accurate, level = g.lookup(78)
        assert not accurate and level == 2
        assert abs(ppa - 501) <= 4
        ppa, _, level = g.lookup(80)
        assert abs(ppa - 602) <= 4 and level == 1

    def test_crb_start_shift_when_run_head_overwritten(self):
        g = GroupTable()
        insert_block(g, [10, 13, 15, 18], 100, gamma=4)
        insert_block(g, [10, 11], 200, gamma=0)
        runs = sorted(g.crb_runs())
        assert runs == [[13, 15, 18]]
        old = [s for lvl in g.levels for s in lvl if not s.accurate]
        assert len(old) == 1 and old[0].start == 13


class TestHasLpaAndBitmap:
    def seg_half(self):
        bits = quantize_slope(0.5, True)
        return Segment(100, 6, bits, 0.5, 500.0)

    def test_stride_membership(self):
        seg = self.seg_half()
        assert seg.bm >> 100 & 1 and seg.bm >> 102 & 1
        assert seg.bm >> 104 & 1 and seg.bm >> 106 & 1
        assert not seg.bm >> 103 & 1
        assert not seg.bm >> 99 & 1
        assert not seg.bm >> 107 & 1

    def test_bitmap_stride(self):
        seg = self.seg_half()
        assert seg.bm >> 100 << 100 == seg.bm
        assert format(seg.bm >> 100, "07b")[::-1] == "1010101"

    def test_bitmap_disjoint_range(self):
        seg = self.seg_half()
        assert seg.bm & ((1 << 51) - 1) == 0

    def test_approximate_membership_via_run(self):
        bits = quantize_slope(0.2, False) | 1
        seg = Segment(72, 8, bits, 0.2, 10.0, bitmap([72, 74, 80]))
        assert seg.bm >> 72 & 1 and seg.bm >> 74 & 1 and seg.bm >> 80 & 1
        assert not seg.bm >> 76 & 1
        assert format(seg.bm >> 72, "09b")[::-1] == "101000001"

    def test_crb_run_membership(self):
        bits = quantize_slope(0.4, False) | 1
        seg = Segment(75, 7, bits, 0.4, 0.0, bitmap([75, 78, 80, 82]))
        assert not seg.bm >> 76 & 1
        assert seg.bm >> 78 & 1


class TestSegMerge:
    def test_full_cover_marks_removable(self):
        g = GroupTable()
        old = fitted(list(range(72, 81)), 172)[0]
        new = fitted(list(range(32, 91)), 532)[0]
        seg_merge(new, old, g)
        assert old.length == -1
        assert old.end == old.start  # a removed segment ends where it starts

    def test_partial_mask_keeps_bounds(self):
        g = GroupTable()
        old = fitted(list(range(64)), 100)[0]
        new = fitted(list(range(16, 32)), 516)[0]
        seg_merge(new, old, g)
        assert old.start == 0 and old.end == 63
        assert old.length != -1

    def test_disjoint_untouched(self):
        g = GroupTable()
        old = fitted(list(range(10)), 100)[0]
        before = (old.start, old.length, old.slope_bits, old.intercept)
        new = fitted(list(range(100, 120)), 600)[0]
        seg_merge(new, old, g)
        assert (old.start, old.length, old.slope_bits, old.intercept) == before


class TestMemoryAccounting:
    def test_empty_table(self):
        t = MappingTable()
        fp = t.memory_footprint()
        assert fp["total_bytes"] == 0

    def test_one_segment(self):
        t = MappingTable()
        t.insert_fitted(learn_segments(list(range(32)), 50, 0))
        fp = t.memory_footprint()
        assert fp["segment_bytes"] == SEGMENT_BYTES
        assert fp["crb_bytes"] == 0
        assert fp["total_bytes"] == SEGMENT_BYTES + GROUP_OVERHEAD_BYTES
        assert t.total_bytes == fp["total_bytes"]

    def test_sequential_region_costs_one_segment_per_group(self):
        t = MappingTable()
        pages = 64 * GROUP_SIZE
        for base in range(0, pages, 256):
            t.insert_fitted(learn_segments(list(range(base, base + 256)), base, 0))
        fp = t.memory_footprint()
        assert fp["total_bytes"] == 64 * (SEGMENT_BYTES + GROUP_OVERHEAD_BYTES)


def apply_batches(table, oracle, rng, batches, gamma, span, batch=32):
    ppa = rng.randrange(1 << 20)
    for _ in range(batches):
        count = rng.randrange(1, batch + 1)
        lpas = sorted(rng.sample(range(span), count))
        table.insert_fitted(learn_segments(lpas, ppa, gamma))
        oracle.update(zip(lpas, range(ppa, ppa + count)))
        ppa += count


def check_oracle(table, oracle, gamma):
    for lpa, true_ppa in oracle.items():
        res = table.lookup(lpa)
        assert res is not None, lpa
        ppa, accurate, _ = res
        if accurate:
            assert ppa == true_ppa, (lpa, ppa, true_ppa)
        else:
            assert abs(ppa - true_ppa) <= gamma, (lpa, ppa, true_ppa)


class TestCompaction:
    def test_single_level_noop(self):
        t = MappingTable()
        t.insert_fitted(learn_segments(list(range(256)), 0, 0))
        before = t.total_bytes
        t.compact()
        assert t.total_bytes == before
        assert len(t.groups[0].levels) == 1

    def test_randomized_equivalence_and_memory(self):
        for trial in range(100):
            rng = random.Random(4000 + trial)
            gamma = rng.choice([0, 1, 4, 8, 16])
            t = MappingTable()
            oracle = {}
            apply_batches(t, oracle, rng, 40, gamma, span=512)
            snapshot = {lpa: t.lookup(lpa) for lpa in oracle}
            before = t.total_bytes
            t.compact()
            assert t.total_bytes <= before, trial
            for lpa in oracle:
                assert t.lookup(lpa)[:2] == snapshot[lpa][:2], (trial, lpa)
            check_oracle(t, oracle, gamma)

    def test_memory_drops_for_fully_shadowed_segment(self):
        t = MappingTable()
        t.insert_fitted(learn_segments(list(range(64)), 0, 0))
        # sparse overwrite inside [0,63]: ranges still overlap after
        # masking, so the old segment is demoted rather than merged
        t.insert_fitted(learn_segments([30, 32, 34], 500, 2))
        # full rewrite replaces the level-0 segment but cannot see level 1
        t.insert_fitted(learn_segments(list(range(64)), 1000, 0))
        assert len(t.groups[0].levels) == 2
        before = t.total_bytes
        t.compact()
        # the shadowed original is dropped along with its level
        assert len(t.groups[0].levels) == 1
        assert t.total_bytes < before
        assert t.lookup(40)[0] == 1040
        assert t.lookup(0)[0] == 1000


class TestCleanGroupsSkipCompaction:
    """MappingTable.compact runs seg_compact only on a group that
    seg_update touched since its last compaction, or that was just
    deserialized."""

    @staticmethod
    def two_groups():
        t = MappingTable()
        t.insert_fitted(learn_segments(list(range(64)), 1000, 0))
        t.insert_fitted(learn_segments(list(range(16, 32)), 2016, 4))
        t.insert_fitted(learn_segments(list(range(256, 264)), 3000, 0))
        return t

    @staticmethod
    def compacted_groups(table, times=1):
        """The groups each of times compactions runs seg_compact on."""
        seg_compact = GroupTable.seg_compact
        with mock.patch.object(
            GroupTable, "seg_compact", autospec=True, side_effect=seg_compact
        ) as spy:
            passes = []
            for _ in range(times):
                table.compact()
                passes.append([c.args[0] for c in spy.call_args_list])
                spy.reset_mock()
        return passes

    def test_second_compaction_without_update_runs_no_pass(self):
        t = self.two_groups()
        first, second = self.compacted_groups(t, 2)
        assert first == [t.groups[0], t.groups[1]]
        assert second == []

    def test_one_update_makes_its_group_compact_again(self):
        t = self.two_groups()
        t.compact()
        t.insert_fitted(learn_segments([40], 5000, 0))
        assert self.compacted_groups(t) == [[t.groups[0]]]
        assert t.lookup(40)[0] == 5000

    def test_deserialized_group_compacts_once(self):
        t = self.two_groups()
        t.compact()
        blob = serialize_group(t.groups[0])
        t.groups[0] = deserialize_group(blob)
        assert self.compacted_groups(t, 2) == [[t.groups[0]], []]
        assert serialize_group(t.groups[0]) == blob


class TestSerialization:
    def test_roundtrip_randomized(self):
        for trial in range(60):
            rng = random.Random(9000 + trial)
            gamma = rng.choice([0, 4, 16])
            t = MappingTable()
            oracle = {}
            apply_batches(t, oracle, rng, 25, gamma, span=256)
            g = t.groups[0]
            blob = serialize_group(g)
            g2 = deserialize_group(blob)
            assert serialize_group(g2) == blob
            for lpa in oracle:
                assert g2.lookup(lpa) == g.lookup(lpa), (trial, lpa)
            assert g2.bytes() == g.bytes()

    def test_serialized_size_tracks_accounting(self):
        t = MappingTable()
        rng = random.Random(1)
        oracle = {}
        apply_batches(t, oracle, rng, 10, 4, span=256)
        g = t.groups[0]
        blob = serialize_group(g)
        # 2-byte level count + per level 2-byte segment count + 8B segments
        # + 2-byte CRB length + CRB payload
        expected = 2 + sum(2 + SEGMENT_BYTES * len(l) for l in g.levels)
        expected += 2 + g.crb
        assert len(blob) == expected


@st.composite
def segments(draw):
    """A resident segment and its members as a list: accurate (strided, or
    a single point) or approximate (with its CRB run), possibly already
    masked away."""
    start = draw(st.integers(0, GROUP_SIZE - 1))
    if draw(st.booleans()):
        bits = quantize_slope(1.0 / draw(st.integers(1, 40)), True)
        slope = decode_slope(bits)
        stride = math.ceil(1.0 / slope)
        length = stride * draw(st.integers(0, (GROUP_SIZE - 1 - start) // stride))
        run = list(range(start, start + length + 1, stride))
        seg = Segment(start, length, bits, slope, 0.0)
    else:
        offsets = st.integers(start, GROUP_SIZE - 1)
        run = sorted({start} | draw(st.sets(offsets, max_size=40)))
        bits = quantize_slope(0.3, False)
        seg = Segment(start, run[-1] - start, bits, decode_slope(bits), 0.0, bitmap(run))
    if draw(st.integers(0, 9)) == 0:
        seg.length, seg.bm, run = -1, 0, []
    return seg, run


@settings(max_examples=400, deadline=None)
@given(segments())
@example((Segment(10, 12, quantize_slope(0.25, True), 0.25, 0.0), [10, 14, 18, 22]))
@example((Segment(10, 0, 0, 0.0, 0.0), [10]))
def test_bm_matches_per_offset_loop(drawn):
    """A segment's bitmap holds exactly its listed members: an accurate
    one's bm, built from start, length and slope, is its progression."""
    seg, run = drawn
    for off in range(GROUP_SIZE):
        assert seg.bm >> off & 1 == (off in run), off
    assert members(seg.bm) == run


def linear_lookup(group, offset):
    """GroupTable.lookup by a scan down the levels that tests membership
    with one bit of seg.bm instead of bisecting."""
    for li, level in enumerate(group.levels):
        for seg in level:
            if seg.bm >> offset & 1:
                ppa = math.ceil(seg.slope * offset + seg.intercept)
                return ppa, seg.accurate, li + 1
    return None


def check_group_invariants(group):
    segs = [s for level in group.levels for s in level]
    assert group.crb == sum(s.bm.bit_count() + 1 for s in segs if not s.accurate)
    for seg in segs:
        # the bitmap spans exactly the segment's range
        assert seg.bm >> seg.start & 1 and seg.bm.bit_length() - 1 == seg.end, seg
    assert group.nsegs == len(segs)
    assert group.cached_bytes == group.bytes()
    for level in group.levels:
        # sorted by start, and each range ends before the next one starts
        assert all(a.end < b.start for a, b in zip(level, level[1:])), level
    for off in range(GROUP_SIZE):
        assert group.lookup(off) == linear_lookup(group, off), off
    blob = serialize_group(group)
    assert serialize_group(deserialize_group(blob)) == blob


table_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "seg_update", "compact", "reload"]),
        st.sets(st.integers(0, 2 * GROUP_SIZE - 1), min_size=1, max_size=48),
        st.sampled_from([0, 1, 4, 16]),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(table_ops)
def test_group_counters_and_blobs_stay_current(ops):
    """After every update the incremental CRB and segment counts equal a
    full walk, the table's byte count is current, and a group's blob
    decodes to a group that encodes to the same blob."""
    t = MappingTable()
    ppa = 1000
    for op, lpas, gamma, level in ops:
        lpas = sorted(lpas)
        if op == "insert":
            t.insert_fitted(learn_segments(lpas, ppa, gamma))
        elif op == "seg_update":
            for gid, seg in learn_segments(lpas, ppa, gamma):
                t.group(gid).seg_update(seg, level)
                t._touch(gid, t.groups[gid])
        elif op == "compact":
            t.compact()
        else:
            # a round trip keeps each group's bytes, so total_bytes holds
            for gid, group in t.groups.items():
                t.groups[gid] = deserialize_group(serialize_group(group))
        ppa += len(lpas) + 3
        for group in t.groups.values():
            check_group_invariants(group)
        assert t.total_bytes == sum(g.bytes() for g in t.groups.values())


SEG_FIELDS = ("start", "length", "end", "slope_bits", "slope", "intercept", "bm", "step")


def group_state(group):
    """Everything a group's behaviour depends on, as plain values."""
    levels = [[[getattr(s, f) for f in SEG_FIELDS] for s in level] for level in group.levels]
    return levels, group.crb, group.nsegs, group.cached_bytes


fitted_batches = st.lists(
    st.tuples(
        st.sets(st.integers(0, 2 * GROUP_SIZE - 1), min_size=1, max_size=64),
        st.integers(0, 16),  # gamma
        st.integers(0, (1 << 24) - 64),  # first PPA of the block
        st.booleans(),  # compact afterwards
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(fitted_batches)
@example([(set(range(0, 64, 3)), 0, (1 << 24) - 64, False)])
def test_serialization_is_lossless(batches):
    """Decoding a group's blob rebuilds the group: same levels and starts,
    the same value in every segment field, the same counters and byte
    count, and the same lookup at every offset.  PPAs reach 2**24 - 1, the
    largest a leaftl device has, so binary32 intercepts stay exact; this is
    what lets a reloaded leaftl group reuse its evicted object."""
    t = MappingTable()
    for lpas, gamma, first, compact in batches:
        t.insert_fitted(learn_segments(sorted(lpas), first, gamma))
        if compact:
            t.compact()
    for group in t.groups.values():
        copy = deserialize_group(serialize_group(group))
        assert group_state(copy) == group_state(group)
        for off in range(GROUP_SIZE):
            assert copy.lookup(off) == group.lookup(off), off


def reference_seg_update(group, seg, level_idx=0):
    """GroupTable.seg_update as it was with a remove and an insert per
    victim: the reference for the one-slice replacement."""
    if not seg.accurate:
        group._crb_dedup(seg)
        group.crb += seg.bm.bit_count() + 1
    while len(group.levels) <= level_idx:
        group.levels.append([])
    level = group.levels[level_idx]
    victims = []
    pos = bisect_right(level, seg.start, key=_START)
    j = pos
    while j < len(level) and level[j].start <= seg.end:
        victims.append(level[j])
        j += 1
    if pos > 0 and level[pos - 1].end >= seg.start:
        victims.append(level[pos - 1])
    for v in victims:
        level.remove(v)
    insort_right(level, seg, key=_START)
    group.nsegs += 1
    for v in victims:
        seg_merge(seg, v, group)
        if v.length < 0:
            group.nsegs -= 1
            continue
        if v.start <= seg.end and v.end >= seg.start:
            group._demote(v, level_idx + 1)
        else:
            insort_right(level, v, key=_START)


update_steps = st.lists(
    st.tuples(
        st.sets(st.integers(0, GROUP_SIZE - 1), min_size=1, max_size=40),
        st.sampled_from([0, 0, 1, 4, 16]),
        st.integers(0, 3),  # target level
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(update_steps)
def test_seg_update_matches_per_victim_reference(steps):
    """Replacing the victims' slice with the new segment in one step leaves
    the same levels as removing and inserting one victim at a time."""
    group, ref = GroupTable(), GroupTable()
    ppa = 5000
    for lpas, gamma, level in steps:
        lpas = sorted(lpas)
        # the table updates segments in place, so each side fits its own
        for (_, seg), (_, twin) in zip(
            learn_segments(lpas, ppa, gamma), learn_segments(lpas, ppa, gamma)
        ):
            group.seg_update(seg, level)
            reference_seg_update(ref, twin, level)
        ppa += len(lpas) + 7
        assert group_state(group)[:3] == group_state(ref)[:3]


class _ReferenceGroup(GroupTable):
    """GroupTable with CRB deduplication as it was before it went through
    GroupTable._mask_at."""

    def _crb_dedup(self, new_seg):
        new_bm = new_seg.bm
        for level in self.levels:
            doomed = []
            for seg in level:
                if seg.accurate or seg is new_seg:
                    continue
                common = seg.bm & new_bm
                if not common:
                    continue
                self.crb -= common.bit_count()
                seg.bm &= ~new_bm
                if not seg.bm:
                    self.crb -= 1
                    seg.length = -1
                    seg.end = seg.start
                    doomed.append(seg)
                else:
                    kept = members(seg.bm)
                    seg.start = kept[0]
                    seg.length = kept[-1] - kept[0]
                    seg.end = kept[-1]
            for seg in doomed:
                level.remove(seg)
            self.nsegs -= len(doomed)


masking_steps = st.lists(
    st.tuples(
        st.sets(st.integers(0, GROUP_SIZE - 1), min_size=1, max_size=40),
        st.sampled_from([1, 4, 8, 16]),  # gamma > 0: approximate runs
        st.integers(0, 3),  # target level
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(masking_steps)
def test_masking_matches_the_reference(steps):
    """CRB deduplication through _mask_at leaves the same group state,
    segment for segment and counter for counter, as the hand-written loop
    it replaced."""
    group, ref = GroupTable(), _ReferenceGroup()
    ppa = 7000
    for lpas, gamma, level in steps:
        lpas = sorted(lpas)
        for (_, seg), (_, twin) in zip(
            learn_segments(lpas, ppa, gamma), learn_segments(lpas, ppa, gamma)
        ):
            group.seg_update(seg, level)
            ref.seg_update(twin, level)
        ppa += len(lpas) + 5
        assert group_state(group) == group_state(ref)


# -- the membership bitmaps against a list-based reference --------------------


class ListSeg:
    """A segment of ListGroup: its members are a sorted list of offsets."""

    def __init__(self, seg, offsets):
        self.approximate = not seg.accurate
        self.step = seg.step
        self.members = [o for o in offsets if seg.start <= o <= seg.end]
        self.start, self.end = self.members[0], self.members[-1]

    def overlaps(self, other):
        return self.start <= other.end and other.start <= self.end

    def keep(self, kept):
        """Tighten to kept, a sublist of the members; False when empty."""
        if not kept:
            self.members = []
            return False
        self.start, self.end = kept[0], kept[-1]
        if self.approximate:
            self.members = kept
        else:
            self.members = list(range(kept[0], kept[-1] + 1, self.step))
        return True

    def mask(self, claimed):
        return self.keep([o for o in self.members if o not in claimed])


class ListGroup:
    """GroupTable's update and compaction rules over per-offset member
    lists, with no bitmaps and no bisection: the reference the bitmaps are
    checked against.  Compaction masks each segment by the set of members
    of every level above it."""

    def __init__(self):
        self.levels = []

    def seg_update(self, seg, level_idx):
        if seg.approximate:
            gone = set(seg.members)
            for level in self.levels:
                level[:] = [
                    s
                    for s in level
                    if not s.approximate or gone.isdisjoint(s.members) or s.mask(gone)
                ]
        while len(self.levels) <= level_idx:
            self.levels.append([])
        level = self.levels[level_idx]
        # the victim order of GroupTable.seg_update: those starting inside
        # seg's range, then the one before it that reaches into the range
        inside = [s for s in level if seg.start < s.start <= seg.end]
        before = [s for s in level if s.start <= seg.start <= s.end]
        for v in inside + before:
            level.remove(v)
        self._insert(level, seg)
        gone = set(seg.members)
        for v in inside + before:
            if not v.mask(gone):
                continue
            if v.overlaps(seg):
                self._demote(v, level_idx + 1)
            else:
                self._insert(level, v)

    @staticmethod
    def _insert(level, seg):
        level.append(seg)
        level.sort(key=lambda s: s.start)

    def _demote(self, seg, idx):
        if idx >= len(self.levels):
            self.levels.append([seg])
        elif any(s.overlaps(seg) for s in self.levels[idx]):
            self.levels.insert(idx, [seg])
        else:
            self._insert(self.levels[idx], seg)

    def compact(self):
        claimed = set()
        for level in self.levels:
            level[:] = [s for s in level if s.mask(claimed)]
            for s in level:
                claimed.update(s.members)
        for i in range(1, len(self.levels)):
            for seg in list(self.levels[i]):
                target = i
                for j in range(i - 1, -1, -1):
                    if any(s.overlaps(seg) for s in self.levels[j]):
                        break
                    target = j
                if target < i:
                    self.levels[i].remove(seg)
                    self._insert(self.levels[target], seg)
        self.levels = [lv for lv in self.levels if lv]


# a batch's group offsets: scattered, or a strided range that the learner
# fits as one accurate segment whose middle later batches can mask
offset_sets = st.one_of(
    st.sets(st.integers(0, GROUP_SIZE - 1), min_size=1, max_size=40),
    st.builds(
        lambda first, count, stride: set(range(first, GROUP_SIZE, stride)[:count]),
        st.integers(0, GROUP_SIZE - 1),
        st.integers(1, 64),
        st.integers(1, 5),
    ),
)

table_steps = st.lists(
    st.tuples(
        st.sampled_from(["seg_update", "seg_update", "compact", "reload"]),
        offset_sets,
        st.sampled_from([0, 0, 1, 4, 16]),
        st.integers(0, 3),  # target level
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(table_steps)
def test_bitmaps_match_a_list_reference(steps):
    """After every seg_update, compaction and serialize/reload, the group
    has the reference's levels, and each segment's bm, start and length
    equal its reference segment's member list and bounds."""
    group, ref = GroupTable(), ListGroup()
    ppa = 3000
    for op, lpas, gamma, level in steps:
        if op == "compact":
            group.seg_compact()
            ref.compact()
        elif op == "reload":
            group = deserialize_group(serialize_group(group))
        else:
            offsets = sorted(lpas)
            for _, seg in learn_segments(offsets, ppa, gamma):
                twin = ListSeg(seg, offsets)
                group.seg_update(seg, level)
                ref.seg_update(twin, level)
            ppa += len(offsets) + 9
        assert len(group.levels) == len(ref.levels)
        for got, want in zip(group.levels, ref.levels):
            assert [(s.start, s.end, s.bm) for s in got] == [
                (s.start, s.end, bitmap(s.members)) for s in want
            ]
        assert group.crb == sum(
            len(s.members) + 1 for level in ref.levels for s in level if s.approximate
        )


def pairwise_compact(group):
    """seg_compact as it was before the one-pass mask: each segment of each
    level masks the overlapping segments of every lower level, one pair at
    a time, through seg_merge.  The result depends on the masking order and
    is not always the fixpoint."""
    for i, upper in enumerate(group.levels):
        for seg in upper:
            for lower in group.levels[i + 1 :]:
                for j in range(len(lower) - 1, -1, -1):
                    if lower[j].start <= seg.end and lower[j].end >= seg.start:
                        group._mask_at(seg, lower, j)
    group._promote()


def lookups(group):
    return [(group.lookup(off) or (None, None))[:2] for off in range(GROUP_SIZE)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(offset_sets, st.sampled_from([0, 0, 1, 4, 16]), st.integers(0, 3)),
        min_size=1,
        max_size=30,
    )
)
def test_compaction_reaches_its_fixpoint(steps):
    """Compaction keeps every lookup's PPA and accuracy, a second pass
    changes nothing, and the table is never larger than the pairwise pass
    leaves it."""
    group = GroupTable()
    ppa = 11000
    for lpas, gamma, level in steps:
        lpas = sorted(lpas)
        for _, seg in learn_segments(lpas, ppa, gamma):
            group.seg_update(seg, level)
        ppa += len(lpas) + 3
    pairwise = deserialize_group(serialize_group(group))
    before = lookups(group)
    group.seg_compact()
    once = serialize_group(group)
    assert lookups(group) == before
    group.seg_compact()
    assert serialize_group(group) == once
    pairwise_compact(pairwise)
    assert lookups(pairwise) == before
    assert group.bytes() <= pairwise.bytes()


def test_compaction_masks_a_member_out_of_the_middle():
    """The order-dependent case of pairwise masking: level 1 holds
    {203..207} at stride 1, and level 0 holds {199..203}, {204, 206} at
    stride 2 and the approximate {207, 208, 209, 212}.  Masking one upper
    segment at a time leaves 205..206; the fixpoint is {205} alone."""
    one = quantize_slope(1.0, True)
    half = quantize_slope(0.5, True)
    apx = quantize_slope(0.3, False)

    def build():
        g = GroupTable()
        g.levels = [
            [
                Segment(199, 4, one, 1.0, 0.0),
                Segment(204, 2, half, 0.5, 0.0),
                Segment(207, 5, apx, decode_slope(apx), 0.0, bitmap([207, 208, 209, 212])),
            ],
            [Segment(203, 4, one, 1.0, 100.0)],
        ]
        g.nsegs, g.crb = 4, 5
        return g

    group, pairwise = build(), build()
    group.seg_compact()
    pairwise_compact(pairwise)
    ((low,),) = group.levels[1:]
    assert (low.start, low.length, low.bm) == (205, 0, 1 << 205)
    ((low,),) = pairwise.levels[1:]
    assert (low.start, low.length) == (205, 1)
    assert lookups(group) == lookups(pairwise)
