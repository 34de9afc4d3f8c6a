"""Log-structured mapping table tests: insert/demote walkthroughs, CRB
ownership, merge masking, compaction equivalence, serialization, and
memory accounting."""

import math
import random
from bisect import bisect_right, insort_right

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
    get_bitmap,
    has_lpa,
    seg_merge,
    serialize_group,
)
from ftlsim.plr import decode_slope, learn_segments, quantize_slope


def fitted(points, gamma=0):
    return [seg for _, seg in learn_segments(points, gamma)]


def insert_points(group, points, gamma=0):
    for seg in fitted(points, gamma):
        group.seg_update(seg)


class TestWalkthrough:
    def test_disjoint_inserts_share_level_zero(self):
        g = GroupTable()
        insert_points(g, [(i, 1000 + i) for i in range(64)])
        insert_points(g, [(i, 3000 + i - 200) for i in range(200, 256)])
        assert len(g.levels) == 1
        assert [s.start for s in g.levels[0]] == [0, 200]

    def test_overlap_demotes_old_segment(self):
        g = GroupTable()
        insert_points(g, [(i, 1000 + i) for i in range(64)])
        insert_points(g, [(i, 2000 + i - 16) for i in range(16, 32)])
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
        old_pts = [(75, 500), (78, 501), (80, 502), (82, 503)]
        insert_points(g, old_pts, gamma=4)
        new_pts = [(72, 600), (74, 601), (80, 602)]
        insert_points(g, new_pts, gamma=4)
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
        insert_points(g, [(10, 100), (13, 101), (15, 102), (18, 103)], gamma=4)
        insert_points(g, [(10, 200), (11, 201)], gamma=0)
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
        assert has_lpa(seg, 100) and has_lpa(seg, 102)
        assert has_lpa(seg, 104) and has_lpa(seg, 106)
        assert not has_lpa(seg, 103)
        assert not has_lpa(seg, 99)
        assert not has_lpa(seg, 107)

    def test_bitmap_stride(self):
        seg = self.seg_half()
        bm = get_bitmap(seg, 100, 106)
        assert format(bm, "07b")[::-1] == "1010101"

    def test_bitmap_disjoint_range(self):
        seg = self.seg_half()
        assert get_bitmap(seg, 0, 50) == 0

    def test_approximate_membership_via_run(self):
        seg = Segment(72, 8, quantize_slope(0.2, False) | 1, 0.2, 10.0, run=[72, 74, 80])
        assert has_lpa(seg, 72) and has_lpa(seg, 74) and has_lpa(seg, 80)
        assert not has_lpa(seg, 76)
        bm = get_bitmap(seg, 72, 80)
        assert format(bm, "09b")[::-1] == "101000001"

    def test_crb_run_membership(self):
        seg = Segment(75, 7, quantize_slope(0.4, False) | 1, 0.4, 0.0, run=[75, 78, 80, 82])
        assert not has_lpa(seg, 76)
        assert has_lpa(seg, 78)


class TestSegMerge:
    def test_full_cover_marks_removable(self):
        g = GroupTable()
        old = fitted([(i, 100 + i) for i in range(72, 81)])[0]
        new = fitted([(i, 500 + i) for i in range(32, 91)])[0]
        seg_merge(new, old, g)
        assert old.length == -1

    def test_partial_mask_keeps_bounds(self):
        g = GroupTable()
        old = fitted([(i, 100 + i) for i in range(64)])[0]
        new = fitted([(i, 500 + i) for i in range(16, 32)])[0]
        seg_merge(new, old, g)
        assert old.start == 0 and old.end == 63
        assert old.length != -1

    def test_disjoint_untouched(self):
        g = GroupTable()
        old = fitted([(i, 100 + i) for i in range(10)])[0]
        before = (old.start, old.length, old.slope_bits, old.intercept)
        new = fitted([(i, 500 + i) for i in range(100, 120)])[0]
        seg_merge(new, old, g)
        assert (old.start, old.length, old.slope_bits, old.intercept) == before


class TestMemoryAccounting:
    def test_empty_table(self):
        t = MappingTable()
        fp = t.memory_footprint()
        assert fp["total_bytes"] == 0

    def test_one_segment(self):
        t = MappingTable()
        t.insert_fitted(learn_segments([(i, 50 + i) for i in range(32)], 0))
        fp = t.memory_footprint()
        assert fp["segment_bytes"] == SEGMENT_BYTES
        assert fp["crb_bytes"] == 0
        assert fp["total_bytes"] == SEGMENT_BYTES + GROUP_OVERHEAD_BYTES
        assert t.total_bytes == fp["total_bytes"]

    def test_sequential_region_costs_one_segment_per_group(self):
        t = MappingTable()
        pages = 64 * GROUP_SIZE
        for base in range(0, pages, 256):
            t.insert_fitted(
                learn_segments([(base + i, base + i) for i in range(256)], 0)
            )
        fp = t.memory_footprint()
        assert fp["total_bytes"] == 64 * (SEGMENT_BYTES + GROUP_OVERHEAD_BYTES)


def apply_batches(table, oracle, rng, batches, gamma, span, batch=32):
    ppa = rng.randrange(1 << 20)
    for _ in range(batches):
        count = rng.randrange(1, batch + 1)
        lpas = sorted(rng.sample(range(span), count))
        pts = [(lpa, ppa + i) for i, lpa in enumerate(lpas)]
        ppa += count
        table.insert_fitted(learn_segments(pts, gamma))
        for lpa, p in pts:
            oracle[lpa] = p


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
        t.insert_fitted(learn_segments([(i, i) for i in range(256)], 0))
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
        t.insert_fitted(learn_segments([(i, i) for i in range(64)], 0))
        # sparse overwrite inside [0,63]: ranges still overlap after
        # masking, so the old segment is demoted rather than merged
        t.insert_fitted(learn_segments([(30, 500), (32, 501), (34, 502)], 2))
        # full rewrite replaces the level-0 segment but cannot see level 1
        t.insert_fitted(learn_segments([(i, 1000 + i) for i in range(64)], 0))
        assert len(t.groups[0].levels) == 2
        before = t.total_bytes
        t.compact()
        # the shadowed original is dropped along with its level
        assert len(t.groups[0].levels) == 1
        assert t.total_bytes < before
        assert t.lookup(40)[0] == 1040
        assert t.lookup(0)[0] == 1000


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
    """A resident segment: accurate (strided, or a single point) or
    approximate (with its CRB run), possibly already masked away."""
    start = draw(st.integers(0, GROUP_SIZE - 1))
    if draw(st.booleans()):
        bits = quantize_slope(1.0 / draw(st.integers(1, 40)), True)
        seg = Segment(start, 0, bits, decode_slope(bits), 0.0)
        room = (GROUP_SIZE - 1 - start) // seg.stride
        seg.length = seg.stride * draw(st.integers(0, room))
    else:
        offsets = st.integers(start, GROUP_SIZE - 1)
        run = sorted({start} | draw(st.sets(offsets, max_size=40)))
        bits = quantize_slope(0.3, False)
        seg = Segment(start, run[-1] - start, bits, decode_slope(bits), 0.0, run)
    if draw(st.integers(0, 9)) == 0:
        seg.length = -1
    return seg


@settings(max_examples=400, deadline=None)
@given(segments(), st.integers(0, GROUP_SIZE - 1), st.integers(0, GROUP_SIZE - 1))
@example(Segment(10, 12, quantize_slope(0.25, True), 0.25, 0.0), 13, 18)
@example(Segment(10, 12, quantize_slope(0.25, True), 0.25, 0.0), 0, 5)
@example(Segment(10, 0, 0, 0.0, 0.0), 10, 10)
def test_get_bitmap_matches_per_offset_loop(seg, a, b):
    start, end = min(a, b), max(a, b)
    want = 0
    for off in range(start, end + 1):
        if seg.length >= 0 and has_lpa(seg, off):
            want |= 1 << (off - start)
    assert get_bitmap(seg, start, end) == want


def linear_lookup(group, offset):
    """GroupTable.lookup by a scan down the levels that tests membership
    with has_lpa instead of bisecting."""
    for li, level in enumerate(group.levels):
        for seg in level:
            if has_lpa(seg, offset):
                ppa = math.ceil(seg.slope * offset + seg.intercept)
                return ppa, seg.accurate, li + 1
    return None


def check_group_invariants(group):
    segs = [s for level in group.levels for s in level]
    runs = [s.run for s in segs if s.run is not None]
    assert group.crb == sum(len(run) + 1 for run in runs)
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
        pts = [(lpa, ppa + i) for i, lpa in enumerate(sorted(lpas))]
        ppa += len(pts) + 3
        if op == "insert":
            t.insert_fitted(learn_segments(pts, gamma))
        elif op == "seg_update":
            for gid, seg in learn_segments(pts, gamma):
                t.group(gid).seg_update(seg, level)
                t._touch(gid, t.groups[gid])
        elif op == "compact":
            t.compact()
        else:
            for gid in list(t.groups):
                group = t.drop_group(gid)
                t.add_group(gid, deserialize_group(serialize_group(group)))
        for group in t.groups.values():
            check_group_invariants(group)
        assert t.total_bytes == sum(g.bytes() for g in t.groups.values())


SEG_FIELDS = ("start", "length", "slope_bits", "slope", "intercept", "run", "step")


def group_state(group):
    """Everything a group's behaviour depends on, as plain values."""
    levels = [[[getattr(s, f) for f in SEG_FIELDS] for s in level] for level in group.levels]
    return levels, group.crb, group.nsegs, group.cached_bytes


fitted_batches = st.lists(
    st.tuples(
        st.sets(st.integers(0, 2 * GROUP_SIZE - 1), min_size=1, max_size=64),
        st.integers(0, 16),  # gamma
        st.booleans(),  # bounded to the batch's PPA range, as leaftl does
        st.integers(0, (1 << 24) - 64),  # first PPA of the batch
        st.booleans(),  # compact afterwards
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(fitted_batches)
@example([(set(range(0, 64, 3)), 0, True, (1 << 24) - 64, False)])
def test_serialization_is_lossless(batches):
    """Decoding a group's blob rebuilds the group: same levels and starts,
    the same value in every segment field, the same counters and byte
    count, and the same lookup at every offset.  PPAs reach 2**24 - 1, the
    largest a leaftl device has, so binary32 intercepts stay exact; this is
    what lets a reloaded leaftl group reuse its evicted object."""
    t = MappingTable()
    for lpas, gamma, bounded, first, compact in batches:
        pts = [(lpa, first + i) for i, lpa in enumerate(sorted(lpas))]
        bounds = (first, first + len(pts) - 1) if bounded else None
        t.insert_fitted(learn_segments(pts, gamma, bounds))
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
    if seg.run is not None:
        group._crb_dedup(seg)
        group.crb += len(seg.run) + 1
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
        pts = [(lpa, ppa + i) for i, lpa in enumerate(sorted(lpas))]
        ppa += len(pts) + 7
        # the table updates segments in place, so each side fits its own
        for (_, seg), (_, twin) in zip(
            learn_segments(pts, gamma), learn_segments(pts, gamma)
        ):
            group.seg_update(seg, level)
            reference_seg_update(ref, twin, level)
        assert group_state(group)[:3] == group_state(ref)[:3]


class _ReferenceGroup(GroupTable):
    """GroupTable with CRB deduplication and compaction masking as they
    were before both went through GroupTable._mask_at."""

    def _crb_dedup(self, new_seg):
        new_off = set(new_seg.run)
        for level in self.levels:
            doomed = []
            for seg in level:
                run = seg.run
                if run is None or seg is new_seg:
                    continue
                if not new_off.intersection(run):
                    continue
                kept = [o for o in run if o not in new_off]
                self.crb -= len(run) - len(kept)
                run[:] = kept
                if not run:
                    self.crb -= 1
                    seg.length = -1
                    doomed.append(seg)
                else:
                    seg.start = run[0]
                    seg.length = run[-1] - run[0]
            for seg in doomed:
                level.remove(seg)
            self.nsegs -= len(doomed)

    def _mask_level(self, seg, level):
        pos = bisect_right(level, seg.end, key=_START)
        victims = []
        i = pos - 1
        while i >= 0 and level[i].end >= seg.start:
            victims.append(i)
            i -= 1
        for i in victims:
            old = level[i]
            seg_merge(seg, old, self)
            if old.length < 0:
                del level[i]
                self.nsegs -= 1


masking_steps = st.lists(
    st.tuples(
        st.sets(st.integers(0, GROUP_SIZE - 1), min_size=1, max_size=40),
        st.sampled_from([1, 4, 8, 16]),  # gamma > 0: approximate runs
        st.integers(0, 3),  # target level
        st.booleans(),  # compact afterwards
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(masking_steps)
def test_masking_matches_the_reference(steps):
    """CRB deduplication and compaction masking through _mask_at leave the
    same group state, segment for segment and counter for counter, as the
    hand-written loops they replaced."""
    group, ref = GroupTable(), _ReferenceGroup()
    ppa = 7000
    for lpas, gamma, level, compact in steps:
        pts = [(lpa, ppa + i) for i, lpa in enumerate(sorted(lpas))]
        ppa += len(pts) + 5
        for (_, seg), (_, twin) in zip(
            learn_segments(pts, gamma), learn_segments(pts, gamma)
        ):
            group.seg_update(seg, level)
            ref.seg_update(twin, level)
        if compact:
            group.seg_compact()
            ref.seg_compact()
        assert group_state(group) == group_state(ref)
