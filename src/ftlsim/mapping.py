"""Log-structured learned mapping table.

LPAs are partitioned into 256-page groups; each group holds a stack of
levels, newest on top.  A level is a sorted, non-overlapping list of
segments.  Inserting a fresh segment at level 0 masks the overlapping LPAs
out of older segments (seg_merge); a masked victim whose range still
overlaps is demoted one level down, and a brand-new level is created
directly beneath when the next level also conflicts.

Approximate segments cannot decide membership from their slope, so each one
owns a run of member offsets in the group's conflict-resolution buffer
(CRB).  Offsets are unique across the whole group: inserting a fresh run
removes its offsets from every other run, shifting the owning segment's
start to its next surviving member (or marking it removable when none
survive).

Memory accounting: 8 bytes per segment + 1 byte per CRB offset + 1 byte per
run + GROUP_OVERHEAD_BYTES of fixed bookkeeping per group.  The bookkeeping
charge is deliberately independent of the level count: level churn varies
with the error bound gamma, and a per-level charge would make reported
memory non-comparable across gamma values.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from typing import Iterable

from .plr import GROUP_SIZE, Segment, decode_slope

SEGMENT_BYTES = 8
GROUP_OVERHEAD_BYTES = 16

_SEG_STRUCT = struct.Struct("<BBHf")


def has_lpa(segment: Segment, offset: int) -> bool:
    """Membership test for a group-relative offset."""
    if offset < segment.start or offset > segment.end:
        return False
    if segment.length <= 0:
        return offset == segment.start
    if segment.run is not None:
        return offset in segment.run
    return (offset - segment.start) % segment.stride == 0


def get_bitmap(segment: Segment, start: int, end: int) -> int:
    """Membership bitmap over [start, end]; bit i covers offset start+i."""
    length = segment.length
    if length < 0:
        return 0
    if segment.run is not None:
        bm = 0
        for off in segment.run:
            if start <= off <= end:
                bm |= 1 << (off - start)
        return bm
    # members start, start+step, ..., up to start+length: `count` bits spaced
    # `step` apart, i.e. the repunit (2**(step*count) - 1) / (2**step - 1)
    step = 1 if length == 0 else segment.stride
    count = length // step + 1
    bm = ((1 << (step * count)) - 1) // ((1 << step) - 1)
    shift = segment.start - start
    bm = bm << shift if shift >= 0 else bm >> -shift
    return bm & ((1 << (end - start + 1)) - 1)


def seg_merge(new: Segment, old: Segment, group: "GroupTable") -> None:
    """Mask new's members out of old; tighten or mark old removable.

    Slope and intercept of old are never touched, so predictions for its
    surviving members are unchanged.  Offsets that leave old's CRB run are
    taken off group.crb.
    """
    lo = min(new.start, old.start)
    hi = max(new.end, old.end)
    bm_old = get_bitmap(old, lo, hi) & ~get_bitmap(new, lo, hi)
    run = old.run
    if bm_old == 0:
        if run is not None:
            group.crb -= len(run) + 1
            run.clear()
        old.length = -1
        return
    first = (bm_old & -bm_old).bit_length() - 1
    last = bm_old.bit_length() - 1
    old.start = lo + first
    old.length = last - first
    if run is not None:
        kept = [o for o in run if (bm_old >> (o - lo)) & 1]
        group.crb -= len(run) - len(kept)
        run[:] = kept


class _Level:
    __slots__ = ("starts", "segs")

    def __init__(self):
        self.starts = []
        self.segs = []

    def insert(self, seg):
        pos = bisect_right(self.starts, seg.start)
        self.starts.insert(pos, seg.start)
        self.segs.insert(pos, seg)

    def remove(self, seg):
        pos = bisect_right(self.starts, seg.start) - 1
        while pos >= 0 and self.segs[pos] is not seg:
            pos -= 1
        del self.starts[pos]
        del self.segs[pos]

    def overlaps(self, seg):
        pos = bisect_right(self.starts, seg.end)
        return pos > 0 and self.segs[pos - 1].end >= seg.start


class GroupTable:
    """Mapping state of one 256-LPA group.

    crb (the CRB byte count) and nsegs (the segment count over all levels)
    are kept up to date by every update, so bytes() walks neither the runs
    nor the levels.  blob is the serialized form the group was last
    loaded from or written to; every update drops it, so a group that was
    only read since then is not serialized again.
    """

    __slots__ = ("levels", "cached_bytes", "crb", "nsegs", "blob")

    def __init__(self):
        self.levels = []
        self.cached_bytes = 0
        self.crb = 0
        self.nsegs = 0
        self.blob = None

    # -- queries ----------------------------------------------------------

    def lookup(self, offset: int):
        """Return (ppa, accurate, levels_probed) or None."""
        for li, level in enumerate(self.levels):
            pos = bisect_right(level.starts, offset) - 1
            if pos < 0:
                continue
            seg = level.segs[pos]
            if offset > seg.start + seg.length:
                continue
            if seg.run is not None:
                if offset not in seg.run:
                    continue
            elif seg.length > 0 and (offset - seg.start) % seg.stride:
                continue
            ppa = math.ceil(seg.slope * offset + seg.intercept)
            return ppa, (seg.slope_bits & 1) == 0, li + 1
        return None

    def crb_runs(self):
        runs = [s.run for level in self.levels for s in level.segs if s.run is not None]
        runs.sort(key=lambda r: r[0])
        return runs

    def segment_count(self):
        return self.nsegs

    def crb_bytes(self):
        return self.crb

    def bytes(self):
        return SEGMENT_BYTES * self.nsegs + self.crb + GROUP_OVERHEAD_BYTES

    # -- updates ----------------------------------------------------------

    def seg_update(self, seg: Segment, level_idx: int = 0):
        """Insert a new segment, resolving conflicts within the target level.

        The segment's CRB run, if any, is registered first: its offsets are
        removed from every other run of the group.
        """
        self.blob = None
        if seg.run is not None:
            self._crb_dedup(seg)
            self.crb += len(seg.run) + 1
        while len(self.levels) <= level_idx:
            self.levels.append(_Level())
        level = self.levels[level_idx]
        victims = []
        pos = bisect_right(level.starts, seg.start)
        j = pos
        while j < len(level.segs) and level.segs[j].start <= seg.end:
            victims.append(level.segs[j])
            j += 1
        if pos > 0 and level.segs[pos - 1].end >= seg.start:
            victims.append(level.segs[pos - 1])
        for v in victims:
            level.remove(v)
        level.insert(seg)
        self.nsegs += 1
        for v in victims:
            seg_merge(seg, v, self)
            if v.length < 0:
                self.nsegs -= 1
                continue
            if v.start <= seg.end and v.end >= seg.start:
                self._demote(v, level_idx + 1)
            else:
                level.insert(v)

    def _demote(self, seg, idx):
        if idx >= len(self.levels):
            self.levels.append(_Level())
            self.levels[idx].insert(seg)
            return
        level = self.levels[idx]
        if level.overlaps(seg):
            fresh_level = _Level()
            fresh_level.insert(seg)
            self.levels.insert(idx, fresh_level)
        else:
            level.insert(seg)

    def _crb_dedup(self, new_seg):
        new_off = set(new_seg.run)
        for level in self.levels:
            doomed = []
            for i, seg in enumerate(level.segs):
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
                    level.starts[i] = seg.start
            for seg in doomed:
                level.remove(seg)
            self.nsegs -= len(doomed)

    def seg_compact(self):
        """Mask shadowed members out of lower levels, then promote segments
        upward into the highest conflict-free level and drop emptied levels.

        Lookups are identical before and after: masking only removes member
        claims that an upper (newer) segment already answers, and a segment
        is only promoted past levels that have no overlap with its range.
        Memory never increases (no segment or level is ever added).
        """
        self.blob = None
        # Top-down masking: every upper segment shadows all lower levels.
        for i, upper in enumerate(self.levels):
            for seg in upper.segs:
                for lower in self.levels[i + 1 :]:
                    self._mask_level(seg, lower)
        # Promotion: lift segments to the highest level where nothing above
        # (down to their current level) overlaps their range.
        for i in range(1, len(self.levels)):
            level = self.levels[i]
            for seg in list(level.segs):
                target = i
                for j in range(i - 1, -1, -1):
                    if self.levels[j].overlaps(seg):
                        break
                    target = j
                if target < i:
                    level.remove(seg)
                    self.levels[target].insert(seg)
        self.levels = [lv for lv in self.levels if lv.segs]

    def _mask_level(self, seg, level):
        pos = bisect_right(level.starts, seg.end)
        victims = []
        i = pos - 1
        while i >= 0 and level.segs[i].end >= seg.start:
            victims.append(i)
            i -= 1
        for i in victims:
            old = level.segs[i]
            seg_merge(seg, old, self)
            if old.length < 0:
                del level.starts[i]
                del level.segs[i]
                self.nsegs -= 1
            else:
                level.starts[i] = old.start


class MappingTable:
    """All groups of one device, with incremental byte accounting."""

    def __init__(self):
        self.groups: dict = {}
        self.total_bytes = 0

    def _touch(self, gid, group):
        self.total_bytes -= group.cached_bytes
        group.cached_bytes = group.bytes()
        self.total_bytes += group.cached_bytes

    def group(self, gid) -> GroupTable:
        g = self.groups.get(gid)
        if g is None:
            g = self.groups[gid] = GroupTable()
        return g

    def insert_fitted(self, fitted: Iterable[tuple]):
        """Insert learn_segments' (group id, Segment) pairs; the table takes
        ownership of the segments and updates them in place."""
        touched = set()
        for gid, seg in fitted:
            self.group(gid).seg_update(seg)
            touched.add(gid)
        for gid in touched:
            self._touch(gid, self.groups[gid])

    def lookup(self, lpa: int):
        group = self.groups.get(lpa // GROUP_SIZE)
        if group is None:
            return None
        return group.lookup(lpa % GROUP_SIZE)

    def compact(self):
        for gid, group in self.groups.items():
            group.seg_compact()
            self._touch(gid, group)

    def add_group(self, gid, group):
        """Make a (deserialized) group resident; the pair of drop_group."""
        self.groups[gid] = group
        self.total_bytes += group.cached_bytes

    def drop_group(self, gid):
        group = self.groups.pop(gid, None)
        if group is not None:
            self.total_bytes -= group.cached_bytes
        return group

    def memory_footprint(self) -> dict:
        seg_bytes = 0
        crb = 0
        levels = 0
        for g in self.groups.values():
            seg_bytes += SEGMENT_BYTES * g.segment_count()
            crb += g.crb_bytes()
            levels += len(g.levels)
        overhead = GROUP_OVERHEAD_BYTES * len(self.groups)
        return {
            "segment_bytes": seg_bytes,
            "crb_bytes": crb,
            "group_overhead_bytes": overhead,
            "levels": levels,
            "total_bytes": seg_bytes + crb + overhead,
        }


# -- serialization ---------------------------------------------------------
#
# Little-endian layout of one group:
#   u16 level count
#   per level: u16 segment count, then 8 bytes per segment:
#       u8 start offset, u8 length, u16 slope bits, f32 intercept
#   u16 CRB byte length, then runs sorted by first offset:
#       u8 member count (0 encodes 256), raw offset bytes
# The CRB byte length equals the accounted CRB size (1 length byte per run
# plus 1 byte per member offset).


def serialize_group(group: GroupTable) -> bytes:
    """The group's serialized form; reuses group.blob when the group has not
    changed since it was last loaded or serialized."""
    if group.blob is not None:
        return group.blob
    out = bytearray(struct.pack("<H", len(group.levels)))
    for level in group.levels:
        out += struct.pack("<H", len(level.segs))
        for s in level.segs:
            out += _SEG_STRUCT.pack(s.start, s.length, s.slope_bits, s.intercept)
    crb = bytearray()
    for run in group.crb_runs():
        crb.append(len(run) & 0xFF)
        crb += bytes(run)
    out += struct.pack("<H", len(crb))
    out += crb
    group.blob = bytes(out)
    return group.blob


def deserialize_group(blob: bytes) -> GroupTable:
    group = GroupTable()
    view = memoryview(blob)
    (nlevels,) = struct.unpack_from("<H", blob, 0)
    pos = 2
    approx = {}
    for _ in range(nlevels):
        (count,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        end = pos + count * _SEG_STRUCT.size
        level = _Level()
        starts = level.starts
        segs = level.segs
        for start, length, bits, intercept in _SEG_STRUCT.iter_unpack(view[pos:end]):
            seg = Segment(start, length, bits, decode_slope(bits), intercept)
            starts.append(start)
            segs.append(seg)
            if bits & 1:
                approx[start] = seg
        pos = end
        group.levels.append(level)
        group.nsegs += count
    (crb_len,) = struct.unpack_from("<H", blob, pos)
    pos += 2
    end = pos + crb_len
    while pos < end:
        n = blob[pos] or 256
        pos += 1
        run = list(blob[pos : pos + n])
        pos += n
        approx[run[0]].run = run
    group.crb = crb_len
    group.blob = blob
    group.cached_bytes = group.bytes()
    return group
