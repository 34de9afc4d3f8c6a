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
import operator
import struct
from bisect import bisect_right, insort_right
from collections import OrderedDict
from typing import Iterable

from .plr import GROUP_SIZE, Segment, decode_slope

SEGMENT_BYTES = 8
GROUP_OVERHEAD_BYTES = 16

_SEG_STRUCT = struct.Struct("<BBHf")
_START = operator.attrgetter("start")


def has_lpa(segment: Segment, offset: int) -> bool:
    """Membership test for a group-relative offset."""
    if offset < segment.start or offset > segment.end:
        return False
    if segment.length <= 0:
        return offset == segment.start
    if segment.run is not None:
        return offset in segment.run
    return (offset - segment.start) % segment.step == 0


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
    step = 1 if length == 0 else segment.step
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


def _overlaps(level, seg):
    """Whether a segment of the sorted level reaches into seg's range."""
    pos = bisect_right(level, seg.end, key=_START)
    return pos > 0 and level[pos - 1].end >= seg.start


class GroupTable:
    """Mapping state of one 256-LPA group.

    levels is the stack of levels, newest first; each level is a list of
    segments sorted by start whose ranges do not overlap.  crb (the CRB
    byte count) and nsegs (the segment count over all levels) are kept up
    to date by every update, so bytes() walks neither the runs nor the
    levels.  The encoding is lossless for PPAs below 2**24:
    deserialize_group(serialize_group(group)) rebuilds the group field for
    field, so a holder of a group nothing updates (leaftl's GMD) keeps the
    object and encodes it only when it needs the bytes, for a snapshot.
    """

    __slots__ = ("levels", "cached_bytes", "crb", "nsegs")

    def __init__(self):
        self.levels = []
        self.cached_bytes = 0
        self.crb = 0
        self.nsegs = 0

    # -- queries ----------------------------------------------------------

    def lookup(self, offset: int):
        """Return (ppa, accurate, levels_probed) or None."""
        for li, level in enumerate(self.levels):
            pos = bisect_right(level, offset, key=_START) - 1
            if pos < 0:
                continue
            seg = level[pos]
            if offset > seg.start + seg.length:
                continue
            if seg.run is not None:
                if offset not in seg.run:
                    continue
            elif seg.length > 0 and (offset - seg.start) % seg.step:
                continue
            ppa = math.ceil(seg.slope * offset + seg.intercept)
            return ppa, (seg.slope_bits & 1) == 0, li + 1
        return None

    def crb_runs(self):
        runs = [s.run for level in self.levels for s in level if s.run is not None]
        runs.sort(key=lambda r: r[0])
        return runs

    def bytes(self):
        return SEGMENT_BYTES * self.nsegs + self.crb + GROUP_OVERHEAD_BYTES

    # -- updates ----------------------------------------------------------

    def seg_update(self, seg: Segment, level_idx: int = 0):
        """Insert a new segment, resolving conflicts within the target level.

        The segment's CRB run, if any, is registered first: its offsets are
        removed from every other run of the group.
        """
        if seg.run is not None:
            self._crb_dedup(seg)
            self.crb += len(seg.run) + 1
        while len(self.levels) <= level_idx:
            self.levels.append([])
        level = self.levels[level_idx]
        # victims: segments starting inside seg's range, then the one before
        # it if that one reaches into the range; seg takes their place
        pos = bisect_right(level, seg.start, key=_START)
        j = bisect_right(level, seg.end, pos, key=_START)
        victims = level[pos:j]
        lo = pos
        if pos > 0 and level[pos - 1].end >= seg.start:
            lo = pos - 1
            victims.append(level[lo])
        level[lo:j] = (seg,)
        self.nsegs += 1
        for v in victims:
            seg_merge(seg, v, self)
            if v.length < 0:
                self.nsegs -= 1
                continue
            if v.start <= seg.end and v.end >= seg.start:
                self._demote(v, level_idx + 1)
            else:
                insort_right(level, v, key=_START)

    def _demote(self, seg, idx):
        if idx >= len(self.levels):
            self.levels.append([seg])
        elif _overlaps(self.levels[idx], seg):
            self.levels.insert(idx, [seg])
        else:
            insort_right(self.levels[idx], seg, key=_START)

    def _crb_dedup(self, new_seg):
        """Mask new_seg's run out of every approximate segment whose run
        shares an offset with it."""
        new_off = set(new_seg.run)
        for level in self.levels:
            for i in range(len(level) - 1, -1, -1):
                run = level[i].run
                if run is not None and not new_off.isdisjoint(run):
                    self._mask_at(new_seg, level, i)

    def seg_compact(self):
        """Mask shadowed members out of lower levels, then promote segments
        upward into the highest conflict-free level and drop emptied levels.

        Lookups are identical before and after: masking only removes member
        claims that an upper (newer) segment already answers, and a segment
        is only promoted past levels that have no overlap with its range.
        Memory never increases (no segment or level is ever added).
        """
        # Top-down masking: every upper segment shadows all lower levels.
        for i, upper in enumerate(self.levels):
            for seg in upper:
                for lower in self.levels[i + 1 :]:
                    self._mask_level(seg, lower)
        # Promotion: lift segments to the highest level where nothing above
        # (down to their current level) overlaps their range.
        for i in range(1, len(self.levels)):
            level = self.levels[i]
            for seg in list(level):
                target = i
                for j in range(i - 1, -1, -1):
                    if _overlaps(self.levels[j], seg):
                        break
                    target = j
                if target < i:
                    level.remove(seg)  # by identity: Segment has no __eq__
                    insort_right(self.levels[target], seg, key=_START)
        self.levels = [lv for lv in self.levels if lv]

    def _mask_level(self, seg, level):
        i = bisect_right(level, seg.end, key=_START) - 1
        while i >= 0 and level[i].end >= seg.start:
            self._mask_at(seg, level, i)
            i -= 1

    def _mask_at(self, seg, level, i):
        """Mask seg's members out of level[i] and drop it if none are left.
        Indices below i do not move."""
        old = level[i]
        seg_merge(seg, old, self)
        if old.length < 0:
            del level[i]
            self.nsegs -= 1


class MappingTable:
    """The resident groups of one device, with incremental byte accounting.

    groups is ordered least recently used first: a new or added group
    joins at the end, and a holder that evicts by recency (leaftl) moves a
    group it uses to the end.
    """

    def __init__(self):
        self.groups: OrderedDict = OrderedDict()
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
            seg_bytes += SEGMENT_BYTES * g.nsegs
            crb += g.crb
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
    """The group's serialized form."""
    out = bytearray(struct.pack("<H", len(group.levels)))
    for level in group.levels:
        out += struct.pack("<H", len(level))
        for s in level:
            out += _SEG_STRUCT.pack(s.start, s.length, s.slope_bits, s.intercept)
    crb = bytearray()
    for run in group.crb_runs():
        crb.append(len(run) & 0xFF)
        crb += bytes(run)
    out += struct.pack("<H", len(crb))
    out += crb
    return bytes(out)


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
        level = []
        for start, length, bits, intercept in _SEG_STRUCT.iter_unpack(view[pos:end]):
            seg = Segment(start, length, bits, decode_slope(bits), intercept)
            level.append(seg)
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
    group.cached_bytes = group.bytes()
    return group
