"""Log-structured learned mapping table.

LPAs are partitioned into 256-page groups; each group holds a stack of
levels, newest on top.  A level is a sorted, non-overlapping list of
segments.  Inserting a fresh segment at level 0 masks the overlapping LPAs
out of older segments (seg_merge); a masked victim whose range still
overlaps is demoted one level down, and a brand-new level is created
directly beneath when the next level also conflicts.

Membership is one record per segment: bm, an int bitmap over the group's
256 offsets (see plr.Segment).  Lookups test one bit of it, and masking,
CRB deduplication and compaction are bitwise operations on it.  An
accurate segment's members follow from its slope, so only its range is
stored.  Approximate segments cannot decide membership from their slope,
so each one's members are stored as a run in the group's
conflict-resolution buffer (CRB).  Offsets are unique across the whole
CRB: inserting a fresh run removes its offsets from every other run,
shifting the owning segment's start to its next surviving member (or
marking it removable when none survive).

Compaction (GroupTable.seg_compact) masks every segment by the members of
all levels above it in one top-down pass, which reaches the fixpoint of
pairwise masking, then lifts segments into the highest level that does not
conflict with them.

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
from typing import Iterable

from .plr import GROUP_SIZE, Segment, decode_slope, members, progression

SEGMENT_BYTES = 8
GROUP_OVERHEAD_BYTES = 16

_SEG_STRUCT = struct.Struct("<BBHf")
_START = operator.attrgetter("start")


def seg_merge(new: Segment, old: Segment, group: "GroupTable") -> None:
    """Mask new's members out of old; tighten or mark old removable.

    Slope and intercept of old are never touched, so predictions for its
    surviving members are unchanged.  Offsets that leave old's CRB run are
    taken off group.crb.
    """
    bm = old.bm
    kept = bm & ~new.bm
    if kept != bm:
        _tighten(old, kept, group)


def _tighten(seg: Segment, kept: int, group: "GroupTable") -> bool:
    """Shrink seg to kept, a subset of its members: start and length span
    the lowest and highest kept offset, and an accurate segment claims its
    whole progression over that range again.  Returns False, with seg marked
    removable, when nothing is kept."""
    approximate = seg.slope_bits & 1
    if approximate:
        group.crb -= seg.bm.bit_count() - kept.bit_count()
    if not kept:
        if approximate:
            group.crb -= 1
        seg.bm = 0
        seg.length = -1
        seg.end = seg.start
        return False
    first = (kept & -kept).bit_length() - 1
    last = kept.bit_length() - 1
    seg.start = first
    seg.length = last - first
    seg.end = last
    seg.bm = kept if approximate else progression(first, last, seg.step)
    return True


def _overlaps(level, seg):
    """Whether a segment of the sorted level reaches into seg's range."""
    pos = bisect_right(level, seg.end, key=_START)
    return pos > 0 and level[pos - 1].end >= seg.start


class GroupTable:
    """Mapping state of one 256-LPA group.

    levels is the stack of levels, newest first; each level is a list of
    segments sorted by start whose ranges do not overlap.  Each segment's
    bm is its membership, so a lookup bisects each level for the one
    segment whose range may hold the offset and tests one bit.  crb (the CRB
    byte count) and nsegs (the segment count over all levels) are kept up
    to date by every update, so bytes() walks neither the runs nor the
    levels.  The encoding is lossless for PPAs below 2**24:
    deserialize_group(serialize_group(group)) rebuilds the group field for
    field, so a holder of a group nothing updates (an evicted leaftl
    group) keeps the object and encodes it only for a snapshot.
    dirty says whether seg_update ran since the last compaction; a new or
    deserialized group starts dirty, and MappingTable.compact skips a clean
    one, which compaction would leave as it is.
    """

    __slots__ = ("levels", "cached_bytes", "crb", "nsegs", "dirty")

    def __init__(self):
        self.levels = []
        self.cached_bytes = 0
        self.crb = 0
        self.nsegs = 0
        self.dirty = True  # updated since its last compaction

    # -- queries ----------------------------------------------------------

    def lookup(self, offset: int):
        """Return (ppa, accurate, levels_probed) or None."""
        for li, level in enumerate(self.levels):
            pos = bisect_right(level, offset, key=_START) - 1
            if pos < 0:
                continue
            seg = level[pos]
            if not seg.bm >> offset & 1:
                continue
            ppa = math.ceil(seg.slope * offset + seg.intercept)
            return ppa, (seg.slope_bits & 1) == 0, li + 1
        return None

    def crb_runs(self):
        """The approximate segments' member lists, ascending by first
        offset."""
        runs = [
            members(s.bm) for level in self.levels for s in level if s.slope_bits & 1
        ]
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
        self.dirty = True
        if seg.slope_bits & 1:
            self._crb_dedup(seg)
            self.crb += seg.bm.bit_count() + 1
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
        bm = new_seg.bm
        for level in self.levels:
            for i in range(len(level) - 1, -1, -1):
                seg = level[i]
                if seg.slope_bits & 1 and seg.bm & bm:
                    self._mask_at(new_seg, level, i)

    def seg_compact(self):
        """Mask shadowed members out of lower levels, then promote segments
        upward into the highest conflict-free level and drop emptied levels.

        Masking is one top-down pass: claimed collects the members of every
        level above, and each segment keeps only its members outside it
        (tightened as in seg_merge).  That reaches the fixpoint of masking
        each segment by every newer one, whatever the order, so a second
        compaction changes nothing.  Lookups are identical before and
        after: masking only removes member claims that an upper (newer)
        segment already answers, and a segment is only promoted past levels
        that have no overlap with its range.  Memory never increases (no
        segment or level is ever added).  Compaction is idempotent, so the
        group is clean until its next update.
        """
        self.dirty = False
        claimed = 0
        for level in self.levels:
            level_bm = 0
            for i in range(len(level) - 1, -1, -1):
                seg = level[i]
                bm = seg.bm
                if bm & claimed and not _tighten(seg, bm & ~claimed, self):
                    del level[i]
                    self.nsegs -= 1
                else:
                    level_bm |= seg.bm
            claimed |= level_bm
        self._promote()

    def _promote(self):
        """Lift segments to the highest level where nothing above (down to
        their current level) overlaps their range; drop emptied levels."""
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

    def _mask_at(self, seg, level, i):
        """Mask seg's members out of level[i] and drop it if none are left.
        Indices below i do not move."""
        old = level[i]
        seg_merge(seg, old, self)
        if old.length < 0:
            del level[i]
            self.nsegs -= 1


class MappingTable:
    """The groups of one device, gid -> GroupTable, with incremental byte
    accounting: total_bytes is the sum of every group's cached_bytes.
    Which groups are resident in DRAM is the holder's concern (leaftl's
    translation cache); the table keeps evicted groups too.
    """

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

    def compact(self, gids=None):
        """Compact every group of gids (default: all) updated since its last
        compaction; a clean group would come out unchanged."""
        groups = self.groups
        for gid in groups if gids is None else gids:
            group = groups[gid]
            if group.dirty:
                group.seg_compact()
                self._touch(gid, group)

    def add_group(self, gid, group):
        """Add a (deserialized) group that gid does not have yet."""
        self.groups[gid] = group
        self.total_bytes += group.cached_bytes

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
            approximate = bits & 1
            # an approximate segment's members come from the CRB below
            seg = Segment(
                start, length, bits, decode_slope(bits), intercept,
                0 if approximate else None,
            )
            level.append(seg)
            if approximate:
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
        bm = 0
        for off in blob[pos : pos + n]:
            bm |= 1 << off
        approx[blob[pos]].bm = bm
        pos += n
    group.crb = crb_len
    group.cached_bytes = group.bytes()
    return group
