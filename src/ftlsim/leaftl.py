"""Learned FTL: flush batches become gamma-bounded segments in a
log-structured mapping table; mispredictions are corrected through the OOB
reverse-mapping window of the predicted page.

Group eviction: when the table outgrows its DRAM budget, least-recently-used
groups are written to translation pages (modeled as a dedicated metadata
region with counted latencies) and reloaded on demand through the global
mapping directory (GMD).  The resident table is the LRU (table.groups, least
recent first): a lookup moves its group to the end, and so does a host
flush, which looks up each LPA's old copy to invalidate it; a flush also
appends the groups it creates or reloads.  A GC or wear-levelling
relocation maps its block without looking the LPAs up, so it leaves the
resident groups in place.  The GMD keeps each evicted group's object:
nothing updates an evicted group, and the encoding is lossless, so the
object stands for its translation page.  An eviction is charged one
translation write and a reload one translation read, but neither encodes
nor decodes; a snapshot encodes the groups it persists.

The encoding stores intercepts as binary32, which holds every integer only
up to 2**24, and a single-point segment's intercept is its PPA.  So the
device may have at most 2**24 pages (64 GB of 4 KB pages); LeaFtl refuses
a larger one with ConfigError.

Snapshots persist the serialized table plus per-block validity; recovery
restores the snapshot and relearns only blocks programmed after it, in
program order, which replays exactly the mapping updates the crash erased.
The restored LRU order is the recency at the snapshot.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .config import ConfigError
from .ftl import FtlBase
from .mapping import GROUP_SIZE, MappingTable, deserialize_group, serialize_group
from .plr import learn_segments

GMD_ENTRY_BYTES = 8
MAX_PAGES = 1 << 24  # largest device whose PPAs round-trip through binary32


class _Snapshot:
    __slots__ = ("blobs", "validity")

    def __init__(self, blobs, validity):
        self.blobs = blobs  # gid -> serialized group (flash-resident copy)
        self.validity = validity  # block_id -> (program_seq, valid list copy)


class LeaFtl(FtlBase):
    name = "leaftl"

    def __init__(self, device):
        pages = device.conf.total_pages
        if pages > MAX_PAGES:
            raise ConfigError(
                f"leaftl supports at most {MAX_PAGES} flash pages, "
                f"the device has {pages}"
            )
        self.table = MappingTable()
        self.gmd: dict = {}  # gid -> evicted GroupTable
        self.snap = None
        super().__init__(device)

    # -- mapping hooks -------------------------------------------------------

    def _map_insert(self, entries, first_ppa):
        n = len(entries)
        pts = list(zip(map(itemgetter(0), entries), range(first_ppa, first_ppa + n)))
        fitted = learn_segments(pts, self.conf.gamma, (first_ppa, first_ppa + n - 1))
        # every touched group must be resident before its segments land;
        # each one has a segment, and the segments come in LPA order
        seen = -1
        for gid, _ in fitted:
            if gid != seen:
                seen = gid
                self._require_group(gid)
        self.table.insert_fitted(fitted)
        self._enforce_dram()

    def _map_lookup(self, lpa):
        group = self._use_group(lpa // GROUP_SIZE)
        if group is None:
            return None
        return group.lookup(lpa % GROUP_SIZE)

    def _invalidate_old(self, entries):
        """Invalidate each flushed LPA's previous copy, using each group
        once: the entries are sorted, so a group's LPAs are adjacent."""
        dev = self.dev
        seen = -1
        group = None
        for lpa, _ in entries:
            gid = lpa // GROUP_SIZE
            if gid != seen:
                seen = gid
                group = self._use_group(gid)
            if group is not None:
                res = group.lookup(lpa % GROUP_SIZE)
                if res is not None:
                    dev.invalidate_page(self._true_ppa(lpa, res[0], res[1]))

    def _map_peek(self, lpa):
        """Look lpa up in its resident or evicted group: no LRU move, no
        reload, no charge."""
        gid = lpa // GROUP_SIZE
        group = self.table.groups.get(gid)
        if group is None:
            group = self.gmd.get(gid)
            if group is None:
                return None
        res = group.lookup(lpa % GROUP_SIZE)
        return None if res is None else res[:2]

    def mapping_bytes(self) -> int:
        return self.table.total_bytes + GMD_ENTRY_BYTES * len(self.gmd)

    def _map_compact(self):
        self.table.compact()

    def _map_reset(self):
        self.table = MappingTable()
        self.gmd = {}

    # -- group residency -------------------------------------------------------

    def _use_group(self, gid):
        """The group a lookup reads, as the most recently used: a resident
        one moves to the end of the LRU, an evicted one is reloaded there.
        None when gid has no mapping."""
        groups = self.table.groups
        group = groups.get(gid)
        if group is not None:
            groups.move_to_end(gid)
            return group
        if gid not in self.gmd:
            return None
        self._require_group(gid)
        return groups[gid]

    def _require_group(self, gid):
        """Make gid resident; a reloaded or new group joins the LRU as the
        most recent, a resident one keeps its place."""
        group = self.gmd.pop(gid, None)
        if group is None:
            self.table.group(gid)
            return
        self.table.add_group(gid, group)
        self.translation_reads += 1
        self.background_us += self.conf.read_us

    def evict_group(self, gid):
        """Write one group to a translation page and drop it from DRAM; the
        GMD keeps the group object, which stands for that page."""
        group = self.table.drop_group(gid)
        if group is None:
            return
        self.gmd[gid] = group
        self.translation_writes += 1
        self.background_us += self.conf.write_us

    def _enforce_dram(self):
        budget = self.conf.dram_bytes
        table = self.table
        groups = table.groups
        while table.total_bytes > budget and groups:
            self.evict_group(next(iter(groups)))

    def mapping_dram_bytes(self) -> int:
        return self.table.total_bytes

    # -- snapshot / recovery ------------------------------------------------------

    def snapshot(self):
        """Persist the mapping table and block validity to flash."""
        # evicted groups first, then resident ones least recent first:
        # recovery restores the groups in this order, which is their LRU order
        groups = chain(self.gmd.items(), self.table.groups.items())
        blobs = {gid: serialize_group(group) for gid, group in groups}
        validity = {
            bid: (blk.program_seq, blk.valid[:])
            for bid, blk in self.dev.programmed_blocks()
        }
        self.snap = _Snapshot(blobs, validity)
        pages = max(1, len(blobs))
        self.translation_writes += pages
        self.background_us += pages * self.conf.write_us
        self.snapshots_taken += 1

    def _restore_snapshot(self) -> dict:
        """Reload the snapshotted table (every group resident, an empty GMD)
        and return its block validity; FtlBase.recover relearns the rest."""
        snap = self.snap
        if snap is None:
            return {}
        self._map_reset()
        for gid, blob in snap.blobs.items():
            self.table.add_group(gid, deserialize_group(blob))
        self.translation_reads += len(snap.blobs)
        self.background_us += len(snap.blobs) * self.conf.read_us
        return snap.validity
