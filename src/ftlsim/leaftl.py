"""Learned FTL: flush batches become gamma-bounded segments in a
log-structured mapping table; mispredictions are corrected through the OOB
reverse-mapping window of the predicted page.

Group eviction: each 256-LPA group is a unit of FtlBase's translation
cache, costing its accounted bytes, within dram_bytes.  table.groups holds
every group.  A lookup, and a host flush looking up old copies, makes its
group the most recent, reloading it if evicted; _map_insert reloads or
starts (uncharged) the groups a block maps into but leaves resident ones
in place, so a GC or wear-levelling relocation moves none.  Eviction runs
only after _map_insert, and every group counts as dirty: each eviction is
charged a translation write, each reload a read.  The GMD lists evicted
groups in eviction order; nothing updates them and the encoding is
lossless, so a group's object stands for its translation page and only a
snapshot encodes.

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

from collections import OrderedDict
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
        self.gmd: dict = {}  # evicted gid -> None, in eviction order
        self.snap = None
        super().__init__(device)

    # -- mapping hooks -------------------------------------------------------

    def _map_insert(self, lpas, first_ppa):
        fitted = learn_segments(lpas, first_ppa, self.conf.gamma)
        # every touched group must be resident before its segments land;
        # fitted comes in LPA order, so new groups join in gid order
        tcache = self.tcache
        for gid in dict.fromkeys(map(itemgetter(0), fitted)):
            if gid not in tcache:
                self._use_unit(gid, True)
        table = self.table
        before = table.total_bytes
        table.insert_fitted(fitted)
        # the groups an insert changes are resident
        self.tcache_bytes += table.total_bytes - before
        self._evict_units()

    def _map_lookup(self, lpa):
        gid = lpa // GROUP_SIZE
        group = self.table.groups.get(gid)
        if group is None:
            return None
        self._use_unit(gid, True)
        return group.lookup(lpa % GROUP_SIZE)

    def _invalidate_old(self, lpas):
        """Invalidate each flushed LPA's previous copy, using each group
        once: the LPAs are sorted, so a group's LPAs are adjacent."""
        dev = self.dev
        groups = self.table.groups
        seen = -1
        group = None
        for lpa in lpas:
            gid = lpa // GROUP_SIZE
            if gid != seen:
                seen = gid
                group = groups.get(gid)
                if group is not None:
                    self._use_unit(gid, True)
            if group is not None:
                res = group.lookup(lpa % GROUP_SIZE)
                if res is not None:
                    dev.invalidate_page(self._true_ppa(lpa, res[0], res[1]))

    def _map_peek(self, lpa):
        """Look lpa up in its group, resident or evicted: no LRU move, no
        reload, no charge."""
        group = self.table.groups.get(lpa // GROUP_SIZE)
        if group is None:
            return None
        res = group.lookup(lpa % GROUP_SIZE)
        return None if res is None else res[:2]

    def mapping_bytes(self) -> int:
        return self.tcache_bytes + GMD_ENTRY_BYTES * len(self.gmd)

    def _map_compact(self):
        # an evicted group is compacted after its reload
        table = self.table
        before = table.total_bytes
        table.compact(self.tcache)
        self.tcache_bytes += table.total_bytes - before

    def _map_reset(self):
        self.table = MappingTable()
        self.gmd = {}

    def _load_unit(self, gid):
        # reload an evicted group, or start a new, empty one
        if gid in self.gmd:
            del self.gmd[gid]
            return self.table.groups[gid].cached_bytes
        return self.table.group(gid).cached_bytes

    def _unload_unit(self, gid):
        self.gmd[gid] = None
        return self.table.groups[gid].cached_bytes

    # -- snapshot / recovery ------------------------------------------------------

    def snapshot(self):
        """Persist the mapping table and block validity to flash."""
        # evicted groups first, then resident ones least recent first:
        # recovery restores the groups in this order, which is their LRU order
        groups = self.table.groups
        blobs = {gid: serialize_group(groups[gid]) for gid in chain(self.gmd, self.tcache)}
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
        self.tcache = OrderedDict.fromkeys(snap.blobs, True)
        self.tcache_bytes = self.table.total_bytes
        self.translation_reads += len(snap.blobs)
        self.background_us += len(snap.blobs) * self.conf.read_us
        return snap.validity
