"""Learned FTL: flush batches become gamma-bounded segments in a
log-structured mapping table; mispredictions are corrected through the OOB
reverse-mapping window of the predicted page.

Group eviction: when the table outgrows its DRAM budget, least-recently-used
groups are serialized to translation pages (modeled as a dedicated metadata
region with counted latencies) and reloaded on demand through the global
mapping directory (GMD).

Snapshots persist the serialized table plus per-block validity; recovery
restores the snapshot and relearns only blocks programmed after it, in
program order, which replays exactly the mapping updates the crash erased.
"""

from __future__ import annotations

from .ftl import FtlBase
from .mapping import GROUP_SIZE, MappingTable, deserialize_group, serialize_group
from .plr import learn_segments

GMD_ENTRY_BYTES = 8


class _Snapshot:
    __slots__ = ("blobs", "validity")

    def __init__(self, blobs, validity):
        self.blobs = blobs  # gid -> serialized group (flash-resident copy)
        self.validity = validity  # block_id -> (program_seq, valid list copy)


class LeaFtl(FtlBase):
    name = "leaftl"

    def __init__(self, device):
        self.table = MappingTable()
        self.gmd: dict = {}  # gid -> serialized group, for evicted groups
        self._lru: dict = {}  # resident gid -> True, LRU by reinsertion
        self.snap = None
        super().__init__(device)

    # -- mapping hooks -------------------------------------------------------

    def _map_insert(self, entries, first_ppa):
        n = len(entries)
        bounds = (first_ppa, first_ppa + n - 1)
        pts = [(lpa, first_ppa + i) for i, (lpa, _) in enumerate(entries)]
        # every touched group must be resident before its segments land
        seen = -1
        for lpa, _ in entries:
            gid = lpa // GROUP_SIZE
            if gid != seen:
                seen = gid
                self._require_group(gid)
        self.table.insert_fitted(learn_segments(pts, self.gamma, bounds))
        self._enforce_dram()

    def _map_lookup(self, lpa):
        gid = lpa // GROUP_SIZE
        if gid not in self.table.groups:
            if gid not in self.gmd:
                return None
            self._require_group(gid)
        lru = self._lru
        if gid in lru:
            del lru[gid]
        lru[gid] = True
        return self.table.lookup(lpa)

    def mapping_bytes(self) -> int:
        return self.table.total_bytes + GMD_ENTRY_BYTES * len(self.gmd)

    def _map_compact(self):
        self.table.compact()

    def _map_reset(self):
        self.table = MappingTable()
        self.gmd = {}
        self._lru = {}

    # -- group residency -------------------------------------------------------

    def _require_group(self, gid):
        if gid in self.table.groups:
            return
        blob = self.gmd.pop(gid, None)
        if blob is not None:
            self.table.add_group(gid, deserialize_group(blob))
            self.translation_reads += 1
            self.background_us += self.conf.read_us
        self._lru[gid] = True

    def evict_group(self, gid):
        """Serialize one group to a translation page and drop it from DRAM."""
        group = self.table.drop_group(gid)
        if group is None:
            return
        self.gmd[gid] = serialize_group(group)
        self._lru.pop(gid, None)
        self.translation_writes += 1
        self.background_us += self.conf.write_us

    def _enforce_dram(self):
        budget = self.conf.dram_bytes
        if self.table.total_bytes <= budget:
            return
        for gid in list(self._lru):
            if self.table.total_bytes <= budget:
                break
            self.evict_group(gid)

    def mapping_dram_bytes(self) -> int:
        return self.table.total_bytes

    # -- snapshot / recovery ------------------------------------------------------

    def snapshot(self):
        """Persist the mapping table and block validity to flash."""
        blobs = dict(self.gmd)
        for gid, group in self.table.groups.items():
            blobs[gid] = serialize_group(group)
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
        self._lru = dict.fromkeys(self.table.groups, True)
        self.translation_reads += len(snap.blobs)
        self.background_us += len(snap.blobs) * self.conf.read_us
        return snap.validity
