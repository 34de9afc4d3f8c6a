"""Baseline mapping schemes on top of the shared FTL engine.

Dftl keeps an exact page-level map partitioned into translation pages, with a
demand-loaded LRU cache of those pages in DRAM (dirty pages are written back
on eviction).  Sftl uses the same translation-page caching but compresses each
page's entries into extent runs (consecutive LPAs mapped to consecutive PPAs),
so its DRAM cost is 8 bytes per run instead of 8 bytes per entry.

Both update the map one programmed block at a time.  A block's entries are
sorted by LPA, so each translation page is touched once per run of entries
that share it, when the block is mapped and when a host flush invalidates
the entries' previous copies.  Sftl keeps its run count per programmed
block too: it counts the joined LPA pairs the block can change before and
after mapping it.
"""

from __future__ import annotations

from itertools import repeat
from operator import sub

from .ftl import FtlBase

ENTRY_BYTES = 8


class _TpageCachingFtl(FtlBase):
    """Exact lpa->ppa map with translation pages demand-cached in DRAM."""

    def __init__(self, device):
        conf = device.conf
        self.map: dict = {}  # lpa -> ppa, authoritative
        self.entries_per_tpage = conf.page_size // ENTRY_BYTES
        self.tcache: dict = {}  # tvpn -> dirty flag, LRU via reinsertion
        super().__init__(device)
        self.tcache_cap = max(1, conf.dram_bytes // conf.page_size)

    def _touch_tpage(self, tvpn, dirty):
        cache = self.tcache
        prev = cache.pop(tvpn, None)
        if prev is None:
            # demand load from the translation region
            self.translation_reads += 1
            self.background_us += self.conf.read_us
            prev = False
        cache[tvpn] = prev or dirty
        if len(cache) > self.tcache_cap:
            victim, was_dirty = next(iter(cache.items()))
            del cache[victim]
            if was_dirty:
                self.translation_writes += 1
                self.background_us += self.conf.write_us

    def _map_insert(self, entries, first_ppa):
        # Sftl extends _update_map, so one block is one map.insert call even
        # where the benchmark tracer wraps _map_insert in each class.
        self._update_map(entries, first_ppa)

    def _update_map(self, entries, first_ppa):
        """Map sorted entries to consecutive PPAs from first_ppa.  Touching
        the page just touched again changes nothing (it is the most recent
        entry of a cache of at least one page), so each translation page is
        touched once per run of entries that share it."""
        m = self.map
        per = self.entries_per_tpage
        last_tvpn = -1
        for ppa, (lpa, _) in enumerate(entries, first_ppa):
            m[lpa] = ppa
            tvpn = lpa // per
            if tvpn != last_tvpn:
                last_tvpn = tvpn
                self._touch_tpage(tvpn, dirty=True)

    def _invalidate_old(self, entries):
        """Invalidate the previous copy of each mapped LPA of a host flush.
        Charges what a _map_lookup per mapped LPA would: one clean touch per
        run of mapped entries that share a translation page."""
        m = self.map
        per = self.entries_per_tpage
        invalidate = self.dev.invalidate_page
        last_tvpn = -1
        for lpa, _ in entries:
            old = m.get(lpa)
            if old is None:
                continue
            invalidate(old)
            tvpn = lpa // per
            if tvpn != last_tvpn:
                last_tvpn = tvpn
                self._touch_tpage(tvpn, dirty=False)

    def _map_lookup(self, lpa):
        ppa = self.map.get(lpa)
        if ppa is None:
            return None
        self._touch_tpage(lpa // self.entries_per_tpage, dirty=False)
        return ppa, True, 1

    def _map_reset(self):
        self.map = {}
        self.tcache = {}

    def mapping_dram_bytes(self) -> int:
        return len(self.tcache) * self.conf.page_size


class Dftl(_TpageCachingFtl):
    name = "dftl"

    def mapping_bytes(self) -> int:
        return ENTRY_BYTES * len(self.map)


class Sftl(_TpageCachingFtl):
    name = "sftl"

    def __init__(self, device):
        # joined pairs: lpa and lpa+1 on one translation page, mapped to
        # consecutive PPAs, so they continue one extent run
        self._joins = 0
        super().__init__(device)

    def _update_map(self, entries, first_ppa):
        """Keep _joins exact across the block: only pairs with a member in
        the block can change, so count the joined ones among them before
        and after the update.  Runs never span a translation page, as in
        per-page extent encoding, so a pair across a page boundary is never
        counted."""
        per = self.entries_per_tpage
        lpas = {lpa for lpa, _ in entries}
        # pair (k, k+1) for k in the block or just before a block member
        keys = [k for k in lpas.union([lpa - 1 for lpa in lpas]) if (k + 1) % per]
        succ = [k + 1 for k in keys]
        before = self._joined(keys, succ)
        super()._update_map(entries, first_ppa)
        self._joins += self._joined(keys, succ) - before

    def _joined(self, keys, succ):
        """How many pairs (keys[i], succ[i]) map to consecutive PPAs.  A
        missing key reads as -2 and a missing successor as -4, so a pair
        with an unmapped member never differs by one."""
        get = self.map.get
        ppas = map(get, keys, repeat(-2))
        return list(map(sub, map(get, succ, repeat(-4)), ppas)).count(1)

    def _map_reset(self):
        super()._map_reset()
        self._joins = 0

    def mapping_bytes(self) -> int:
        # entries minus joins is exactly the number of extent runs
        return ENTRY_BYTES * (len(self.map) - self._joins)
