"""Baseline mapping schemes on top of the shared FTL engine.

Dftl keeps an exact page-level map partitioned into translation pages, with a
demand-loaded LRU cache of those pages in DRAM (dirty pages are written back
on eviction).  Sftl uses the same translation-page caching but compresses each
page's entries into extent runs (consecutive LPAs mapped to consecutive PPAs),
so its DRAM cost is 8 bytes per run instead of 8 bytes per entry.
"""

from __future__ import annotations

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

    def _tvpn(self, lpa):
        return lpa // self.entries_per_tpage

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
        m = self.map
        last_tvpn = -1
        for i, (lpa, _) in enumerate(entries):
            ppa = first_ppa + i
            self._note_entry(lpa, m.get(lpa), ppa)
            m[lpa] = ppa
            tvpn = lpa // self.entries_per_tpage
            if tvpn != last_tvpn:
                last_tvpn = tvpn
                self._touch_tpage(tvpn, dirty=True)

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

    def _note_entry(self, lpa, old_ppa, new_ppa):
        pass


class Dftl(_TpageCachingFtl):
    name = "dftl"

    def mapping_bytes(self) -> int:
        return ENTRY_BYTES * len(self.map)


class Sftl(_TpageCachingFtl):
    name = "sftl"

    def __init__(self, device):
        self._joins = 0  # adjacent (lpa, lpa+1) pairs that extend one run
        super().__init__(device)

    def _pair_joined(self, lpa, ppa):
        """True when (lpa -> ppa) and (lpa+1) continue the same run.  Runs
        never span a translation page, mirroring per-page extent encoding."""
        if (lpa + 1) % self.entries_per_tpage == 0:
            return False
        return self.map.get(lpa + 1) == ppa + 1

    def _note_entry(self, lpa, old_ppa, new_ppa):
        m = self.map
        joins = 0
        left = None
        if lpa % self.entries_per_tpage:
            left = m.get(lpa - 1)
        if old_ppa is not None:
            if left is not None and left + 1 == old_ppa:
                joins -= 1
            if self._pair_joined(lpa, old_ppa):
                joins -= 1
        if left is not None and left + 1 == new_ppa:
            joins += 1
        if self._pair_joined(lpa, new_ppa):
            joins += 1
        self._joins += joins

    def _map_reset(self):
        super()._map_reset()
        self._joins = 0

    def mapping_bytes(self) -> int:
        # entries minus joins is exactly the number of extent runs
        return ENTRY_BYTES * (len(self.map) - self._joins)
