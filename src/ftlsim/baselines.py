"""Baseline mapping schemes on top of the shared FTL engine.

Dftl keeps an exact page-level map partitioned into translation pages, with a
demand-loaded LRU cache of those pages in DRAM (dirty pages are written back
on eviction).  Sftl uses the same translation-page caching but compresses each
page's entries into extent runs (consecutive LPAs mapped to consecutive PPAs),
so its DRAM cost is 8 bytes per run instead of 8 bytes per entry.

Both update the map one programmed block at a time.  A block's entries are
sorted by LPA, so each translation page is touched once per run of entries
that share it, when the block is mapped and when a host flush invalidates
the entries' previous copies.  Neither keeps a snapshot, so a recovery
replays every programmed block and finds each previous copy in its own OOB
scan, with no map lookup.  Sftl keeps its run count in the same pass that
maps the block: each entry's old PPA is read once, and an outside
neighbour's PPA once at each edge of a run of consecutive LPAs.
"""

from __future__ import annotations

from collections import OrderedDict

from .config import ENTRY_BYTES
from .ftl import FtlBase


class _TpageCachingFtl(FtlBase):
    """Exact lpa->ppa map with translation pages demand-cached in DRAM."""

    def __init__(self, device):
        conf = device.conf
        self.map: dict = {}  # lpa -> ppa, authoritative
        self.entries_per_tpage = conf.page_size // ENTRY_BYTES
        self.tcache: OrderedDict = OrderedDict()  # tvpn -> dirty, LRU first
        super().__init__(device)
        self.tcache_cap = max(1, conf.dram_bytes // conf.page_size)

    def _touch_tpage(self, tvpn, dirty):
        cache = self.tcache
        prev = cache.get(tvpn)
        if prev is None:
            # demand load from the translation region
            self.translation_reads += 1
            self.background_us += self.conf.read_us
            prev = False
        else:
            cache.move_to_end(tvpn)
        cache[tvpn] = prev or dirty
        if len(cache) > self.tcache_cap:
            _, was_dirty = cache.popitem(last=False)
            if was_dirty:
                self.translation_writes += 1
                self.background_us += self.conf.write_us

    def _map_insert(self, entries, first_ppa):
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

    def _map_peek(self, lpa):
        ppa = self.map.get(lpa)
        return None if ppa is None else (ppa, True)

    def _map_reset(self):
        self.map = {}
        self.tcache = OrderedDict()

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

    def _map_insert(self, entries, first_ppa):
        """Map the block and keep _joins exact in the same pass.  Entries
        must be sorted by LPA, strictly increasing, as every caller programs
        them; they go to consecutive PPAs from first_ppa.  Only pairs with a
        member in the block can change.  A pair with both members in the
        block is joined after the update by construction, so only its old
        PPAs are compared.  At a run edge the outside neighbour, which the
        update leaves alone, is read once and compared with the old PPA and
        the new one.  An unmapped LPA reads as -2, which never differs by
        one from a PPA or from itself.  Runs never span a translation page,
        as in per-page extent encoding, so a pair across a page boundary is
        never counted.  Translation pages are touched as in
        _TpageCachingFtl._map_insert."""
        m = self.map
        get = m.get
        per = self.entries_per_tpage
        touch = self._touch_tpage
        joins = self._joins
        last_tvpn = -1
        prev = prev_old = -2  # the previous entry's LPA and old PPA
        for ppa, (lpa, _) in enumerate(entries, first_ppa):
            old = get(lpa, -2)
            m[lpa] = ppa
            tvpn = lpa // per
            if lpa - 1 == prev and tvpn == last_tvpn:
                if old - prev_old != 1:
                    joins += 1
            else:
                # prev + 1 and lpa - 1 are outside the block; prev went to
                # ppa - 1, so its pair joins after the update if nb == ppa
                if prev >= 0 and (prev + 1) % per:
                    nb = get(prev + 1, -2)
                    joins += (nb == ppa) - (nb - prev_old == 1)
                if lpa % per:
                    nb = get(lpa - 1, -2)
                    joins += (ppa - nb == 1) - (old - nb == 1)
                if tvpn != last_tvpn:
                    last_tvpn = tvpn
                    touch(tvpn, dirty=True)
            prev = lpa
            prev_old = old
        # the last entry's right neighbour, outside the block
        if prev >= 0 and (prev + 1) % per:
            nb = get(prev + 1, -2)
            joins += (nb - ppa == 1) - (nb - prev_old == 1)
        self._joins = joins

    def _map_reset(self):
        super()._map_reset()
        self._joins = 0

    def mapping_bytes(self) -> int:
        # entries minus joins is exactly the number of extent runs
        return ENTRY_BYTES * (len(self.map) - self._joins)
