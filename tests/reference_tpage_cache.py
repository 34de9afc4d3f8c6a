"""The translation-page cache dftl and sftl kept before FtlBase's shared
translation cache, kept as the reference that cache is compared with
(tests/test_ftl.py).

Each class caches translation pages in an OrderedDict of its own, tvpn ->
dirty, least recently used first, capped at max(1, dram_bytes // page_size)
pages.  A touch of a cached page moves it to the end and ORs in its dirty
flag.  A touch of any other page loads it (one translation read) and then,
if the cache is over its cap, evicts the least recently used page, which is
charged a translation write only if dirty.  mapping_dram_bytes is page_size
per cached page, and a crash empties the cache.  Nothing here goes through
FtlBase's translation cache: _use_unit raises.
"""

from __future__ import annotations

from collections import OrderedDict

from ftlsim.baselines import Dftl, Sftl


class _OwnTpageCache:
    """Mixin over Dftl or Sftl: _touch_tpage runs the cache below."""

    last = None  # the instance built last, set on the concrete class

    def __init__(self, device):
        conf = device.conf
        self.own_tcache: OrderedDict = OrderedDict()  # tvpn -> dirty, LRU first
        self.own_tcache_cap = max(1, conf.dram_bytes // conf.page_size)
        self.own_touches = 0
        super().__init__(device)
        type(self).last = self

    def _touch_tpage(self, tvpn, dirty):
        self.own_touches += 1
        cache = self.own_tcache
        prev = cache.get(tvpn)
        if prev is None:
            # demand load from the translation region
            self.translation_reads += 1
            self.background_us += self.conf.read_us
            prev = False
        else:
            cache.move_to_end(tvpn)
        cache[tvpn] = prev or dirty
        if len(cache) > self.own_tcache_cap:
            _, was_dirty = cache.popitem(last=False)
            if was_dirty:
                self.translation_writes += 1
                self.background_us += self.conf.write_us

    def _use_unit(self, key, dirty):
        raise AssertionError("the reference keeps its own translation cache")

    def _map_reset(self):
        super()._map_reset()
        self.own_tcache = OrderedDict()

    def mapping_dram_bytes(self) -> int:
        return len(self.own_tcache) * self.conf.page_size


class ReferenceDftl(_OwnTpageCache, Dftl):
    pass


class ReferenceSftl(_OwnTpageCache, Sftl):
    pass
