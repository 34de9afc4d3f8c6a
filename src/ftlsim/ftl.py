"""Common FTL engine: write buffering, flush, GC, wear leveling, caching.

All mapping schemes share the same data path so that their flash placement
is identical on identical traces (which makes write amplification directly
comparable): host writes land in a DRAM buffer (last-writer-wins); when it
holds buffer_bytes worth of LPAs, rounded down to whole blocks, the whole
buffer is sorted by LPA and programmed in block-sized chunks, each into its
own flash block.  Subclasses implement the mapping structure behind a few
hooks: _map_insert, _map_lookup and _map_peek, _invalidate_old (how a host
flush finds and invalidates each LPA's previous copy, per programmed block),
_true_ppa resolution cost, and accounting (mapping_bytes, and
mapping_dram_bytes for what is resident).  A recovery replay needs no
hook: it finds each previous copy in its own OOB scan or, through the
snapshot mapping and _true_ppa, in a block the snapshot still describes.

Latency convention: a buffered write acks in zero time; flush, GC, wear
leveling and translation traffic accumulate in background_us.  A host read
pays for every flash read on its critical path.  peek resolves an LPA as a
read does but charges nothing and changes no state, so a check of the
device's contents (sim.run's final oracle scan) leaves every counter alone.
"""

from __future__ import annotations

from collections import OrderedDict

from .flash import FlashDevice, ModelViolation


class UnmappedRead(Exception):
    """Host read of an LPA that was never written."""


class FtlBase:
    """The shared data path; a subclass supplies the mapping hooks.

    Periodic work is counted in programmed pages.  compaction_interval
    counts every page a host flush, GC or wear levelling programs, so a
    relocation-heavy device compacts its mapping even when few host writes
    arrive; a recovery replay programs nothing and counts nothing.
    snapshot_interval counts host-flushed pages only.
    """

    name = "base"

    def __init__(self, device: FlashDevice):
        self.conf = conf = device.conf
        self.dev = device
        self.pages_per_block = conf.pages_per_block
        self.buffer: dict = {}  # lpa -> payload, insertion ordered
        self.buffer_pages = conf.buffer_pages
        self.cache: OrderedDict = OrderedDict()  # read cache, LRU first
        self.cache_cap = 0
        # counters
        self.host_writes = 0
        self.host_reads = 0
        self.buffer_hits = 0
        self.cache_hits = 0
        self.data_writes = 0  # host data pages programmed
        self.gc_writes = 0  # pages moved by GC / wear leveling
        self.translation_reads = 0
        self.translation_writes = 0
        self.mispredictions = 0
        self.gc_invocations = 0
        self.wear_swaps = 0
        self.compactions = 0
        self.snapshots_taken = 0
        self.blocks_relearned = 0
        self.recovery_reads = 0
        self.background_us = 0.0
        self.lookup_levels: dict = {}
        self.mapping_bytes_peak = 0
        self._writes_since_compact = 0
        self._writes_since_snapshot = 0
        self._update_cache_cap()

    # -- mapping hooks (subclass responsibility) ---------------------------

    def _map_insert(self, entries, first_ppa):
        raise NotImplementedError

    def _map_lookup(self, lpa):
        """Return (ppa, exact, levels_probed) or None; charge any
        translation traffic to background_us."""
        raise NotImplementedError

    def _map_peek(self, lpa):
        """Return (ppa, exact) or None as _map_lookup would, but charge
        nothing and leave every cache and recency order as it is."""
        raise NotImplementedError

    def mapping_bytes(self) -> int:
        raise NotImplementedError

    def mapping_dram_bytes(self) -> int:
        raise NotImplementedError

    def _map_compact(self):
        pass

    def compact_mapping(self):
        """Consolidate the mapping table now, as the periodic compaction
        does."""
        self._map_compact()

    def _map_reset(self):
        raise NotImplementedError

    # -- host interface -----------------------------------------------------

    def write(self, lpa: int, payload) -> tuple:
        """Buffer one page write.  Returns (latency_us, flushed_entries);
        flushed_entries is the batch persisted by this call, if any."""
        self.host_writes += 1
        self.buffer[lpa] = payload
        if self.cache:
            self.cache.pop(lpa, None)
        flushed = None
        if len(self.buffer) >= self.buffer_pages:
            flushed = self.flush_block()
        return 0.0, flushed

    def read(self, lpa: int) -> tuple:
        """Return (payload, latency_us).  Raises UnmappedRead for LPAs never
        written (the simulator treats those as misses, not errors)."""
        self.host_reads += 1
        buf = self.buffer
        if lpa in buf:
            self.buffer_hits += 1
            return buf[lpa], 0.0
        cache = self.cache
        hit = cache.get(lpa)
        if hit is not None:
            self.cache_hits += 1
            cache.move_to_end(lpa)
            return hit, 0.0
        res = self._map_lookup(lpa)
        if res is None:
            raise UnmappedRead(lpa)
        ppa, exact, levels = res
        self.lookup_levels[levels] = self.lookup_levels.get(levels, 0) + 1
        got_lpa, payload, elapsed = self.dev.read_page(ppa)
        if got_lpa != lpa:
            true_ppa = self._correct(lpa, ppa, exact, got_lpa)
            self.mispredictions += 1
            _, payload, el2 = self.dev.read_page(true_ppa)
            elapsed += el2
        if self.cache_cap:
            cache[lpa] = payload
            if len(cache) > self.cache_cap:
                cache.popitem(last=False)
        return payload, elapsed

    def peek(self, lpa: int):
        """Return lpa's payload as read would, from the write buffer or else
        from flash, charging nothing and changing no state.  The read cache
        is skipped, so a buffered LPA aside, the answer is the flash copy
        the mapping resolves to.  Raises UnmappedRead and ModelViolation as
        read does."""
        buf = self.buffer
        if lpa in buf:
            return buf[lpa]
        res = self._map_peek(lpa)
        if res is None:
            raise UnmappedRead(lpa)
        ppa, exact = res
        peek_page = self.dev.peek_page
        got_lpa, payload = peek_page(ppa)
        if got_lpa != lpa:
            _, payload = peek_page(self._correct(lpa, ppa, exact, got_lpa))
        return payload

    def _correct(self, lpa, ppa, exact, got_lpa):
        """The true PPA of lpa, whose mapping gave ppa, a page holding
        got_lpa: found in ppa's OOB window, at no charge.  An exact mapping
        that misses, or an LPA outside the window, is a ModelViolation."""
        if exact:
            raise ModelViolation(
                f"exact mapping for lpa {lpa} pointed at lpa {got_lpa}"
            )
        true_ppa = self.dev.correct_misprediction(ppa, lpa)
        if true_ppa is None:
            raise ModelViolation(f"lpa {lpa} not within gamma of prediction {ppa}")
        return true_ppa

    # -- flush / placement ---------------------------------------------------

    def flush_block(self, force: bool = False):
        """Sort the buffered writes by LPA and program them in block-sized
        chunks, each into its own block.  write flushes as soon as the buffer
        holds buffer_pages, so the buffer never holds more; force=True
        drains a partly filled buffer, whose last chunk is a partial block."""
        buf = self.buffer
        n = len(buf)
        if n == 0 or (n < self.buffer_pages and not force):
            return None
        entries = sorted(buf.items())
        buf.clear()
        per = self.pages_per_block
        for i in range(0, n, per):
            self._program_batch(entries[i : i + per])
        self.data_writes += n
        self._writes_since_compact += n
        if self._writes_since_compact >= self.conf.compaction_interval:
            self._writes_since_compact = 0
            self.compactions += 1
            self._map_compact()
        self._writes_since_snapshot += n
        if self._writes_since_snapshot >= self.conf.snapshot_interval:
            self._writes_since_snapshot = 0
            self.snapshot()
        if self.conf.wear_threshold:
            self.wear_level()
        bytes_now = self.mapping_bytes()
        if bytes_now > self.mapping_bytes_peak:
            self.mapping_bytes_peak = bytes_now
        self._update_cache_cap()
        return entries

    def _program_batch(self, entries, dest=None):
        """Program sorted (lpa, payload) entries into one block and update
        mapping + validity.

        A host flush passes no dest: it may run GC first, takes a fresh
        block and invalidates each LPA's previous copy.  A relocation (GC,
        wear leveling) programs into the dest block its caller chose; the
        previous copies are in the block being emptied.
        """
        dev = self.dev
        relocation = dest is not None
        if not relocation:
            if dev.free_fraction() < self.conf.gc_low:
                self.run_gc()
            dest = dev.allocate_block()
        first_ppa, elapsed = dev.program_block(dest, entries)
        self.background_us += elapsed
        if relocation:
            self.gc_writes += len(entries)
            self._writes_since_compact += len(entries)
        else:
            self._invalidate_old(entries)
        self._map_insert(entries, first_ppa)

    def _invalidate_old(self, entries):
        """Invalidate the previous copy of each LPA of a host flush."""
        dev = self.dev
        for lpa, _ in entries:
            res = self._map_lookup(lpa)
            if res is not None:
                dev.invalidate_page(self._true_ppa(lpa, res[0], res[1]))

    def _true_ppa(self, lpa, ppa, exact):
        """Resolve the physical page of lpa that its mapping, which gave ppa,
        describes, paying for any flash reads that resolution needs (OOB
        correction for learned mappings).  A mapped LPA the OOB window
        cannot find is a ModelViolation, as on the read path: its old copy
        would stay valid."""
        if exact:
            return ppa
        got_lpa, _, elapsed = self.dev.read_page(ppa)
        self.background_us += elapsed
        if got_lpa == lpa:
            return ppa
        return self._correct(lpa, ppa, False, got_lpa)

    def _update_cache_cap(self):
        budget = self.conf.dram_bytes - self.mapping_dram_bytes()
        if budget < 0:
            budget = 0
        self.cache_cap = budget // self.conf.page_size
        cache = self.cache
        while len(cache) > self.cache_cap:
            cache.popitem(last=False)

    # -- garbage collection ---------------------------------------------------

    def run_gc(self, force: bool = False):
        """Collect until the free fraction reaches gc_high.  force=True
        collects at least one victim regardless of the watermark.

        A relocation invalidates nothing, so a block this pass fills holds
        pages_per_block valid pages until the pass ends, and _pick_victim,
        which skips full blocks, never picks it."""
        dev = self.dev
        if not force and dev.free_fraction() >= self.conf.gc_low:
            return
        self.gc_invocations += 1
        pages = self.pages_per_block
        staging = []  # survivors packed across victims into full blocks
        while True:
            victim = self._pick_victim()
            if victim is None:
                break
            live, self.background_us = dev.read_valid(victim, self.background_us)
            staging.extend(live)
            self.background_us += dev.erase_block(victim)
            while len(staging) >= pages:
                batch = sorted(staging[:pages])
                del staging[:pages]
                self._program_batch(batch, dev.allocate_block())
            if dev.free_fraction() >= self.conf.gc_high:
                break
        if staging:
            staging.sort()
            self._program_batch(staging, dev.allocate_block())
        if self.conf.snapshot_on_gc:
            self.snapshot()

    def _pick_victim(self):
        best = None
        pages = self.pages_per_block
        for bid, blk in self.dev.programmed_blocks():
            vc = blk.valid_count
            if vc < pages and (best is None or vc < best[0]):
                best = (vc, bid)
                if vc == 0:
                    break
        return best[1] if best else None

    def wear_level(self):
        """Swap the coldest data into the most-worn free block when the
        erase-count spread exceeds the configured threshold.  Every block
        is programmed sorted by LPA and read_valid keeps page order, so the
        cold block's live pages move as they are."""
        threshold = self.conf.wear_threshold
        if not threshold:
            return None
        dev = self.dev
        if dev.erase_spread() <= threshold:
            return None
        counts = [(blk.erase_count, bid) for bid, blk in dev.programmed_blocks()]
        if not counts:
            return None
        cold_count, cold = min(counts)
        dest = dev.allocate_worn_block()
        if dest is None:
            return None
        if dev.erase_count(dest) <= cold_count:
            # nothing meaningfully hotter available; put it back
            dev.release_block(dest)
            return None
        entries, self.background_us = dev.read_valid(cold, self.background_us)
        if entries:
            self._program_batch(entries, dest)
        else:
            dev.release_block(dest)
        self.background_us += dev.erase_block(cold)
        self.wear_swaps += 1
        return cold, dest

    # -- crash / recovery ------------------------------------------------------

    def snapshot(self):
        pass

    def crash(self):
        """Power loss: all DRAM state (buffer, cache, mapping, validity) is
        gone.  Flash content survives."""
        self.buffer.clear()
        self.cache.clear()
        self._map_reset()
        for blk in self.dev.blocks.values():
            if blk.valid_count:
                blk.valid = [False] * len(blk.valid)
                blk.valid_count = 0

    def _restore_snapshot(self) -> dict:
        """Reload the mapping from the last snapshot, if the scheme keeps one.
        Returns the snapshot's block validity, block_id -> (program_seq,
        valid list); a scheme without snapshots restores nothing."""
        return {}

    def recover(self):
        """Restore the last snapshot, then rebuild mapping and validity of
        every block programmed since (or never snapshotted) by replaying
        flash in program order.  recovery_reads counts the device reads
        made here: the replay's OOB scan and any old-copy resolution."""
        reads_before = self.dev.flash_reads
        validity = self._restore_snapshot()
        kept = set()  # blocks the snapshot still describes
        replay = []
        for bid, blk in self.dev.programmed_blocks():
            stored = validity.get(bid)
            if stored is not None and stored[0] == blk.program_seq:
                blk.valid = stored[1][:]
                blk.valid_count = sum(stored[1])
                kept.add(bid)
            else:
                replay.append((blk.program_seq, bid, blk))
        replay.sort()
        replayed = {}  # lpa -> ppa of its newest copy replayed so far
        for _, bid, blk in replay:
            self._replay_block(bid, blk, replayed, kept)
        self.recovery_reads += self.dev.flash_reads - reads_before
        self._update_cache_cap()

    def _replay_block(self, bid, blk, replayed, kept):
        """Re-apply one programmed block's mapping updates during recovery,
        reading each page's OOB reverse mapping.  An LPA's previous copy is
        in a block replayed earlier, or, if the mapping points into a kept
        block, where _true_ppa resolves it; a mapping into any other block
        points at a copy erased since, and nothing is invalidated."""
        dev = self.dev
        read_page = dev.read_page
        per = self.pages_per_block
        base = bid * per
        entries = []
        for ppa in range(base, base + len(blk.lpas)):
            lpa, payload, elapsed = read_page(ppa)
            self.background_us += elapsed
            old = replayed.get(lpa)
            if old is None and kept:
                res = self._map_lookup(lpa)
                if res is not None and res[0] // per in kept:
                    old = self._true_ppa(lpa, res[0], res[1])
            if old is not None:
                dev.invalidate_page(old)
            replayed[lpa] = ppa
            entries.append((lpa, payload))
        n = len(entries)
        blk.valid = [True] * n
        blk.valid_count = n
        self._map_insert(entries, base)
        self.blocks_relearned += 1

    # -- metrics ----------------------------------------------------------------

    def counters(self) -> dict:
        flash_writes = self.data_writes + self.gc_writes
        waf = flash_writes / self.data_writes if self.data_writes else 0.0
        total_lookups = sum(self.lookup_levels.values())
        return {
            "ftl": self.name,
            "host_writes": self.host_writes,
            "host_reads": self.host_reads,
            "buffer_hits": self.buffer_hits,
            "cache_hits": self.cache_hits,
            "data_writes": self.data_writes,
            "gc_writes": self.gc_writes,
            "flash_reads": self.dev.flash_reads,
            "flash_writes": flash_writes,
            "flash_erases": self.dev.flash_erases,
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
            "waf": waf,
            "mispredictions": self.mispredictions,
            "extra_reads": self.mispredictions,
            "misprediction_ratio": (
                self.mispredictions / self.host_reads if self.host_reads else 0.0
            ),
            "cache_hit_ratio": (
                (self.buffer_hits + self.cache_hits) / self.host_reads
                if self.host_reads
                else 0.0
            ),
            "lookups": total_lookups,
            "gc_invocations": self.gc_invocations,
            "wear_swaps": self.wear_swaps,
            "compactions": self.compactions,
            "snapshots": self.snapshots_taken,
            "blocks_relearned": self.blocks_relearned,
            "recovery_reads": self.recovery_reads,
            "erase_spread": self.dev.erase_spread(),
            "lookup_levels": {str(k): v for k, v in sorted(self.lookup_levels.items())},
            "mapping_bytes": self.mapping_bytes(),
            "mapping_dram_bytes": self.mapping_dram_bytes(),
            "mapping_bytes_peak": max(self.mapping_bytes_peak, self.mapping_bytes()),
            "background_us": round(self.background_us, 3),
        }
