"""Flash device model: geometry, latency accounting, OOB reverse mappings.

PPAs are dense: ppa = block_id * pages_per_block + page_offset, and
block_id // blocks_per_channel is the owning channel.  A block is programmed
in one shot per erase cycle (the FTL flushes block-sized batches), so the
out-of-band area of every page can reverse-map the page itself and its
±gamma neighbors from the same batch; slots that would point outside the
block are null.  That window is what makes a γ-bounded misprediction
correctable with at most one extra page read.

Page payloads are opaque ids, not bytes; the simulator uses them to audit
translation correctness.  Block validity state (BVC/PVT) lives here for
convenience but is logically FTL DRAM state: recovery code rebuilds it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .config import Config


class ModelViolation(Exception):
    """The FTL broke a physical rule (read of erased page, double program)."""


class CapacityError(Exception):
    """No free flash block available."""


class BlockState:
    __slots__ = (
        "lpas",
        "payloads",
        "valid",
        "valid_count",
        "erase_count",
        "program_seq",
    )

    def __init__(self):
        self.lpas: list = []
        self.payloads: list = []
        self.valid: list = []
        self.valid_count = 0
        self.erase_count = 0
        self.program_seq = -1


class FlashDevice:
    def __init__(self, conf: Config):
        self.conf = conf.validate()  # geometry, latencies and gamma
        self.blocks: dict = {}
        self._fresh = [0] * conf.channels  # next never-used block per channel
        self._recycled = [deque() for _ in range(conf.channels)]  # FIFO
        self._rr = 0  # round-robin channel cursor
        self._free_count = conf.total_blocks
        self.op_seq = 0  # global program sequence for recovery ordering
        self.flash_reads = 0
        self.flash_writes = 0
        self.flash_erases = 0
        self.channel_busy_us = [0.0] * conf.channels

    # -- allocation ---------------------------------------------------------

    def free_fraction(self) -> float:
        return self._free_count / self.conf.total_blocks

    def _pop_free(self, channel: int) -> Optional[int]:
        rec = self._recycled[channel]
        if rec:
            return rec.popleft()
        if self._fresh[channel] < self.conf.blocks_per_channel:
            bid = channel * self.conf.blocks_per_channel + self._fresh[channel]
            self._fresh[channel] += 1
            return bid
        return None

    def allocate_block(self) -> int:
        """Round-robin over channels; FIFO-recycled before never-used."""
        for i in range(self.conf.channels):
            ch = (self._rr + i) % self.conf.channels
            bid = self._pop_free(ch)
            if bid is not None:
                self._rr = (ch + 1) % self.conf.channels
                self._free_count -= 1
                return bid
        raise CapacityError("no free flash blocks")

    def release_block(self, block_id: int) -> None:
        """Return an erased or never-programmed block to its channel's free
        list (FIFO: it is reused after the blocks already there)."""
        self._recycled[self.channel_of(block_id)].append(block_id)
        self._free_count += 1

    def allocate_worn_block(self) -> Optional[int]:
        """Recycled free block with the highest erase count (wear-leveling
        target), or None when no erased block is free."""
        best = None
        for ch in range(self.conf.channels):
            for i, bid in enumerate(self._recycled[ch]):
                count = self.blocks[bid].erase_count
                if best is None or count > best[0]:
                    best = (count, ch, i, bid)
        if best is None:
            return None
        _, ch, i, bid = best
        del self._recycled[ch][i]
        self._free_count -= 1
        return bid

    # -- page/block operations ----------------------------------------------

    def channel_of(self, block_id: int) -> int:
        return block_id // self.conf.blocks_per_channel

    def program_block(self, block_id: int, entries) -> tuple:
        """Program a batch of (lpa, payload) pairs into an erased block.

        Returns (first_ppa, elapsed_us).  Pages are laid out in batch order;
        the caller sorts by LPA beforehand.
        """
        blk = self.blocks.get(block_id)
        if blk is None:
            blk = self.blocks[block_id] = BlockState()
        if blk.lpas:
            raise ModelViolation(f"block {block_id} already programmed this cycle")
        n = len(entries)
        if n == 0 or n > self.conf.pages_per_block:
            raise ModelViolation(f"bad batch size {n}")
        blk.lpas = [e[0] for e in entries]
        blk.payloads = [e[1] for e in entries]
        blk.valid = [True] * n
        blk.valid_count = n
        self.op_seq += 1
        blk.program_seq = self.op_seq
        self.flash_writes += n
        elapsed = n * self.conf.write_us
        self.channel_busy_us[self.channel_of(block_id)] += elapsed
        return block_id * self.conf.pages_per_block, elapsed

    def is_programmed(self, ppa: int) -> bool:
        blk = self.blocks.get(ppa // self.conf.pages_per_block)
        return blk is not None and (ppa % self.conf.pages_per_block) < len(blk.lpas)

    def read_page(self, ppa: int) -> tuple:
        """Return (lpa, payload, elapsed_us); stale pages are readable."""
        pages = self.conf.pages_per_block
        bid = ppa // pages
        blk = self.blocks.get(bid)
        off = ppa % pages
        if blk is None or off >= len(blk.lpas):
            raise ModelViolation(f"read of unprogrammed page {ppa}")
        self.flash_reads += 1
        elapsed = self.conf.read_us
        self.channel_busy_us[self.channel_of(bid)] += elapsed
        return blk.lpas[off], blk.payloads[off], elapsed

    def read_valid(self, block_id: int, elapsed_us: float = 0.0) -> tuple:
        """Read every valid page of a block, in page order.

        Returns ((lpa, payload) entries, elapsed_us plus one read time per
        page).  Each page is charged as read_page charges it, and the times
        are added one page at a time, so every float total matches a
        read_page loop over the same pages.
        """
        blk = self.blocks[block_id]
        read_us = self.conf.read_us
        entries = [
            (lpa, payload)
            for lpa, payload, ok in zip(blk.lpas, blk.payloads, blk.valid)
            if ok
        ]
        busy = self.channel_busy_us
        ch = self.channel_of(block_id)
        for _ in entries:
            busy[ch] += read_us
            elapsed_us += read_us
        self.flash_reads += len(entries)
        return entries, elapsed_us

    def correct_misprediction(self, predicted_ppa: int, wanted_lpa: int) -> Optional[int]:
        """Locate wanted_lpa in the OOB window of predicted_ppa.

        The caller has already read (and paid for) predicted_ppa; scanning
        its OOB costs nothing more, so the total overhead of a misprediction
        is the single extra read of the returned PPA.
        """
        bid = predicted_ppa // self.conf.pages_per_block
        blk = self.blocks.get(bid)
        if blk is None:
            return None
        off = predicted_ppa % self.conf.pages_per_block
        base = bid * self.conf.pages_per_block
        lpas = blk.lpas
        lo = max(0, off - self.conf.gamma)
        hi = min(len(lpas) - 1, off + self.conf.gamma)
        for o in range(lo, hi + 1):
            if lpas[o] == wanted_lpa:
                return base + o
        return None

    def invalidate_page(self, ppa: int) -> None:
        blk = self.blocks.get(ppa // self.conf.pages_per_block)
        if blk is None:
            return
        off = ppa % self.conf.pages_per_block
        if off < len(blk.valid) and blk.valid[off]:
            blk.valid[off] = False
            blk.valid_count -= 1

    def erase_block(self, block_id: int) -> float:
        blk = self.blocks.get(block_id)
        if blk is None or not blk.lpas:
            raise ModelViolation(f"erase of unprogrammed block {block_id}")
        blk.lpas = []
        blk.payloads = []
        blk.valid = []
        blk.valid_count = 0
        blk.erase_count += 1
        self.flash_erases += 1
        self.release_block(block_id)
        elapsed = self.conf.erase_us
        self.channel_busy_us[self.channel_of(block_id)] += elapsed
        return elapsed

    def erase_spread(self) -> int:
        counts = [b.erase_count for b in self.blocks.values()]
        if not counts:
            return 0
        lo = min(counts)
        if len(self.blocks) < self.conf.total_blocks:
            lo = 0  # untouched blocks exist
        return max(counts) - lo

    def programmed_blocks(self):
        """(block_id, BlockState) for blocks currently holding data."""
        for bid, blk in self.blocks.items():
            if blk.lpas:
                yield bid, blk
