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
from dataclasses import dataclass
from typing import Optional


class ModelViolation(Exception):
    """The FTL broke a physical rule (read of erased page, double program)."""


class CapacityError(Exception):
    """No free flash block available."""


@dataclass(frozen=True)
class Geometry:
    channels: int = 16
    blocks_per_channel: int = 131072
    pages_per_block: int = 256
    page_size: int = 4096
    oob_size: int = 128

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    def validate(self, gamma: int) -> None:
        for field in ("channels", "blocks_per_channel", "pages_per_block", "page_size"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        need = 4 * (2 * gamma + 1)
        if self.oob_size < need:
            raise ValueError(
                f"oob_size {self.oob_size} too small for gamma={gamma}: "
                f"need {need} bytes of reverse mappings"
            )


@dataclass(frozen=True)
class Latencies:
    read_us: float = 20.0
    write_us: float = 200.0
    erase_us: float = 1500.0


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
    def __init__(self, geometry: Geometry, latencies: Latencies, gamma: int):
        geometry.validate(gamma)
        self.geo = geometry
        self.lat = latencies
        self.gamma = gamma
        self.blocks: dict = {}
        self._fresh = [0] * geometry.channels  # next never-used block per channel
        self._recycled = [deque() for _ in range(geometry.channels)]  # FIFO
        self._rr = 0  # round-robin channel cursor
        self._free_count = geometry.total_blocks
        self.op_seq = 0  # global program sequence for recovery ordering
        self.flash_reads = 0
        self.flash_writes = 0
        self.flash_erases = 0
        self.channel_busy_us = [0.0] * geometry.channels

    # -- allocation ---------------------------------------------------------

    def free_fraction(self) -> float:
        return self._free_count / self.geo.total_blocks

    def _pop_free(self, channel: int) -> Optional[int]:
        rec = self._recycled[channel]
        if rec:
            return rec.popleft()
        if self._fresh[channel] < self.geo.blocks_per_channel:
            bid = channel * self.geo.blocks_per_channel + self._fresh[channel]
            self._fresh[channel] += 1
            return bid
        return None

    def allocate_block(self) -> int:
        """Round-robin over channels; FIFO-recycled before never-used."""
        for i in range(self.geo.channels):
            ch = (self._rr + i) % self.geo.channels
            bid = self._pop_free(ch)
            if bid is not None:
                self._rr = (ch + 1) % self.geo.channels
                self._free_count -= 1
                return bid
        raise CapacityError("no free flash blocks")

    def release_block(self, block_id: int) -> None:
        """Return an erased or never-programmed block to its channel's free
        list (FIFO: it is reused after the blocks already there)."""
        self._recycled[self.channel_of(block_id)].append(block_id)
        self._free_count += 1

    def allocate_worn_block(self) -> int:
        """Free block with the highest erase count (wear-leveling target)."""
        best = None
        for ch in range(self.geo.channels):
            for i, bid in enumerate(self._recycled[ch]):
                count = self.blocks[bid].erase_count
                if best is None or count > best[0]:
                    best = (count, ch, i, bid)
        if best is None:
            return self.allocate_block()
        _, ch, i, bid = best
        del self._recycled[ch][i]
        self._free_count -= 1
        return bid

    # -- page/block operations ----------------------------------------------

    def channel_of(self, block_id: int) -> int:
        return block_id // self.geo.blocks_per_channel

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
        if n == 0 or n > self.geo.pages_per_block:
            raise ModelViolation(f"bad batch size {n}")
        blk.lpas = [e[0] for e in entries]
        blk.payloads = [e[1] for e in entries]
        blk.valid = [True] * n
        blk.valid_count = n
        self.op_seq += 1
        blk.program_seq = self.op_seq
        self.flash_writes += n
        elapsed = n * self.lat.write_us
        self.channel_busy_us[self.channel_of(block_id)] += elapsed
        return block_id * self.geo.pages_per_block, elapsed

    def is_programmed(self, ppa: int) -> bool:
        blk = self.blocks.get(ppa // self.geo.pages_per_block)
        return blk is not None and (ppa % self.geo.pages_per_block) < len(blk.lpas)

    def read_page(self, ppa: int) -> tuple:
        """Return (lpa, payload, elapsed_us); stale pages are readable."""
        blk = self.blocks.get(ppa // self.geo.pages_per_block)
        off = ppa % self.geo.pages_per_block
        if blk is None or off >= len(blk.lpas):
            raise ModelViolation(f"read of unprogrammed page {ppa}")
        self.flash_reads += 1
        elapsed = self.lat.read_us
        self.channel_busy_us[self.channel_of(ppa // self.geo.pages_per_block)] += elapsed
        return blk.lpas[off], blk.payloads[off], elapsed

    def read_valid(self, block_id: int, elapsed_us: float = 0.0) -> tuple:
        """Read every valid page of a block, in page order.

        Returns ((lpa, payload) entries, elapsed_us plus one read time per
        page).  Each page is charged as read_page charges it, and the times
        are added one page at a time, so every float total matches a
        read_page loop over the same pages.
        """
        blk = self.blocks[block_id]
        read_us = self.lat.read_us
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
        bid = predicted_ppa // self.geo.pages_per_block
        blk = self.blocks.get(bid)
        if blk is None:
            return None
        off = predicted_ppa % self.geo.pages_per_block
        base = bid * self.geo.pages_per_block
        lpas = blk.lpas
        lo = max(0, off - self.gamma)
        hi = min(len(lpas) - 1, off + self.gamma)
        for o in range(lo, hi + 1):
            if lpas[o] == wanted_lpa:
                return base + o
        return None

    def invalidate_page(self, ppa: int) -> None:
        blk = self.blocks.get(ppa // self.geo.pages_per_block)
        if blk is None:
            return
        off = ppa % self.geo.pages_per_block
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
        elapsed = self.lat.erase_us
        self.channel_busy_us[self.channel_of(block_id)] += elapsed
        return elapsed

    def erase_spread(self) -> int:
        counts = [b.erase_count for b in self.blocks.values()]
        if not counts:
            return 0
        lo = min(counts)
        if len(self.blocks) < self.geo.total_blocks:
            lo = 0  # untouched blocks exist
        return max(counts) - lo

    def programmed_blocks(self):
        """(block_id, BlockState) for blocks currently holding data."""
        for bid, blk in self.blocks.items():
            if blk.lpas:
                yield bid, blk
