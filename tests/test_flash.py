"""Flash model tests: OOB reverse-mapping windows, misprediction
correction, validity bookkeeping, erase/recycle ordering, latencies."""

import pytest

from ftlsim.config import Config
from ftlsim.flash import CapacityError, FlashDevice, ModelViolation


def small_dev(gamma=4, channels=2, blocks=16, pages=8, oob=256, **kw):
    conf = Config(
        channels=channels,
        blocks_per_channel=blocks,
        pages_per_block=pages,
        page_size=4096,
        oob_size=oob,
        gamma=gamma,
        **kw,
    )
    return FlashDevice(conf)


def program(dev, lpas, payload_base=0):
    block = dev.allocate_block()
    entries = [(lpa, payload_base + i) for i, lpa in enumerate(lpas)]
    first, elapsed = dev.program_block(block, entries)
    return block, first, elapsed


class TestReadWrite:
    def test_read_returns_programmed_lpa(self):
        dev = small_dev()
        _, first, _ = program(dev, [10, 20, 30])
        lpa, payload, elapsed = dev.read_page(first + 1)
        assert lpa == 20 and payload == 1
        assert elapsed == dev.conf.read_us

    def test_program_charges_per_page_write_latency(self):
        dev = small_dev()
        _, _, elapsed = program(dev, [1, 2, 3])
        assert elapsed == 3 * dev.conf.write_us

    def test_reading_erased_page_violates_model(self):
        dev = small_dev()
        with pytest.raises(ModelViolation):
            dev.read_page(0)

    def test_stale_page_still_readable(self):
        dev = small_dev()
        _, first, _ = program(dev, [5])
        dev.invalidate_page(first)
        lpa, _, _ = dev.read_page(first)
        assert lpa == 5


class TestOob:
    def test_correct_misprediction_within_gamma(self):
        dev = small_dev(gamma=4)
        _, first, _ = program(dev, [10, 20, 30, 40, 50, 60])
        # predicted slot 1, true slot 4: off by 3 <= gamma
        assert dev.correct_misprediction(first + 1, 50) == first + 4

    def test_correct_misprediction_outside_gamma_fails(self):
        dev = small_dev(gamma=1)
        _, first, _ = program(dev, [10, 20, 30, 40, 50, 60])
        assert dev.correct_misprediction(first, 60) is None

    def test_correction_clamped_to_block(self):
        dev = small_dev(gamma=4)
        _, first, _ = program(dev, [10, 20])
        assert dev.correct_misprediction(first, 20) == first + 1
        assert dev.correct_misprediction(first + 1, 99) is None


class TestValidity:
    def test_program_marks_valid(self):
        dev = small_dev()
        block, first, _ = program(dev, [1, 2, 3])
        assert dev.blocks[block].valid_count == 3
        dev.invalidate_page(first)
        assert dev.blocks[block].valid_count == 2
        assert dev.blocks[block].valid == [False, True, True]

    def test_erase_resets_block(self):
        dev = small_dev()
        block, first, _ = program(dev, [1, 2, 3])
        elapsed = dev.erase_block(block)
        assert elapsed == dev.conf.erase_us
        assert dev.blocks[block].erase_count == 1
        assert dev.blocks[block].valid_count == 0
        with pytest.raises(ModelViolation):
            dev.read_page(first)


class TestAllocation:
    def test_round_robin_channels(self):
        dev = small_dev(channels=4)
        chans = [dev.channel_of(dev.allocate_block()) for _ in range(8)]
        assert chans == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_recycled_before_fresh(self):
        dev = small_dev(channels=1, blocks=4)
        b0 = dev.allocate_block()
        program_into(dev, b0)
        dev.erase_block(b0)
        order = [dev.allocate_block() for _ in range(4)]
        assert order[0] == b0  # recycled block reused first

    def test_released_block_is_free_again(self):
        dev = small_dev(channels=1, blocks=4)
        b = dev.allocate_block()
        dev.release_block(b)
        assert dev.free_fraction() == 1.0
        assert dev.allocate_block() == b  # recycled before never-used

    def test_capacity_exhaustion(self):
        dev = small_dev(channels=1, blocks=2)
        dev.allocate_block()
        dev.allocate_block()
        with pytest.raises(CapacityError):
            dev.allocate_block()

    def test_free_fraction(self):
        dev = small_dev(channels=1, blocks=4)
        assert dev.free_fraction() == 1.0
        dev.allocate_block()
        assert dev.free_fraction() == 0.75

    def test_worn_block_comes_only_from_recycled_blocks(self):
        dev = small_dev(channels=2, blocks=4)
        assert dev.allocate_worn_block() is None
        assert dev.free_fraction() == 1.0
        a, b = dev.allocate_block(), dev.allocate_block()
        for block in (a, b):
            program_into(dev, block)
            dev.erase_block(block)
        assert dev.allocate_block() == a  # recycled before fresh
        program_into(dev, a)
        dev.erase_block(a)
        assert dev.allocate_worn_block() == a  # two erases against one
        assert dev.allocate_worn_block() == b
        assert dev.allocate_worn_block() is None

    def test_erase_spread(self):
        dev = small_dev(channels=1, blocks=4)
        b = dev.allocate_block()
        program_into(dev, b)
        dev.erase_block(b)
        assert dev.erase_spread() == 1


def program_into(dev, block):
    dev.program_block(block, [(0, 0)])


class TestChannelAccounting:
    def test_busy_time_accumulates_per_channel(self):
        dev = small_dev(channels=2)
        b = dev.allocate_block()
        dev.program_block(b, [(1, 1), (2, 2)])
        ch = dev.channel_of(b)
        assert dev.channel_busy_us[ch] == 2 * dev.conf.write_us


class TestReadValid:
    def test_matches_read_page_loop(self):
        # 25.3 is not a binary fraction, so every float total depends on
        # the order in which the page reads are added
        def dev_with_holes():
            dev = small_dev(blocks=4, read_us=25.3)
            dev.channel_busy_us = [0.7, 0.7]
            block, first, _ = program(dev, [3, 5, 8, 13, 21, 34, 55, 89])
            for off in (0, 2, 3, 6):
                dev.invalidate_page(first + off)
            return dev, block

        dev, block = dev_with_holes()
        entries, elapsed = dev.read_valid(block, 0.1)
        ref, ref_block = dev_with_holes()
        ref_entries = []
        ref_elapsed = 0.1
        base = ref_block * ref.conf.pages_per_block
        for off, ok in enumerate(ref.blocks[ref_block].valid):
            if ok:
                lpa, payload, el = ref.read_page(base + off)
                ref_entries.append((lpa, payload))
                ref_elapsed += el
        assert entries == ref_entries == [(5, 1), (21, 4), (34, 5), (89, 7)]
        assert elapsed == ref_elapsed
        assert dev.flash_reads == ref.flash_reads == 4
        assert dev.channel_busy_us == ref.channel_busy_us

    def test_block_without_valid_pages(self):
        dev = small_dev()
        block, first, _ = program(dev, [1, 2])
        dev.invalidate_page(first)
        dev.invalidate_page(first + 1)
        assert dev.read_valid(block) == ([], 0.0)
        assert dev.flash_reads == 0
