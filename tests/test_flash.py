"""Flash model tests: OOB reverse-mapping windows, misprediction
correction, validity bookkeeping, erase/recycle ordering, latencies."""

import pytest

from ftlsim.flash import (
    CapacityError,
    FlashDevice,
    Geometry,
    Latencies,
    ModelViolation,
)


def small_dev(gamma=4, channels=2, blocks=16, pages=8, oob=256):
    geo = Geometry(
        channels=channels,
        blocks_per_channel=blocks,
        pages_per_block=pages,
        page_size=4096,
        oob_size=oob,
    )
    return FlashDevice(geo, Latencies(), gamma)


def program(dev, lpas, payload_base=0):
    block = dev.allocate_block()
    entries = [(lpa, payload_base + i) for i, lpa in enumerate(lpas)]
    first, elapsed = dev.program_block(block, entries)
    return block, first, elapsed


class TestGeometry:
    def test_oob_must_hold_reverse_window(self):
        geo = Geometry(2, 4, 8, 4096, oob_size=4)
        with pytest.raises(ValueError):
            geo.validate(gamma=16)
        geo2 = Geometry(2, 4, 8, 4096, oob_size=256)
        geo2.validate(gamma=16)  # (2*16+1)*4 = 132 <= 256

    def test_page_counts(self):
        geo = Geometry(2, 4, 8, 4096, 256)
        assert geo.total_blocks == 8
        assert geo.total_pages == 64


class TestReadWrite:
    def test_read_returns_programmed_lpa(self):
        dev = small_dev()
        _, first, _ = program(dev, [10, 20, 30])
        lpa, payload, elapsed = dev.read_page(first + 1)
        assert lpa == 20 and payload == 1
        assert elapsed == dev.lat.read_us

    def test_program_charges_per_page_write_latency(self):
        dev = small_dev()
        _, _, elapsed = program(dev, [1, 2, 3])
        assert elapsed == 3 * dev.lat.write_us

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
        assert elapsed == dev.lat.erase_us
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
        assert dev.channel_busy_us[ch] == 2 * dev.lat.write_us
