"""Learner tests: fitting examples, quantization, the error-bound property
under randomized blocks, and field-for-field equality with the per-point
learner it replaced (reference_plr.py)."""

import math
import random
import struct
from operator import sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlsim.plr import (
    GROUP_SIZE,
    _exact_runs,
    _f32,
    _f32_floor,
    _fit_run,
    _fits,
    _stretch_ends,
    _windows,
    decode_slope,
    learn_segments,
    members,
    quantize_slope,
)
from reference_plr import learn_segments as reference_learn_segments


def encoded_members(seg):
    """Group offsets the segment's stored encoding claims, as lookups read
    it: the CRB run of an approximate segment, else every stride-th offset."""
    if not seg.accurate:
        return members(seg.bm)
    return range(seg.start, seg.end + 1, seg.step)


def check_segments(pairs, lpas, first, gamma):
    """Every encoded member predicted within gamma of its PPA, lpas[i] at
    first + i; accurate segments exact; encoded members partition the
    input in order."""
    truth = dict(zip(lpas, range(first, first + len(lpas))))
    covered = []
    for gid, seg in pairs:
        assert 0.0 <= seg.slope <= 1.0
        assert 0 <= seg.start <= seg.end < GROUP_SIZE
        for off in encoded_members(seg):
            lpa = gid * GROUP_SIZE + off
            covered.append(lpa)
            err = seg.predict(off) - truth[lpa]
            assert abs(err) <= gamma, (gid, seg, lpa, err)
            if seg.accurate:
                assert err == 0, (gid, seg, lpa, err)
    assert covered == list(lpas)


def fields(pairs):
    return [
        (gid, s.start, s.length, s.slope_bits, s.slope, s.intercept, s.bm)
        for gid, s in pairs
    ]


class TestExamples:
    def test_sequential_exact_fit(self):
        segs = learn_segments([0, 1, 2, 3], 32, 0)
        assert len(segs) == 1
        gid, seg = segs[0]
        assert gid == 0
        assert seg.accurate
        assert seg.length == 3
        assert seg.predict(2) == 34

    def test_single_point(self):
        ((gid, seg),) = learn_segments([7], 1000, 0)
        assert gid == 0 and seg.start == 7 and seg.accurate and seg.bm == 1 << 7
        assert seg.length == 0
        assert seg.slope == 0.0
        assert seg.intercept == pytest.approx(1000, abs=1)
        assert seg.predict(7) == 1000

    def test_sparse_batch_one_approximate_segment(self):
        lpas = [0, 2, 3, 6, 9, 10]
        segs = learn_segments(lpas, 64, 4)
        assert len(segs) == 1
        assert not segs[0][1].accurate
        check_segments(segs, lpas, 64, 4)

    def test_no_unit_slope_line_fits_distant_points(self):
        # slope to reach (200, 102) from (0, 100) is 0.01 but then (5, 101)
        # misses at gamma=0; any exact fit needs at least two pieces
        lpas = [0, 5, 200]
        segs = learn_segments(lpas, 100, 0)
        assert len(segs) >= 2
        check_segments(segs, lpas, 100, 0)

    def test_empty_input(self):
        assert learn_segments([], 7, 3) == []

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            learn_segments([5, 4], 1, 0)
        with pytest.raises(ValueError):
            learn_segments([5, 5], 1, 0)

    def test_group_boundary_split(self):
        lpas = list(range(250, 260))
        segs = learn_segments(lpas, 350, 0)
        assert len(segs) == 2
        assert [gid for gid, _ in segs] == [0, 1]
        check_segments(segs, lpas, 350, 0)

    def test_long_accurate_run(self):
        lpas = list(range(256))
        segs = learn_segments(lpas, 500, 0)
        ((_, seg),) = segs
        assert seg.accurate and seg.length == 255
        check_segments(segs, lpas, 500, 0)

    def test_run_fit_survives_binary32_intercept_rounding(self):
        # the nearest binary32 intercept lies above the exact one and would
        # push the last member one page past its PPA
        seg = _fit_run([0, 33], 1000, 0, 0, 2)
        assert seg is not None and seg.accurate
        assert [seg.predict(x) for x in (0, 33)] == [1000, 1001]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.floats(-(2.0**24), 2.0**25),
        st.floats(-1e-30, 1e-30),
        st.sampled_from([0.0, -0.0, 1e-46, -1e-46]),
    )
)
def test_f32_floor_matches_numpy_nextafter(value):
    """_f32_floor is the largest binary32 not above value: numpy's nearest
    float32, stepped once toward -inf when it rounded up."""
    want = np.float32(value)
    if float(want) > value:  # compared in binary64, not in float32
        want = np.nextafter(want, np.float32(-np.inf))
    got = _f32_floor(value)
    assert got == float(want) and math.copysign(1, got) == math.copysign(1, want)


class TestQuantizeSlope:
    def test_flag_bit(self):
        assert quantize_slope(1.0, True) & 1 == 0
        assert quantize_slope(0.56, False) & 1 == 1

    def test_accurate_unit_slope_survives(self):
        bits = quantize_slope(1.0, True)
        k = decode_slope(bits)
        for x in range(256):
            assert math.ceil(k * x) == x

    def test_exact_half(self):
        bits = quantize_slope(0.5, True)
        assert bits & 1 == 0
        assert decode_slope(bits) == 0.5

    def test_relative_error_bound(self):
        rng = random.Random(9)
        for _ in range(2000):
            s = rng.uniform(1e-3, 1.0)
            for flag in (True, False):
                k = decode_slope(quantize_slope(s, flag))
                assert abs(k - s) / s < 2**-8

    def test_roundtrip_through_struct(self):
        bits = quantize_slope(0.37, False)
        assert struct.pack("<H", bits)  # fits in 16 bits


class TestFits:
    def test_single_point_always_true(self):
        ((_, seg),) = learn_segments([3], 42, 0)
        assert _fits(seg.slope, seg.intercept, [3], 0, 0, 1, [42], [42])

    def test_out_of_bound_fit_rejected(self):
        # the block [0, 96, 100] sits at PPAs 10..12, so points 1..2 are at
        # offsets 0 and 4 of the group based at LPA 96, at PPAs 11 and 12
        lpas = [0, 96, 100]
        wide = _windows(lpas, 10, 1, 3, 4)
        assert wide == ([10, 10], [12, 12])  # gamma 4, clamped to the block
        assert _fits(0.25, 11.0, lpas, 96, 1, 3, *wide)
        # slope 1, intercept 10 predicts 10 and 14: 14 is within gamma 4 of
        # PPA 12 but past the block's last page, and misses it at gamma 1
        assert not _fits(1.0, 10.0, lpas, 96, 1, 3, *wide)
        assert not _fits(1.0, 10.0, lpas, 96, 1, 3, *_windows(lpas, 10, 1, 3, 1))


def random_block(rng, kind):
    """A block's sorted LPAs and its first PPA."""
    base = rng.randrange(0, 1 << 20)
    ppa = rng.randrange(0, 1 << 24)
    if kind == "seq":
        lpas = [base + i for i in range(rng.randrange(1, 64))]
    elif kind == "stride":
        step = rng.randrange(2, 9)
        lpas = [base + i * step for i in range(rng.randrange(1, 48))]
    else:
        span = rng.randrange(2, 512)
        count = rng.randrange(1, min(span, 128) + 1)
        lpas = sorted(rng.sample(range(base, base + span), count))
    return lpas, ppa


@pytest.mark.parametrize("gamma", [0, 1, 4, 8, 16])
def test_gamma_bound_randomized(gamma):
    rng = random.Random(1000 + gamma)
    for _ in range(600):
        lpas, first = random_block(rng, rng.choice(["seq", "stride", "rand"]))
        check_segments(learn_segments(lpas, first, gamma), lpas, first, gamma)


@pytest.mark.parametrize(
    "run, follower",
    [
        ([(0, 1000), (33, 1001)], (34, 1002)),
        ([(1, 798), (59, 799), (117, 800)], (225, 801)),
        ([(16, 3450), (58, 3451), (100, 3452)], (154, 3453)),
    ],
)
def test_gamma0_run_fit_ignores_following_point(run, follower):
    # the point that breaks an exact run must not narrow the run's own fit
    lpas = [lpa for lpa, _ in run]
    first = run[0][1]
    alone = learn_segments(lpas, first, 0)
    followed = learn_segments(lpas + [follower[0]], first, 0)
    assert fields(followed[: len(alone)]) == fields(alone)
    check_segments(followed, lpas + [follower[0]], first, 0)


def test_monotone_segment_count_in_gamma():
    rng = random.Random(77)
    for _ in range(300):
        lpas, first = random_block(rng, rng.choice(["seq", "stride", "rand"]))
        counts = [len(learn_segments(lpas, first, g)) for g in (0, 1, 4, 8, 16)]
        assert counts == sorted(counts, reverse=True) or all(
            a >= b for a, b in zip(counts, counts[1:])
        )


def test_bounds_clamp_predictions():
    """Every prediction lands inside the block's PPAs, even where gamma
    would reach past its first or last page."""
    rng = random.Random(5)
    for _ in range(300):
        lpas, first = random_block(rng, "rand")
        last = first + len(lpas) - 1
        for _, seg in learn_segments(lpas, first, 16):
            for off in encoded_members(seg):
                assert first <= seg.predict(off) <= last


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(0, 1023), min_size=1, max_size=96),
    st.integers(0, 16),
    st.integers(0, 1 << 20),
)
def test_gamma_bound_property(lpas, gamma, ppa0):
    lpas = sorted(lpas)
    check_segments(learn_segments(lpas, ppa0, gamma), lpas, ppa0, gamma)


def run_end_brute(lpas, j):
    """Last index of the exact run at j, scanned forward from j: the PPAs
    step by 1, so a run ends where the LPA stride changes."""
    end = j
    stride = None
    while end + 1 < len(lpas) and stride in (None, lpas[end + 1] - lpas[end]):
        stride = lpas[end + 1] - lpas[end]
        end += 1
    return end


@st.composite
def block_lpas(draw, span=1024, size=256, run=200):
    """A block's sorted LPAs: up to size of them, mixing sequential and
    strided runs of up to run members with random pages, started below
    span."""
    lpas = set()
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["sequential", "sequential", "strided", "random"]))
        if kind == "random":
            lpas |= draw(st.sets(st.integers(0, span - 1), max_size=48))
        else:
            step = 1 if kind == "sequential" else draw(st.integers(2, 9))
            start = draw(st.integers(0, span - 1))
            lpas.update(range(start, start + step * draw(st.integers(1, run)), step))
    return sorted(lpas)[:size]


@settings(max_examples=300, deadline=None)
@given(block_lpas(span=96, size=48, run=24))
def test_run_ends_match_forward_scan(lpas):
    """The block's runs clipped to any sub-range p..q-1 give the run ends
    a forward scan finds inside it, as do the runs of that range alone."""
    n = len(lpas)
    d = list(map(sub, lpas, range(n)))
    runs = _exact_runs(lpas, d, 0, n)
    for p in range(n):
        for q in range(p + 1, n + 1):
            want = [run_end_brute(lpas[p:q], j) for j in range(q - p)]
            assert _stretch_ends(runs, p, q) == want, (p, q)
            assert _stretch_ends(_exact_runs(lpas, d, p, q), p, q) == want


def all_fields(pairs):
    """Every field of every segment, floats by their bits (0.0 is not
    -0.0)."""
    return [
        (gid, s.start, s.length, s.end, s.slope_bits, s.slope.hex(),
         s.intercept.hex(), s.bm, s.step)
        for gid, s in pairs
    ]


def assert_matches_reference(lpas, first, gamma):
    """The block's segments equal the reference's, which takes the block as
    (lpa, ppa) points and its PPA range as bounds."""
    pts = list(zip(lpas, range(first, first + len(lpas))))
    want = reference_learn_segments(pts, gamma, (first, first + len(lpas) - 1))
    assert all_fields(learn_segments(lpas, first, gamma)) == all_fields(want)


@settings(max_examples=300, deadline=None)
@given(
    block_lpas(),
    st.one_of(
        st.integers(0, 1 << 20),
        st.integers((1 << 24) - 512, (1 << 24) + 512),
    ),
    st.integers(0, 16),
)
def test_matches_reference_on_ftl_batches(lpas, first, gamma):
    """One programmed block as leaftl learns it, over a few groups.  The
    first PPA is sometimes near 2**24, where the stride-1 fit's intercept
    leaves binary32's exact integers."""
    assert_matches_reference(lpas, first, gamma)


@pytest.mark.parametrize("gamma", [0, 4, 16])
def test_stride2_run_whose_last_point_starts_a_stride1_run(gamma):
    """LPA 14 ends the stride-2 run 0, 2, ..., 14 and starts the stride-1
    run 14, 15, ..., 40.  The stride-2 segment keeps it, so the stride-1
    segment starts one point later."""
    lpas = list(range(0, 16, 2)) + list(range(15, 41))
    assert_matches_reference(lpas, 900, gamma)
    segs = [seg for _, seg in learn_segments(lpas, 900, gamma)]
    assert [(s.start, s.end, s.step, s.accurate) for s in segs] == [
        (0, 14, 2, True),
        (15, 40, 1, True),
    ]


@pytest.mark.parametrize("gamma", [0, 8])
@pytest.mark.parametrize(
    "offset", [1 << 24, (1 << 24) + 1, (1 << 24) + 57, -(1 << 24), -(1 << 24) - 1]
)
def test_stride1_run_beyond_binary32_takes_the_checked_fit(offset, gamma):
    """|ppa - offset| >= 2**24: the unchecked stride-1 fit declines, and
    the checked fit (or, when binary32 rounds the intercept, the fallback
    after it) gives the reference's segments."""
    first = 44 + offset
    lpas = list(range(300, 340))  # offsets 44..83 of group 1
    with mock.patch("ftlsim.plr._fits", wraps=_fits) as checked:
        seg = _fit_run(lpas, first, GROUP_SIZE, 0, len(lpas))
    assert checked.called
    assert seg is None or _f32(seg.intercept) == seg.intercept
    assert_matches_reference(lpas, first, gamma)
