"""Learner tests: fitting examples, quantization, the error-bound property
under randomized batches, and field-for-field equality with the per-point
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


def check_segments(pairs, points, gamma):
    """Every encoded member predicted within gamma; accurate segments
    exact; encoded members partition the input in order."""
    truth = dict(points)
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
    assert covered == [lpa for lpa, _ in points]


def fields(pairs):
    return [
        (gid, s.start, s.length, s.slope_bits, s.slope, s.intercept, s.bm)
        for gid, s in pairs
    ]


class TestExamples:
    def test_sequential_exact_fit(self):
        segs = learn_segments([(0, 32), (1, 33), (2, 34), (3, 35)], 0)
        assert len(segs) == 1
        gid, seg = segs[0]
        assert gid == 0
        assert seg.accurate
        assert seg.length == 3
        assert seg.predict(2) == 34

    def test_single_point(self):
        ((gid, seg),) = learn_segments([(7, 1000)], 0)
        assert gid == 0 and seg.start == 7 and seg.accurate and seg.bm == 1 << 7
        assert seg.length == 0
        assert seg.slope == 0.0
        assert seg.intercept == pytest.approx(1000, abs=1)
        assert seg.predict(7) == 1000

    def test_sparse_batch_one_approximate_segment(self):
        pts = [(0, 64), (1, 65), (2, 66), (4, 66), (6, 68), (7, 68)]
        segs = learn_segments(pts, 4)
        assert len(segs) == 1
        assert not segs[0][1].accurate
        check_segments(segs, pts, 4)

    def test_no_unit_slope_line_fits_distant_points(self):
        # slope to reach (200, 102) from (0, 100) is 0.01 but then (5, 101)
        # misses at gamma=0; any exact fit needs at least two pieces
        pts = [(0, 100), (5, 101), (200, 102)]
        segs = learn_segments(pts, 0)
        assert len(segs) >= 2
        check_segments(segs, pts, 0)

    def test_empty_input(self):
        assert learn_segments([], 3) == []

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            learn_segments([(5, 1), (4, 2)], 0)
        with pytest.raises(ValueError):
            learn_segments([(5, 1), (5, 2)], 0)

    def test_group_boundary_split(self):
        pts = [(i, 100 + i) for i in range(250, 260)]
        segs = learn_segments(pts, 0)
        assert len(segs) == 2
        assert [gid for gid, _ in segs] == [0, 1]
        check_segments(segs, pts, 0)

    def test_long_accurate_run(self):
        pts = [(i, 500 + i) for i in range(256)]
        segs = learn_segments(pts, 0)
        ((_, seg),) = segs
        assert seg.accurate and seg.length == 255
        check_segments(segs, pts, 0)

    def test_run_fit_survives_binary32_intercept_rounding(self):
        # the nearest binary32 intercept lies above the exact one and would
        # push the last member one page past its PPA
        seg = _fit_run([0, 33], [1000, 1001], 0, 0, 2)
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
        ((_, seg),) = learn_segments([(3, 42)], 0)
        assert _fits(seg.slope, seg.intercept, [3], [42], 0, 0, 1, 0, None)

    def test_out_of_bound_fit_rejected(self):
        # points 1..2 sit at offsets 0 and 4 of the group based at LPA 96;
        # slope 1, intercept 10 misses PPA 16 at offset 4 by gamma + 1
        lpas = [0, 96, 100]
        assert _fits(1.0, 10.0, lpas, [0, 10, 15], 96, 1, 3, 1, None)
        assert not _fits(1.0, 10.0, lpas, [0, 10, 16], 96, 1, 3, 1, None)
        assert not _fits(1.0, 10.0, lpas, [0, 10, 15], 96, 1, 3, 1, (10, 13))


def random_batch(rng, kind):
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
    return [(lpa, ppa + i) for i, lpa in enumerate(lpas)]


@pytest.mark.parametrize("gamma", [0, 1, 4, 8, 16])
def test_gamma_bound_randomized(gamma):
    rng = random.Random(1000 + gamma)
    for _ in range(600):
        pts = random_batch(rng, rng.choice(["seq", "stride", "rand"]))
        check_segments(learn_segments(pts, gamma), pts, gamma)


@pytest.mark.parametrize(
    "run, follower",
    [
        ([(0, 1000), (33, 1001)], (34, 1002)),
        ([(1, 798), (59, 799), (117, 800)], (225, 801)),
        ([(16, 3450), (58, 3451), (100, 3452)], (154, 3455)),
    ],
)
def test_gamma0_run_fit_ignores_following_point(run, follower):
    # the point that breaks an exact run must not narrow the run's own fit
    alone = learn_segments(run, 0)
    followed = learn_segments(run + [follower], 0)
    assert fields(followed[: len(alone)]) == fields(alone)
    check_segments(followed, run + [follower], 0)


def test_monotone_segment_count_in_gamma():
    rng = random.Random(77)
    for _ in range(300):
        pts = random_batch(rng, rng.choice(["seq", "stride", "rand"]))
        counts = [len(learn_segments(pts, g)) for g in (0, 1, 4, 8, 16)]
        assert counts == sorted(counts, reverse=True) or all(
            a >= b for a, b in zip(counts, counts[1:])
        )


def test_bounds_clamp_predictions():
    rng = random.Random(5)
    for _ in range(300):
        pts = random_batch(rng, "rand")
        lo = pts[0][1]
        hi = pts[-1][1]
        for _, seg in learn_segments(pts, 16, bounds=(lo, hi)):
            for off in encoded_members(seg):
                assert lo <= seg.predict(off) <= hi


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(0, 1023), min_size=1, max_size=96),
    st.integers(0, 16),
    st.integers(0, 1 << 20),
)
def test_gamma_bound_property(lpas, gamma, ppa0):
    pts = [(lpa, ppa0 + i) for i, lpa in enumerate(sorted(lpas))]
    check_segments(learn_segments(pts, gamma), pts, gamma)


def run_end_brute(pts, j):
    """Last index of the exact run at j, scanned forward from j."""
    end = j
    stride = None
    while end + 1 < len(pts):
        (x, y), (nx, ny) = pts[end], pts[end + 1]
        if ny - y != 1 or stride not in (None, nx - x):
            break
        stride = nx - x
        end += 1
    return end


@st.composite
def lpa_ppa_batches(draw):
    kind = draw(st.sampled_from(["random", "sequential", "strided"]))
    if kind == "random":
        lpas = sorted(draw(st.sets(st.integers(0, 1023), min_size=1, max_size=64)))
    else:
        step = 1 if kind == "sequential" else draw(st.integers(2, 9))
        start = draw(st.integers(0, 1023))
        lpas = [start + i * step for i in range(draw(st.integers(1, 64)))]
    # mostly unit PPA steps, so exact runs form and break at the jumps
    steps = draw(
        st.lists(
            st.sampled_from([1, 1, 1, 2, 5]), min_size=len(lpas), max_size=len(lpas)
        )
    )
    pts = []
    ppa = draw(st.integers(0, 1 << 20))
    for lpa, step in zip(lpas, steps):
        pts.append((lpa, ppa))
        ppa += step
    return pts


@settings(max_examples=300, deadline=None)
@given(lpa_ppa_batches())
def test_run_ends_match_forward_scan(pts):
    """The batch's runs clipped to any sub-range p..q-1 give the run ends a
    forward scan finds inside it, as do the runs of that range alone."""
    n = len(pts)
    lpas = [x for x, _ in pts]
    ppas = [y for _, y in pts]
    d = list(map(sub, lpas, range(n)))
    runs = _exact_runs(lpas, ppas, d, 0, n)
    for p in range(n):
        for q in range(p + 1, n + 1):
            want = [run_end_brute(pts[p:q], j) for j in range(q - p)]
            assert _stretch_ends(runs, p, q) == want, (p, q)
            assert _stretch_ends(_exact_runs(lpas, ppas, d, p, q), p, q) == want


def all_fields(pairs):
    """Every field of every segment, floats by their bits (0.0 is not
    -0.0)."""
    return [
        (gid, s.start, s.length, s.end, s.slope_bits, s.slope.hex(),
         s.intercept.hex(), s.bm, s.step)
        for gid, s in pairs
    ]


def assert_matches_reference(pts, gamma, bounds=None):
    got = learn_segments(pts, gamma, bounds)
    assert all_fields(got) == all_fields(reference_learn_segments(pts, gamma, bounds))


@st.composite
def ftl_batches(draw):
    """One programmed block as leaftl learns it: up to 256 sorted LPAs over
    a few groups, mixing sequential and strided runs with random pages, at
    consecutive PPAs and bounded to them.  The first PPA is sometimes near
    2**24, where the stride-1 fit's intercept leaves binary32's exact
    integers."""
    lpas = set()
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["sequential", "sequential", "strided", "random"]))
        if kind == "random":
            lpas |= draw(st.sets(st.integers(0, 1023), max_size=48))
        else:
            step = 1 if kind == "sequential" else draw(st.integers(2, 9))
            start = draw(st.integers(0, 1023))
            lpas.update(range(start, start + step * draw(st.integers(1, 200)), step))
    lpas = sorted(lpas)[:256]
    ppa0 = draw(
        st.one_of(
            st.integers(0, 1 << 20),
            st.integers((1 << 24) - 512, (1 << 24) + 512),
        )
    )
    return [(lpa, ppa0 + i) for i, lpa in enumerate(lpas)], (ppa0, ppa0 + len(lpas) - 1)


@settings(max_examples=300, deadline=None)
@given(ftl_batches(), st.integers(0, 16))
def test_matches_reference_on_ftl_batches(batch, gamma):
    pts, bounds = batch
    assert_matches_reference(pts, gamma, bounds)


@settings(max_examples=300, deadline=None)
@given(lpa_ppa_batches(), st.integers(0, 16))
def test_matches_reference_on_generic_batches(pts, gamma):
    assert_matches_reference(pts, gamma)


@pytest.mark.parametrize("gamma", [0, 4, 16])
def test_stride2_run_whose_last_point_starts_a_stride1_run(gamma):
    """LPA 14 ends the stride-2 run 0, 2, ..., 14 and starts the stride-1
    run 14, 15, ..., 40.  The stride-2 segment keeps it, so the stride-1
    segment starts one point later."""
    lpas = list(range(0, 16, 2)) + list(range(15, 41))
    pts = [(lpa, 900 + i) for i, lpa in enumerate(lpas)]
    bounds = (900, 900 + len(pts) - 1)
    assert_matches_reference(pts, gamma, bounds)
    segs = [seg for _, seg in learn_segments(pts, gamma, bounds)]
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
    pts = [(300 + i, first + i) for i in range(40)]  # offsets 44..83 of group 1
    lpas, ppas = [x for x, _ in pts], [y for _, y in pts]
    with mock.patch("ftlsim.plr._fits", wraps=_fits) as checked:
        seg = _fit_run(lpas, ppas, GROUP_SIZE, 0, len(pts))
    assert checked.called
    assert seg is None or _f32(seg.intercept) == seg.intercept
    assert_matches_reference(pts, gamma, (first, first + 39))
    assert_matches_reference(pts, gamma)
