"""Gamma-bounded piecewise linear fitting of programmed flash blocks.

Segment is the one segment type: the learner builds it and the mapping
table stores it.  A segment predicts ppa = ceil(K * x + I) where x is the
LPA offset within the segment's 256-LPA group, K is a binary16 slope and I
an intercept in absolute PPA units.  Approximate segments guarantee
|prediction - ppa| <= gamma for every member; accurate segments predict
exactly and their members form an arithmetic LPA progression so membership
is decidable from the slope alone (stride = ceil(1/K)).

The learner takes one programmed block, its sorted LPAs with lpas[i] at
PPA first + i, and pins every prediction to the block's PPAs.  It works on
index ranges: every piece it fits is points p..q-1 of the block, at group
offsets lpa - base; no (x, y) point list is built.  Since the PPAs are
consecutive, an exact run is a maximal constant-stride LPA run;
_exact_runs lists a group's, and each of at least RUN_MIN members becomes
an accurate segment (_fit_run, with no member check for stride 1).  A
leftover stretch between them is cut into its exact runs at gamma 0, and
into the byte-minimal mix of runs and approximate pieces at gamma > 0
(_dp_stretch), whose lines _cone bounds by each point's PPA window
(_windows).  A stretch, or a half of a piece whose fit failed, clips the
group's runs to its range (_stretch_ends): a maximal run stays maximal
inside any sub-range.  Run extraction does not depend on gamma, which keeps
the output monotone: a wider gamma never yields more segments or more CRB
bytes on the same input.

Python-level work is per run and per leftover point, not per page: a block
splits into groups by bisecting its LPAs, and along strictly increasing
LPAs lpa - index is constant exactly on a stride-1 chain, so one bisect
finds each stride-1 run.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import repeat
from operator import sub
from typing import Optional

GROUP_SIZE = 256
# Minimum members for the run-extraction phase.  Shorter runs are cheaper to
# keep inside an approximate segment's CRB run (1 byte/member) than as an
# extra 8-byte segment.
RUN_MIN = 8
# Exact runs of this many points or more always stay their own segment;
# approximate segments may absorb at most shorter ones (see _dp_stretch).
PROTECTED_RUN = 4
# Extra cost charged to an approximate piece when choosing the partition.
# An absorbed exact run keeps paying conflict bytes after its neighbours
# are overwritten, so approximate only wins when it saves more than that
# worst-case penalty.  Not part of the reported memory accounting.
ABSORB_PENALTY = 3

_PACK_H = struct.Struct("<H")
_PACK_E = struct.Struct("<e")
_PACK_F = struct.Struct("<f")
_PACK_I = struct.Struct("<i")


def _f32(value: float) -> float:
    """Round to the nearest binary32, the storage precision of intercepts."""
    return _PACK_F.unpack(_PACK_F.pack(value))[0]


def _f32_floor(value: float) -> float:
    """The largest binary32 not above value."""
    f = _f32(value)
    if f <= value:
        return f
    # one binary32 step toward -inf: the bit pattern, read as a signed int,
    # moves down for a positive f and up (in magnitude) for a negative one
    bits = _PACK_I.unpack(_PACK_F.pack(f))[0]
    if f > 0:
        bits -= 1
    elif f < 0:
        bits += 1
    else:
        bits = -0x7FFFFFFF  # 0x80000001, the negative subnormal below zero
    return _PACK_F.unpack(_PACK_I.pack(bits))[0]


@cache
def decode_slope(bits: int) -> float:
    return float(_PACK_E.unpack(_PACK_H.pack(bits))[0])


def quantize_slope(slope: float, accurate: bool = True) -> int:
    """Quantize a slope in [0, 1] to binary16 bits.

    The mantissa LSB doubles as the segment type flag (0 = accurate,
    1 = approximate), so the nearest half-float with the required parity is
    chosen.  Relative decode error stays below 2**-8.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"slope out of range [0, 1]: {slope}")
    bits = _PACK_H.unpack(_PACK_E.pack(slope))[0]
    flag = 0 if accurate else 1
    if bits & 1 == flag:
        return bits
    best = None
    for cand in (bits - 1, bits + 1):
        if cand < 0:
            continue
        err = abs(decode_slope(cand) - slope)
        if best is None or err < best[0]:
            best = (err, cand)
    assert best is not None
    return best[1]


def progression(first: int, last: int, step: int) -> int:
    """Bitmap of the offsets first, first + step, ..., last."""
    return _repunit(step, (last - first) // step + 1) << first


@cache
def _repunit(step: int, count: int) -> int:
    # count bits spaced step apart: (2**(step*count) - 1) / (2**step - 1)
    return ((1 << (step * count)) - 1) // ((1 << step) - 1)


def members(bm: int) -> list:
    """The offsets of a membership bitmap's set bits, ascending."""
    out = []
    while bm:
        low = bm & -bm
        out.append(low.bit_length() - 1)
        bm ^= low
    return out


class Segment:
    """One learned segment of a 256-LPA group, in group-relative offsets.

    Members run from start to start + length (0 for a single point).  bm
    is the membership bitmap over the group's offsets, bit o set when
    offset o is a member: an accurate segment's members are every stride-th
    offset of its range, an approximate one's are any subset that holds
    both ends (its CRB run).  slope is the decoded binary16 value,
    intercept is binary32-rounded (a single point's is its PPA, which
    binary32 holds exactly up to 2**24), in PPA units at offset 0.  The
    mapping table tightens start and length as newer segments mask members
    away; -1 marks a segment whose members are all masked (bm 0).  step is
    ceil(1/slope), computed once (1 for the zero slope of a single point):
    the member spacing of an accurate segment longer than one point.  bm
    defaults to the progression that start, length and step describe.  end
    is the last member's offset, kept beside start and length because level
    bisection reads it on every update (start for a removed segment); a
    writer of start or length sets it too.
    """

    __slots__ = (
        "start", "length", "end", "slope_bits", "slope", "intercept", "bm", "step"
    )

    def __init__(self, start, length, slope_bits, slope, intercept, bm=None):
        self.start = start
        self.length = length
        self.end = start + length if length > 0 else start
        self.slope_bits = slope_bits
        self.slope = slope
        self.intercept = intercept
        self.step = step = math.ceil(1.0 / slope) if slope else 1
        if bm is None:
            bm = progression(start, start + length, step) if length >= 0 else 0
        self.bm = bm

    @property
    def accurate(self):
        return (self.slope_bits & 1) == 0

    def predict(self, offset):
        return math.ceil(self.slope * offset + self.intercept)

    def __repr__(self):
        kind = "acc" if self.accurate else "apx"
        return f"<Segment {kind} [{self.start},{self.start + self.length}] k={self.slope:.4f}>"


def _fits(k, intercept, lpas, base, p, q, lows, highs) -> bool:
    """Every prediction ceil(k*x + intercept) of points p..q-1, x = lpa -
    base, is inside its PPA window lows[i]..highs[i], indexed from p."""
    ceil = math.ceil
    for x, lo, hi in zip(lpas[p:q], lows, highs):
        pred = ceil(k * (x - base) + intercept)
        if pred < lo or pred > hi:
            return False
    return True


@cache
def _accurate_slope_bits(stride: int) -> Optional[int]:
    """Even-LSB binary16 slope k with ceil(1/k) == stride, minimizing k.

    Needs k >= 1/stride (so the stride round-trips) while keeping the total
    prediction drift over a group below 1 page; returns None when binary16
    cannot represent such a slope.
    """
    target = 1.0 / stride
    base = _PACK_H.unpack(_PACK_E.pack(target))[0] & ~1
    best = None
    for cand in (base - 2, base, base + 2, base + 4):
        if cand < 0:
            continue
        k = decode_slope(cand)
        if k < target or k > 1.0:
            continue
        if stride > 1 and k >= 1.0 / (stride - 1):
            continue
        if best is None or k < best[1]:
            best = (cand, k)
    # the segment's stride is recomputed as ceil(1/k) in binary64
    if best is not None and math.ceil(1.0 / best[1]) == stride:
        return best[0]
    return None


_UNIT_BITS = _accurate_slope_bits(1)  # binary16 1.0
# binary32 holds every integer of smaller magnitude exactly
_F32_EXACT = 1 << 24


def _single_point(x: int, y: int) -> Segment:
    return Segment(x, 0, 0, 0.0, float(y), 1 << x)


def _exact_runs(lpas, d, lo, hi) -> list:
    """The maximal exact runs among points lo..hi-1: the PPAs step by 1,
    so these are the maximal constant-stride LPA runs.  Returns (first,
    last) index pairs, last > first, in order; a run's last point is the
    next run's first.

    d[j] is lpas[j] - j, which never decreases along strictly increasing
    LPAs and is constant exactly along a stride-1 chain, so one bisect
    finds where a stride-1 run ends.  Only runs of another stride are
    walked point by point.
    """
    runs = []
    last = hi - 1
    j = lo
    while j < last:
        step = lpas[j + 1] - lpas[j]
        if step == 1:
            e = bisect_right(d, d[j], j + 1, hi) - 1
        else:
            e = j + 1
            while e < last and lpas[e + 1] - lpas[e] == step:
                e += 1
        runs.append((j, e))
        j = e
    return runs


def _stretch_ends(runs, p, q) -> list:
    """ends[j]: last index (from p) of the exact run that starts at point
    p + j, for points p..q-1; runs are the _exact_runs reaching into them."""
    ends = list(range(q - p))
    for a, b in runs:
        if a < p:
            a = p
        if b >= q:
            b = q - 1
        if a < b:
            ends[a - p : b - p] = [b - p] * (b - a)
    return ends


def _windows(lpas, first, p, q, gamma) -> tuple:
    """The PPA windows of points p..q-1, y - gamma to y + gamma clamped to
    the block's PPAs first..first + len(lpas) - 1: (lows, highs), indexed
    from p."""
    last = first + len(lpas) - 1
    ys = range(first + p, first + q)
    return (
        [first if y - gamma < first else y - gamma for y in ys],
        [last if y + gamma > last else y + gamma for y in ys],
    )


def _cone(lpas, first, lows, highs, p, j, stop) -> tuple:
    """Grow the slope interval of lines through point p + j that pass every
    later point's window (see _windows), up to point p + stop or the first
    point no such line reaches.  Returns (end, lo, hi): the last covered
    index, from p, and the feasible slopes over points p + j .. p + end."""
    x0 = lpas[p + j]
    y0 = first + p + j
    lo, hi = 0.0, 1.0
    for i in range(j + 1, stop + 1):
        dx = lpas[p + i] - x0
        nlo = (lows[i] - y0) / dx
        nhi = (highs[i] - y0) / dx
        if nlo > hi or nhi < lo or nlo > nhi:
            return i - 1, lo, hi
        if nlo > lo:
            lo = nlo
        if nhi < hi:
            hi = nhi
    return stop, lo, hi


def _fit_run(lpas, first, base, p, q) -> Optional[Segment]:
    """Fit an accurate segment over the exact run of points p..q-1 (see
    _exact_runs), at group offsets lpa - base.

    A stride-1 run has slope 1.0, so there is no drift, and its intercept
    is the integer y0 - x0: while binary32 holds that exactly, every member
    is predicted exactly and needs no check.
    """
    x0 = lpas[p] - base
    y0 = first + p
    span = lpas[q - 1] - lpas[p]
    if span == q - 1 - p and -_F32_EXACT < y0 - x0 < _F32_EXACT:
        return Segment(x0, span, _UNIT_BITS, 1.0, float(y0 - x0))
    stride = lpas[p + 1] - lpas[p]
    bits = _accurate_slope_bits(stride)
    if bits is None:
        return None
    k = decode_slope(bits)
    # k >= 1/stride, so predictions drift upward along the run; anchor the
    # intercept so the last member lands exactly and the drift stays < 1.
    drift = span * k - span / stride
    if drift >= 0.9:
        return None
    # Rounding the intercept up could undo the drift compensation and push
    # the last member one page past its PPA.
    intercept = _f32_floor(y0 - k * x0 - drift)
    ys = range(y0, y0 + q - p)
    if not _fits(k, intercept, lpas, base, p, q, ys, ys):
        return None
    return Segment(x0, span, bits, k, intercept)


def _fit_approximate(lpas, first, base, p, q, gamma) -> Optional[Segment]:
    lows, highs = _windows(lpas, first, p, q, gamma)
    _, lo, hi = _cone(lpas, first, lows, highs, p, 0, q - p - 1)
    k_mid = (lo + hi) / 2.0
    if k_mid <= 0.0:
        return None
    # an odd-LSB neighbour of a slope in (0, 1] decodes into (0, 1] too
    bits = quantize_slope(min(k_mid, 1.0), accurate=False)
    k = decode_slope(bits)
    # The cone corridor is centred half a page below each PPA so that the
    # ceil in predict() lands on the PPA itself rather than one past it.
    x0 = lpas[p] - base
    intercept = _f32(first + p - 0.5 - k * x0)
    if not _fits(k, intercept, lpas, base, p, q, lows, highs):
        return None
    bm = 0
    for x in lpas[p:q]:
        bm |= 1 << (x - base)
    return Segment(x0, lpas[q - 1] - lpas[p], bits, k, intercept, bm)


def _learn_stretch(lpas, first, base, runs, p, q, gamma, out) -> None:
    """Fit the leftover stretch of points p..q-1; runs are the group's
    _exact_runs that reach into it.

    gamma=0 emits each exact run as its own piece; gamma>0 picks the
    partition with the fewest encoded bytes (see _dp_stretch), which makes
    table size non-increasing as gamma widens.  A stretch that is one
    exact run (or one point) is one 8-byte piece either way.
    """
    ends = _stretch_ends(runs, p, q)
    if ends[0] == q - p - 1:
        _emit(lpas, first, base, runs, p, q, True, gamma, out)
    elif gamma > 0:
        _dp_stretch(lpas, first, base, runs, ends, p, q, gamma, out)
    else:
        j = 0
        while j < q - p:
            e = ends[j] + 1
            _emit(lpas, first, base, runs, p + j, p + e, True, gamma, out)
            j = e


# A partition's cost in _dp_stretch, bytes * _DP_BYTE + segments: one int
# that orders as the (bytes, segments) pair, since a stretch holds at most
# GROUP_SIZE points.
_DP_BYTE = 1 << 10


def _dp_stretch(lpas, first, base, runs, ends, p, q, gamma, out) -> None:
    """Byte-minimal partition of the leftover stretch of points p..q-1
    into segments; ends are its _stretch_ends.

    A piece costs 8 bytes when it is a single point or an exact run
    (constant LPA stride) and 9 + len bytes as an approximate segment
    (8-byte encoding plus its conflict-resolution run).  Both piece
    families are prefix-closed, and every line feasible at gamma
    stays feasible at any wider gamma, so the optimum found here is
    non-increasing in gamma for the same input.

    Exact runs of PROTECTED_RUN or more points are never folded into an
    approximate segment: the 8-byte run encoding is already at least as
    small, and an absorbed run keeps paying per-member conflict bytes after
    neighbouring members are overwritten.  The constraint depends only on
    the run structure, not on gamma, so it preserves the monotonicity above.
    """
    n = q - p
    # cone_cap[j]: furthest index an approximate piece starting at j may
    # reach without fully containing a protected run (suffix minimum).
    cone_cap = [n - 1] * n
    cap = n - 1
    for j in range(n - 1, -1, -1):
        if ends[j] - j + 1 >= PROTECTED_RUN:
            here = j + PROTECTED_RUN - 2
            if here < cap:
                cap = here
        cone_cap[j] = cap
    lows, highs = _windows(lpas, first, p, q, gamma)
    # dp[i]: cost of the best partition of the first i points; ties in
    # bytes prefer fewer segments so wider gamma never returns more of
    # them.  Every dp[j] is finite by the time j is reached: point j - 1
    # alone is a piece.
    exact_cost = 8 * _DP_BYTE + 1
    dp = [1 << 62] * (n + 1)
    dp[0] = 0
    back = [0] * (n + 1)
    for j in range(n):
        bj = dp[j]
        r = ends[j]
        cand = bj + exact_cost
        for i in range(j + 1, r + 2):
            if cand < dp[i]:
                dp[i] = cand
                back[i] = j
        stop = cone_cap[j]
        if stop <= r:
            continue
        # the approximate pieces from j end at most where its cone does; a
        # piece over j..i costs 9 + (i - j + 1) bytes plus the absorb penalty
        end = _cone(lpas, first, lows, highs, p, j, stop)[0]
        cand = bj + (10 + ABSORB_PENALTY - j + r) * _DP_BYTE + 1
        for i in range(r + 1, end + 1):
            cand += _DP_BYTE
            if cand < dp[i + 1]:
                dp[i + 1] = cand
                back[i + 1] = j
    cuts = []
    i = n
    while i > 0:
        j = back[i]
        cuts.append((j, i))
        i = j
    for j, i in reversed(cuts):
        exact = i - 1 <= ends[j]
        _emit(lpas, first, base, runs, p + j, p + i, exact, gamma, out)


def _emit(lpas, first, base, runs, p, q, exact, gamma, out) -> None:
    """Fit points p..q-1 as one piece; exact says they are an exact run
    (see _exact_runs), runs are the group's runs that reach into them."""
    if q - p == 1:
        out.append(_single_point(lpas[p] - base, first + p))
        return
    seg = _fit_run(lpas, first, base, p, q) if exact else None
    if seg is None:
        seg = _fit_approximate(lpas, first, base, p, q, gamma)
    if seg is not None:
        out.append(seg)
        return
    # Quantization pushed a prediction out of tolerance; split and refit.
    mid = (p + q) // 2
    _learn_stretch(lpas, first, base, runs, p, mid, gamma, out)
    _learn_stretch(lpas, first, base, runs, mid, q, gamma, out)


def _learn_group(lpas, first, d, lo, hi, gamma) -> list:
    """Segments of the group that holds points lo..hi-1 (two or more), in
    offset order.

    A maximal exact run becomes an accurate segment over its longest
    suffix of at least RUN_MIN members that fits, if any; the leftover
    stretches between them take the runs that reach into them.
    """
    base = lpas[lo] - lpas[lo] % GROUP_SIZE
    out: list = []
    runs = _exact_runs(lpas, d, lo, hi)
    pending = lo  # first point not yet fitted
    k0 = 0  # first run not wholly behind the last segment
    for k, (a, b) in enumerate(runs):
        # a run whose first point ended the last segment starts one later
        if a < pending:
            a = pending
        while b - a + 1 >= RUN_MIN:
            seg = _fit_run(lpas, first, base, a, b + 1)
            if seg is not None:
                break
            a += 1
        else:
            continue
        if pending < a:
            _learn_stretch(lpas, first, base, runs[k0 : k + 1], pending, a, gamma, out)
        out.append(seg)
        pending = b + 1
        k0 = k + 1
    if pending < hi:
        _learn_stretch(lpas, first, base, runs[k0:], pending, hi, gamma, out)
    return out


def learn_segments(lpas, first_ppa: int, gamma: int) -> list:
    """Fit segments over one programmed block: lpas sorted by LPA, strictly
    increasing, lpas[i] at PPA first_ppa + i.

    Segments never cross a 256-LPA group boundary, and every prediction of
    every returned segment lands inside the block's PPAs, first_ppa to
    first_ppa + len(lpas) - 1.

    Returns (group id, Segment) pairs in LPA order; the members the
    segments encode partition the input.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    n = len(lpas)
    # lpas[j] - j never decreases exactly when the LPAs strictly increase
    d = list(map(sub, lpas, range(n)))
    if d != sorted(d):
        raise ValueError("block LPAs must be strictly increasing")
    out: list = []
    lo = 0
    while lo < n:
        gid = lpas[lo] // GROUP_SIZE
        hi = bisect_left(lpas, (gid + 1) * GROUP_SIZE, lo + 1)
        if hi - lo == 1:
            out.append((gid, _single_point(lpas[lo] % GROUP_SIZE, first_ppa + lo)))
        else:
            segs = _learn_group(lpas, first_ppa, d, lo, hi, gamma)
            out += zip(repeat(gid), segs)
        lo = hi
    return out
