"""The per-point learner that plr.learn_segments replaced, kept as the
reference its output is compared with (tests/test_plr.py).

It finds each point's exact run with a backward pass over every point
(_run_ends), checks every member of a run fit, and recomputes run ends for
each leftover stretch.  Only the encoding primitives (Segment, the binary16
slope and binary32 intercept helpers) come from ftlsim.plr.
"""

from __future__ import annotations

import math
import struct
from functools import cache
from typing import Optional, Sequence

from ftlsim.plr import (
    ABSORB_PENALTY,
    GROUP_SIZE,
    PROTECTED_RUN,
    RUN_MIN,
    Segment,
    _f32,
    _f32_floor,
    decode_slope,
    quantize_slope,
)

_PACK_H = struct.Struct("<H")
_PACK_E = struct.Struct("<e")


def _fits(k, intercept, pts, gamma, bounds) -> bool:
    """Every prediction ceil(k*x + intercept) of group-relative points is
    within gamma of its PPA (exact at gamma 0) and inside bounds, if given."""
    ceil = math.ceil
    for x, y in pts:
        pred = ceil(k * x + intercept)
        if pred - y > gamma or y - pred > gamma:
            return False
        if bounds is not None and not bounds[0] <= pred <= bounds[1]:
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


def _single_point(x: int, y: int) -> Segment:
    return Segment(x, 0, 0, 0.0, float(y), 1 << x)


def _run_ends(pts) -> list:
    """ends[j]: last index of the exact run starting at pts[j], i.e. constant
    LPA stride and a PPA step of exactly 1 (one backward pass)."""
    n = len(pts)
    ends = [n - 1] * n
    nx, ny = pts[-1]
    next_step = None  # LPA stride of the step out of the next point, if exact
    for j in range(n - 2, -1, -1):
        x, y = pts[j]
        if ny - y != 1:
            ends[j] = j
            next_step = None
        else:
            step = nx - x
            if step != next_step:
                ends[j] = j + 1
            else:
                ends[j] = ends[j + 1]
            next_step = step
        nx, ny = x, y
    return ends


def _cone(pts, j, stop, gamma, bounds) -> tuple:
    """Grow the slope interval of lines through pts[j] that keep every later
    point within gamma (and inside bounds), up to index stop or the first
    point no such line reaches.  Returns (end, lo, hi): the last covered
    index and the feasible slopes over pts[j..end]."""
    x0, y0 = pts[j]
    lo, hi = 0.0, 1.0
    for i in range(j + 1, stop + 1):
        x, y = pts[i]
        ylo, yhi = y - gamma, y + gamma
        if bounds is not None:
            if ylo < bounds[0]:
                ylo = bounds[0]
            if yhi > bounds[1]:
                yhi = bounds[1]
        dx = x - x0
        nlo = (ylo - y0) / dx
        nhi = (yhi - y0) / dx
        if nlo > hi or nhi < lo or nlo > nhi:
            return i - 1, lo, hi
        if nlo > lo:
            lo = nlo
        if nhi < hi:
            hi = nhi
    return stop, lo, hi


def _fit_run(pts) -> Optional[Segment]:
    """Fit an accurate segment over an exact run (see _run_ends)."""
    stride = pts[1][0] - pts[0][0]
    bits = _accurate_slope_bits(stride)
    if bits is None:
        return None
    k = decode_slope(bits)
    x0, y0 = pts[0]
    span = pts[-1][0] - x0
    # k >= 1/stride, so predictions drift upward along the run; anchor the
    # intercept so the last member lands exactly and the drift stays < 1.
    drift = span * k - span / stride
    if drift >= 0.9:
        return None
    # Rounding the intercept up could undo the drift compensation and push
    # the last member one page past its PPA.
    intercept = _f32_floor(y0 - k * x0 - drift)
    if not _fits(k, intercept, pts, 0, None):
        return None
    return Segment(x0, span, bits, k, intercept)


def _fit_approximate(pts, gamma, bounds) -> Optional[Segment]:
    _, lo, hi = _cone(pts, 0, len(pts) - 1, gamma, bounds)
    x0, y0 = pts[0]
    k_mid = (lo + hi) / 2.0
    if k_mid <= 0.0:
        return None
    # an odd-LSB neighbour of a slope in (0, 1] decodes into (0, 1] too
    bits = quantize_slope(min(k_mid, 1.0), accurate=False)
    k = decode_slope(bits)
    # The cone corridor is centred half a page below each PPA so that the
    # ceil in predict() lands on the PPA itself rather than one past it.
    intercept = _f32(y0 - 0.5 - k * x0)
    if not _fits(k, intercept, pts, gamma, bounds):
        return None
    bm = 0
    for x, _ in pts:
        bm |= 1 << x
    return Segment(x0, pts[-1][0] - x0, bits, k, intercept, bm)


def _learn_stretch(pts, gamma, bounds, out) -> None:
    """Fit one leftover stretch (group-relative points).

    gamma=0 emits each exact run as its own piece; gamma>0 picks the
    partition with the fewest encoded bytes (see _dp_stretch), which makes
    table size non-increasing as gamma widens.
    """
    if gamma > 0:
        _dp_stretch(pts, gamma, bounds, out)
        return
    ends = _run_ends(pts)
    start = 0
    while start < len(pts):
        end = ends[start]
        _emit(pts[start : end + 1], True, gamma, bounds, out)
        start = end + 1


def _dp_stretch(pts, gamma, bounds, out) -> None:
    """Byte-minimal partition of a leftover stretch into segments.

    A piece costs 8 bytes when it is a single point or an exact run
    (constant LPA stride, PPA step exactly 1) and 9 + len bytes as an
    approximate segment (8-byte encoding plus its conflict-resolution run).
    Both piece families are prefix-closed, and every line feasible at gamma
    stays feasible at any wider gamma, so the optimum found here is
    non-increasing in gamma for the same input.

    Exact runs of PROTECTED_RUN or more points are never folded into an
    approximate segment: the 8-byte run encoding is already at least as
    small, and an absorbed run keeps paying per-member conflict bytes after
    neighbouring members are overwritten.  The constraint depends only on
    the run structure, not on gamma, so it preserves the monotonicity above.
    """
    n = len(pts)
    run_ext = _run_ends(pts)
    # cone_cap[j]: furthest index an approximate piece starting at j may
    # reach without fully containing a protected run (suffix minimum).
    cone_cap = [n - 1] * n
    cap = n - 1
    for j in range(n - 1, -1, -1):
        if run_ext[j] - j + 1 >= PROTECTED_RUN:
            here = j + PROTECTED_RUN - 2
            if here < cap:
                cap = here
        cone_cap[j] = cap
    # cone_ext[j]: furthest i such that a gamma-feasible line covers pts[j..i].
    cone_ext = [_cone(pts, j, cone_cap[j], gamma, bounds)[0] for j in range(n)]
    # dp[i] = (bytes, segments) for the best partition of pts[:i];
    # ties prefer fewer segments so wider gamma never returns more of them.
    inf = (1 << 60, 1 << 60)
    dp = [inf] * (n + 1)
    dp[0] = (0, 0)
    back = [0] * (n + 1)
    for j in range(n):
        bj, sj = dp[j]
        if bj >= inf[0]:
            continue
        for i in range(j, max(run_ext[j], cone_ext[j]) + 1):
            if i <= run_ext[j]:
                cost = 8
            else:
                cost = 9 + (i - j + 1) + ABSORB_PENALTY
            cand = (bj + cost, sj + 1)
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
        _emit(pts[j:i], i - 1 <= run_ext[j], gamma, bounds, out)


def _emit(pts, exact, gamma, bounds, out) -> None:
    """Fit one piece; exact says it is an exact run (see _run_ends)."""
    if len(pts) == 1:
        out.append(_single_point(*pts[0]))
        return
    if exact:
        seg = _fit_run(pts)
        if seg is not None:
            out.append(seg)
            return
    seg = _fit_approximate(pts, gamma, bounds)
    if seg is not None:
        out.append(seg)
        return
    # Quantization pushed a prediction out of tolerance; split and refit.
    mid = len(pts) // 2
    _learn_stretch(pts[:mid], gamma, bounds, out)
    _learn_stretch(pts[mid:], gamma, bounds, out)


def _learn_group(pts, gamma, bounds) -> list:
    """Segments of one group's (offset, ppa) points, in offset order."""
    n = len(pts)
    if n == 1:
        return [_single_point(*pts[0])]
    out: list = []
    ends = _run_ends(pts)
    pending_start = 0
    i = 0
    while i < n:
        j = ends[i]
        if j - i + 1 >= RUN_MIN:
            seg = _fit_run(pts[i : j + 1])
            if seg is not None:
                if pending_start < i:
                    _learn_stretch(pts[pending_start:i], gamma, bounds, out)
                out.append(seg)
                i = pending_start = j + 1
                continue
        i += 1
    if pending_start < n:
        _learn_stretch(pts[pending_start:], gamma, bounds, out)
    return out


def learn_segments(
    points: Sequence,
    gamma: int,
    bounds: Optional[tuple] = None,
) -> list:
    """Fit segments over a batch of (lpa, ppa) pairs sorted by LPA.

    Segments never cross a 256-LPA group boundary.  When bounds
    (min_ppa, max_ppa) are supplied, every prediction of every returned
    segment is guaranteed to land inside them; the FTL uses this to pin
    predictions to the flash block that holds the batch.

    Returns (group id, Segment) pairs in LPA order; the members the
    segments encode partition the input.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    out: list = []
    group_pts: list = []
    group_id = None
    prev_lpa = None
    for lpa, ppa in points:
        if prev_lpa is not None and lpa <= prev_lpa:
            raise ValueError("batch LPAs must be strictly increasing")
        prev_lpa = lpa
        gid = lpa // GROUP_SIZE
        if gid != group_id:
            if group_pts:
                out += [(group_id, s) for s in _learn_group(group_pts, gamma, bounds)]
            group_id = gid
            group_pts = []
        group_pts.append((lpa % GROUP_SIZE, ppa))
    if group_pts:
        out += [(group_id, s) for s in _learn_group(group_pts, gamma, bounds)]
    return out
