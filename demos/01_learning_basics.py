"""How the piecewise-linear learner turns write batches into segments.

A flush hands the learner a batch of (LPA, PPA) pairs: LPAs sorted, PPAs
consecutive inside the flash block.  The learner returns 8-byte segments;
`gamma` is the allowed prediction error for approximate segments.
"""

from ftlsim.plr import GROUP_SIZE, learn_segments


def show(title, pts, gamma):
    segs = learn_segments(pts, gamma)
    print(f"\n{title}  (gamma={gamma})")
    print(f"  {len(pts)} pages -> {len(segs)} segment(s)")
    for gid, s in segs:
        # segments are group-relative: an accurate one's members are every
        # stride-th offset, an approximate one lists them in its CRB run
        kind = "accurate " if s.accurate else "approx.  "
        offsets = s.run or range(s.start, s.end + 1, s.stride)
        base = gid * GROUP_SIZE
        print(
            f"  {kind} start={base + s.start:<6} len={s.length:<4} "
            f"slope={s.slope:.4f}  members={len(offsets)}"
        )
        worst = max(abs(s.predict(o) - dict(pts)[base + o]) for o in offsets)
        print(f"            worst prediction error: {worst} page(s)")


# A purely sequential run compresses to a single exact segment.
show("sequential run", [(i, 1000 + i) for i in range(64)], gamma=0)

# Strided writes (every other page) are still exact: slope 1/2.
show("stride-2 run", [(2 * i, 3000 + i) for i in range(64)], gamma=0)

# Sparse, irregular pages cannot be captured exactly ...
sparse = [(0, 64), (1, 65), (2, 66), (4, 66), (6, 68), (7, 68)]
show("sparse batch, exact mode", sparse, gamma=0)
# ... but one approximate segment covers them when gamma allows +-4 pages.
show("sparse batch, gamma=4", sparse, gamma=4)

# Widening gamma never increases the segment count for the same input.
import random

rng = random.Random(1)
lpas = sorted(rng.sample(range(256), 48))
batch = [(lpa, 9000 + i) for i, lpa in enumerate(lpas)]
print("\nrandom batch, gamma sweep:")
for gamma in (0, 1, 4, 8, 16):
    segs = learn_segments(batch, gamma)
    approx = sum(1 for _, s in segs if not s.accurate)
    print(f"  gamma={gamma:<3} segments={len(segs):<3} (approximate: {approx})")
