"""How the piecewise-linear learner turns programmed blocks into segments.

A flush hands the learner one flash block: its LPAs, sorted, and the PPA of
its first page; the i-th LPA sits at that PPA + i.  The learner returns
8-byte segments; `gamma` is the allowed prediction error for approximate
segments, and no prediction leaves the block.
"""

from ftlsim.plr import GROUP_SIZE, learn_segments, members


def show(title, lpas, first, gamma):
    segs = learn_segments(lpas, first, gamma)
    truth = dict(zip(lpas, range(first, first + len(lpas))))
    print(f"\n{title}  (gamma={gamma})")
    print(f"  {len(lpas)} pages -> {len(segs)} segment(s)")
    for gid, s in segs:
        # segments are group-relative: an accurate one's members are every
        # stride-th offset, an approximate one lists them in its CRB run;
        # bm holds both kinds as a bitmap over the group's offsets
        kind = "accurate " if s.accurate else "approx.  "
        offsets = members(s.bm)
        base = gid * GROUP_SIZE
        print(
            f"  {kind} start={base + s.start:<6} len={s.length:<4} "
            f"slope={s.slope:.4f}  members={len(offsets)}"
        )
        worst = max(abs(s.predict(o) - truth[base + o]) for o in offsets)
        print(f"            worst prediction error: {worst} page(s)")


# A purely sequential run compresses to a single exact segment.
show("sequential run", list(range(64)), 1000, gamma=0)

# Strided writes (every other page) are still exact: slope 1/2.
show("stride-2 run", list(range(0, 128, 2)), 3000, gamma=0)

# Sparse, irregular pages cannot be captured exactly ...
sparse = [0, 2, 3, 6, 9, 10]
show("sparse block, exact mode", sparse, 64, gamma=0)
# ... but one approximate segment covers them when gamma allows +-4 pages.
show("sparse block, gamma=4", sparse, 64, gamma=4)

# Widening gamma never increases the segment count for the same input.
import random

rng = random.Random(1)
lpas = sorted(rng.sample(range(256), 48))
print("\nrandom block, gamma sweep:")
for gamma in (0, 1, 4, 8, 16):
    segs = learn_segments(lpas, 9000, gamma)
    approx = sum(1 for _, s in segs if not s.accurate)
    print(f"  gamma={gamma:<3} segments={len(segs):<3} (approximate: {approx})")
