"""Inside the log-structured mapping table.

Fresh segments land in level 0 of their 256-LPA group; overwrites mask
older segments and demote the survivors.  Approximate segments own runs in
the group's conflict-resolution buffer (CRB) so membership stays decidable.
Compaction merges levels without changing any lookup.
"""

from ftlsim.mapping import MappingTable
from ftlsim.plr import learn_segments


def insert(table, pts, gamma):
    table.insert_fitted(learn_segments(pts, gamma))


table = MappingTable()

# Two overlapping generations of writes to group 0.
insert(table, [(75, 500), (78, 501), (80, 502), (82, 503)], gamma=4)
insert(table, [(72, 600), (74, 601), (80, 602)], gamma=4)

group = table.groups[0]
print("levels after overlapping inserts:", len(group.levels))
print("CRB runs (offset lists, one per approximate segment):")
for run in group.crb_runs():
    print("  ", run)

# LPA 80 was rewritten: the newest level answers.  LPA 78 survives deeper.
for lpa in (80, 78):
    ppa, accurate, level = table.lookup(lpa)
    print(f"lookup({lpa}) -> ppa={ppa} accurate={accurate} level={level}")

# Overwrite everything; the old segments become garbage...
insert(table, [(70 + i, 700 + i) for i in range(16)], gamma=4)
print("\nbytes before compaction:", table.total_bytes)
before = {lpa: table.lookup(70 + lpa)[:2] for lpa in range(16)}

# ...and compaction reclaims it without changing any answer.
table.compact()
print("bytes after compaction: ", table.total_bytes)
after = {lpa: table.lookup(70 + lpa)[:2] for lpa in range(16)}
assert before == after
print("all lookups identical before/after compaction")
