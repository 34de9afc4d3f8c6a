"""Inside the log-structured mapping table.

Fresh segments land in level 0 of their 256-LPA group; overwrites mask
older segments and demote the survivors.  Approximate segments own runs in
the group's conflict-resolution buffer (CRB) so membership stays decidable.
Compaction merges levels without changing any lookup.
"""

from ftlsim.mapping import MappingTable
from ftlsim.plr import learn_segments


def insert(table, lpas, first_ppa, gamma):
    """Map one programmed block: lpas[i] went to PPA first_ppa + i."""
    table.insert_fitted(learn_segments(lpas, first_ppa, gamma))


table = MappingTable()

# Two overlapping generations of writes to group 0.
insert(table, [75, 78, 80, 82], 500, gamma=4)
insert(table, [72, 74, 80], 600, gamma=4)

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
insert(table, list(range(70, 86)), 700, gamma=4)
print("\nbytes before compaction:", table.total_bytes)
before = {lpa: table.lookup(70 + lpa)[:2] for lpa in range(16)}

# ...and compaction reclaims it without changing any answer.
table.compact()
print("bytes after compaction: ", table.total_bytes)
after = {lpa: table.lookup(70 + lpa)[:2] for lpa in range(16)}
assert before == after
print("all lookups identical before/after compaction")
