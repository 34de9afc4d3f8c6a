"""Crash and recovery: the mapping is rebuilt from flash, not trusted DRAM.

A crash wipes the write buffer, the translation cache, and the resident
mapping.  Recovery restores the last snapshot and relearns only the blocks
programmed after it, using the reverse mappings kept in each page's OOB
area.  The simulator's oracle verifies every read afterwards.

Equivalent CLI:
    ftlsim run --ftl leaftl --synth zipf --count 30000 --crash-at 15000
"""

from ftlsim import sim
from ftlsim.config import Config
from ftlsim.workload import synth

conf = Config(
    channels=2,
    blocks_per_channel=256,
    pages_per_block=32,
    oob_size=256,
    gamma=8,
    buffer_bytes=32 * 4096,
    compaction_interval=4096,
    snapshot_interval=8192,
)

events = synth("zipf", 30000, 8192, seed=21, read_ratio=0.3)
doc = sim.run("leaftl", conf, events, crash_at=15000)

c = doc["counters"]
print("ops replayed:        ", doc["ops"])
print("crashes injected:    ", doc["crashes"])
print("snapshots taken:     ", c["snapshots"])
print("blocks relearned:    ", c["blocks_relearned"])
print("recovery flash reads:", c["recovery_reads"])
print()
print("every post-crash read matched the shadow map (oracle on),")
print("including a final scan of all live pages.")
