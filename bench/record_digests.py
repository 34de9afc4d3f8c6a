"""Record the reference digests of the result documents in digests.json.

    python3 bench/record_digests.py 0 31

Runs every workload once per FTL for each seed in the inclusive range and
stores the SHA-256 of `sim.to_json(doc)`.  Regenerate only with a change that
alters simulated behaviour on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    first, last = int(argv[0]), int(argv[1])
    reference = {}
    for name, workload in run.WORKLOADS.items():
        reference[name] = {}
        for seed in range(first, last + 1):
            runner, _ = run.setup(workload, seed, repeats=1)
            for kind in run.FTLS:
                if runner.run(kind) is None:
                    sys.exit(f"{name} seed {seed}: {runner.errors[-1]}")
            reference[name][str(seed)] = runner.digests
            print(name, seed, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
