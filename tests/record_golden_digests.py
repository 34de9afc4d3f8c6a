"""Record the golden result-document digests in tests/golden_digests.json.

    PYTHONPATH=src python tests/record_golden_digests.py 0 31

Runs every benchmark workload (bench/workloads.py) once per FTL for each
seed in the inclusive range, with the oracle on, and stores the SHA-256 of
`sim.to_json(doc)`.  Before overwriting the file, it prints each
workload/seed/FTL key whose digest differs from the file's (or that the
file lacks), and how many stayed the same.  Regenerate only with a change
that alters simulated behaviour on purpose, and say in CHANGES.md which
keys moved and why.  tests/test_golden_digests.py checks seeds 0 and 1
against the file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from ftlsim import sim

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "golden_digests.json"
FTLS = ("leaftl", "dftl", "sftl")


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digest(kind, conf, events, run_kw) -> str:
    doc = sim.run(kind, conf, events, oracle=True, **run_kw)
    return hashlib.sha256(sim.to_json(doc).encode()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    first, last = int(argv[0]), int(argv[1])
    reference = {}
    for name, workload in load_workloads().items():
        reference[name] = {}
        for seed in range(first, last + 1):
            conf, events, run_kw = workload.build(seed, None)
            reference[name][str(seed)] = {
                kind: digest(kind, conf, events, run_kw) for kind in FTLS
            }
            print(name, seed, flush=True)
    previous = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    same = 0
    for name, seeds in reference.items():
        for seed, digests in seeds.items():
            for kind, value in digests.items():
                old = previous.get(name, {}).get(seed, {}).get(kind)
                if old == value:
                    same += 1
                else:
                    print("moved" if old else "new", name, seed, kind)
    print(same, "unchanged")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
