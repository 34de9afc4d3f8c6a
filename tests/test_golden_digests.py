"""Golden behaviour digests: for each benchmark workload, the result document
of every FTL must hash to the value recorded in bench/digests.json.

A refactor that changes no simulated behaviour keeps every digest; a change
that alters behaviour on purpose regenerates them with
bench/record_digests.py and says why in CHANGES.md.
"""

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ftlsim import sim

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (0, 1)
FTLS = ("leaftl", "dftl", "sftl")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCH / "digests.json").read_text())


@functools.lru_cache(maxsize=1)
def _built(name, seed):
    return WORKLOADS[name].build(seed, None)


@pytest.mark.parametrize("kind", FTLS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_document_digest_matches_reference(name, seed, kind):
    conf, events, run_kw = _built(name, seed)
    doc = sim.run(kind, conf, events, oracle=True, **run_kw)
    digest = hashlib.sha256(sim.to_json(doc).encode()).hexdigest()
    assert digest == REFERENCE[name][str(seed)][kind]
