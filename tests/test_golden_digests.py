"""Golden behaviour digests: for each benchmark workload, the result document
of every FTL must hash to the value recorded in tests/golden_digests.json.

A refactor that changes no simulated behaviour keeps every digest; a change
that alters behaviour on purpose regenerates them with
tests/record_golden_digests.py and says why in CHANGES.md.
"""

import functools
import json

import pytest

from record_golden_digests import FTLS, REFERENCE, digest, load_workloads

SEEDS = (0, 1)

WORKLOADS = load_workloads()
RECORDED = json.loads(REFERENCE.read_text())


@functools.lru_cache(maxsize=1)
def _built(name, seed):
    return WORKLOADS[name].build(seed, None)


@pytest.mark.parametrize("kind", FTLS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_document_digest_matches_reference(name, seed, kind):
    conf, events, run_kw = _built(name, seed)
    assert digest(kind, conf, events, run_kw) == RECORDED[name][str(seed)][kind]
