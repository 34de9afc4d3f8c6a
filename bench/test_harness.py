"""Self-test of the benchmark harness at tiny trace sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""

import json

import pytest

import run
from ftlsim.ftl import FtlBase
from workloads import WORKLOADS

TINY = 3000


@pytest.fixture(scope="module")
def spec():
    with open(run.BENCH_DIR.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_harness(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_and_no_failures(name, trace, tmp_path):
    result, lines = run.run_benchmark(name, 3, 0.0, trace, ops=TINY, spans_dir=tmp_path)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY * len(run.FTLS) * (2 if trace else 1)
    assert sum(line.startswith("digest ") for line in lines) == len(run.FTLS)
    if trace:
        assert len(list(tmp_path.glob("*.npz"))) == len(run.FTLS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_digests_repeat_exactly(name):
    first, _ = run.setup(WORKLOADS[name], 5, TINY, repeats=1)
    second, _ = run.setup(WORKLOADS[name], 5, TINY, repeats=1)
    for kind in run.FTLS:
        for _ in range(2):
            assert first.run(kind) is not None
        assert second.run(kind) is not None
    assert first.failed == second.failed == 0
    assert first.digests == second.digests


def test_traced_runs_change_no_document():
    runner, _ = run.setup(WORKLOADS["churn-gc-crash"], 7, TINY, repeats=1)
    metrics, _ = run.measure_layers(runner, (0.0, 0.0), 0.0)
    assert runner.failed == 0
    assert metrics["leaftl.ftl.recover.calls"] == 1
    assert metrics["leaftl.ftl.run_gc.calls"] > 0


def test_corrupted_read_counts_as_failed(monkeypatch):
    runner, _ = run.setup(WORKLOADS["zipf-rw"], 3, TINY, repeats=1)
    original = FtlBase.read
    calls = {"n": 0}

    def corrupt(self, lpa):
        payload, latency = original(self, lpa)
        calls["n"] += 1
        if calls["n"] == 100:
            payload = -1
        return payload, latency

    monkeypatch.setattr(FtlBase, "read", corrupt)
    assert runner.run("dftl") is None
    monkeypatch.setattr(FtlBase, "read", original)
    assert runner.run("sftl") is not None
    assert runner.attempted == 2 * TINY
    assert runner.failed == TINY
    assert "OracleMismatch" in runner.errors[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_runs_still_give_every_metric(trace, monkeypatch, tmp_path):
    original = FtlBase.read

    def corrupt(self, lpa):
        payload, latency = original(self, lpa)
        return -1, latency

    monkeypatch.setattr(FtlBase, "read", corrupt)
    result, _ = run.run_benchmark(
        "seq-fill-read", 3, 0.0, trace, ops=TINY, spans_dir=tmp_path
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)


def test_digest_mismatch_is_reported():
    got = {"leaftl": "a", "dftl": "b", "sftl": "c"}
    reference = {"zipf-rw": {"9": {"leaftl": "a", "dftl": "x"}}}
    mismatches, lines = run.check_digests("zipf-rw", 9, got, reference)
    assert mismatches == 1
    assert [line.split()[-1] for line in lines] == ["ok", "MISMATCH", "unrecorded"]
