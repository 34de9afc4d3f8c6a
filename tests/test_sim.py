"""Experiment runner tests: oracle checking, metrics shape, determinism,
crash injection, and the compare report."""

from unittest import mock

import pytest

from ftlsim import sim
from ftlsim.config import Config
from ftlsim.flash import ModelViolation
from ftlsim.workload import TraceEvent, synth
from record_golden_digests import FTLS, load_workloads

WORKLOADS = load_workloads()


def small_conf(**kw):
    defaults = dict(
        channels=2,
        blocks_per_channel=128,
        pages_per_block=32,
        page_size=4096,
        oob_size=256,
        gamma=8,
        dram_bytes=1 << 20,
        buffer_bytes=32 * 4096,
        compaction_interval=4096,
        snapshot_interval=10**9,
        snapshot_on_gc=False,
    )
    defaults.update(kw)
    return Config(**defaults)


class TestRun:
    def test_empty_trace(self):
        doc = sim.run("leaftl", small_conf(), [])
        assert doc["ops"] == 0
        assert doc["counters"]["waf"] == 0.0
        assert doc["read_latency_us"]["mean"] == 0.0

    def test_write_once_sequential_waf_is_one(self):
        events = synth("sequential", 2048, 2048)
        doc = sim.run("leaftl", small_conf(), events)
        assert doc["counters"]["waf"] == 1.0

    def test_oracle_passes_on_mixed_workload(self):
        events = synth("mixed", 30000, 3000, seed=5, read_ratio=0.4)
        for kind in ("leaftl", "dftl", "sftl"):
            doc = sim.run(kind, small_conf(), events, force_gc_every=10000)
            assert doc["ops"] == 30000

    def test_crash_injection_counts(self):
        events = synth("random", 20000, 3000, seed=6, read_ratio=0.2)
        doc = sim.run("leaftl", small_conf(), events, crash_at=10000)
        assert doc["crashes"] == 1
        assert doc["counters"]["blocks_relearned"] > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sim.run("nftl", small_conf(), [])

    def test_reads_of_unwritten_lpas_are_misses(self):
        events = [TraceEvent(0, "r", 5, 1)]
        doc = sim.run("dftl", small_conf(), events)
        assert doc["read_misses"] == 1

    def test_leaftl_sequential_memory_beats_dftl_by_50x(self):
        events = synth("sequential", 1 << 16, 1 << 16)
        # enough blocks that the logical space covers the whole trace, and
        # group-sized flushes so each group learns as a single segment
        conf = small_conf(
            gamma=0,
            blocks_per_channel=160,
            pages_per_block=256,
            buffer_bytes=256 * 4096,
        )
        lea = sim.run("leaftl", conf, events)["counters"]["mapping_bytes"]
        dftl = sim.run("dftl", conf, events)["counters"]["mapping_bytes"]
        assert lea < dftl / 50

    def test_metrics_ranges(self):
        events = synth("zipf", 20000, 4000, seed=2, read_ratio=0.5)
        doc = sim.run("leaftl", small_conf(gamma=16), events)
        c = doc["counters"]
        assert c["waf"] >= 1.0
        assert 0.0 <= c["misprediction_ratio"] <= 1.0
        assert 0.0 <= c["cache_hit_ratio"] <= 1.0
        assert c["extra_reads"] == c["mispredictions"]


class TestOracle:
    """The oracle's final scan peeks: it charges nothing, so it never
    changes the document, and it still fails a run whose flash or mapping
    is wrong."""

    @pytest.mark.parametrize("kind", FTLS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_document_is_the_same_without_the_oracle(self, name, kind):
        conf, events, kw = WORKLOADS[name].build(1, 6000)
        on = sim.run(kind, conf, events, oracle=True, **kw)
        off = sim.run(kind, conf, events, oracle=False, **kw)
        assert sim.to_json(on) == sim.to_json(off)

    @pytest.mark.parametrize("kind", FTLS)
    def test_document_is_the_same_without_the_oracle_across_a_crash(self, kind):
        events = synth("zipf", 12000, 3000, seed=4, read_ratio=0.4)
        kw = dict(crash_at=7000, force_gc_every=4000)
        on = sim.run(kind, small_conf(), events, oracle=True, **kw)
        off = sim.run(kind, small_conf(), events, oracle=False, **kw)
        assert on["crashes"] == 1
        assert sim.to_json(on) == sim.to_json(off)

    @staticmethod
    def _run_corrupted(kind, corrupt):
        """Fill 256 LPAs and read them all back, so the read cache holds
        them, then let corrupt(ftl) damage the device after the final
        flush, before the scan."""
        cls = sim.FTL_KINDS[kind]

        class Corrupted(cls):
            def _map_compact(self):
                super()._map_compact()
                # periodic compaction calls this too, but this trace is too
                # short for one: only sim.run's call after the final flush
                assert self.compactions == 0 and not self.buffer
                corrupt(self)

        fill = synth("sequential", 256, 256)
        back = [TraceEvent(e.timestamp_ns + 10**9, "r", e.lpa, 1) for e in fill]
        with mock.patch.dict(sim.FTL_KINDS, {kind: Corrupted}):
            sim.run(kind, small_conf(gamma=4), fill + back)

    @pytest.mark.parametrize("kind", FTLS)
    def test_a_flipped_payload_fails_the_scan(self, kind):
        def flip_a_cached_page(ftl):
            assert ftl.cache
            for _, blk in ftl.dev.programmed_blocks():
                for off, lpa in enumerate(blk.lpas):
                    if blk.valid[off] and lpa in ftl.cache:
                        blk.payloads[off] = -blk.payloads[off]
                        return
            raise AssertionError("no valid page of a cached lpa")

        with pytest.raises(sim.OracleMismatch, match="final scan"):
            self._run_corrupted(kind, flip_a_cached_page)

    def test_an_exact_mapping_to_another_lpa_violates_the_model(self):
        def swap(ftl):
            ftl.map[3] = ftl.map[4]

        with pytest.raises(ModelViolation, match="exact mapping for lpa 3"):
            self._run_corrupted("dftl", swap)

    def test_a_lost_mapping_fails_the_scan(self):
        def drop(ftl):
            del ftl.map[3]

        with pytest.raises(sim.OracleMismatch, match="reported missing"):
            self._run_corrupted("dftl", drop)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["leaftl", "dftl", "sftl"])
    def test_bit_identical_replay(self, kind):
        events = synth("zipf", 15000, 4000, seed=9, read_ratio=0.3)
        kw = dict(crash_at=8000, force_gc_every=5000)
        a = sim.to_json(sim.run(kind, small_conf(), events, **kw))
        b = sim.to_json(sim.run(kind, small_conf(), events, **kw))
        assert a == b


class TestCompare:
    def test_same_kind_twice_gives_unit_ratios(self):
        events = synth("random", 5000, 2000, seed=1)
        doc = sim.compare(["dftl", "dftl"], small_conf(), events)
        # second entry overwrites the first; ratios computed against itself
        assert doc["baseline"] == "dftl"

    def test_ratio_table(self):
        events = synth("sequential", 8192, 8192)
        conf = small_conf(
            gamma=0,
            blocks_per_channel=24,
            pages_per_block=256,
            buffer_bytes=256 * 4096,
        )
        doc = sim.compare(["dftl", "leaftl", "sftl"], conf, events)
        r = doc["ratios_vs_baseline"]
        assert r["leaftl"]["mapping_bytes"] < 1 / 50
        assert r["leaftl"]["waf"] == 1.0
        assert r["sftl"]["mapping_bytes"] < 1.0

    def test_gamma_widening_never_costs_memory(self):
        events = synth("mixed", 20000, 8192, seed=12)
        conf0 = small_conf(gamma=0)
        conf8 = small_conf(gamma=8)
        m0 = sim.run("leaftl", conf0, events)["counters"]["mapping_bytes"]
        m8 = sim.run("leaftl", conf8, events)["counters"]["mapping_bytes"]
        assert m8 <= m0


class TestSerialization:
    def test_json_is_sorted_and_newline_terminated(self):
        doc = sim.run("dftl", small_conf(), synth("sequential", 64, 64))
        text = sim.to_json(doc)
        assert text.endswith("\n")
        assert text.index('"counters"') < text.index('"ftl"')

    def test_csv_flattening(self):
        doc = {"a": {"b": 1}, "c": 2.5}
        assert sim.to_csv(doc) == "key,value\na.b,1\nc,2.5\n"
