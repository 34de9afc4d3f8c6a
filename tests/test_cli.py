"""Command line tests: subcommands, config precedence, exit codes."""

import json

import pytest

from ftlsim.cli import main

SMALL = [
    "--set", "channels=2",
    "--set", "blocks_per_channel=128",
    "--set", "pages_per_block=32",
    "--set", "oob_size=256",
    "--set", "buffer_bytes=128k",
    "--set", "dram_bytes=1m",
    "--set", "snapshot_on_gc=false",
]


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestRun:
    def test_run_emits_json_and_exits_zero(self, capsys):
        rc, out = run_main(
            capsys,
            ["run", "--ftl", "leaftl", "--synth", "sequential",
             "--count", "5000", "--pages", "8192"] + SMALL,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["counters"]["waf"] == 1.0
        assert doc["ftl"] == "leaftl"

    def test_gamma_flag(self, capsys):
        rc, out = run_main(
            capsys,
            ["run", "--synth", "zipf", "--count", "5000", "--pages", "4096",
             "--gamma", "16", "--read-ratio", "0.3"] + SMALL,
        )
        assert rc == 0
        assert json.loads(out)["gamma"] == 16

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        rc, _ = run_main(
            capsys,
            ["run", "--synth", "sequential", "--count", "2000",
             "--pages", "4096", "--csv", str(csv_path)] + SMALL,
        )
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("counters.waf,") for line in lines)

    def test_warmup_writes(self, capsys):
        rc, out = run_main(
            capsys,
            ["run", "--synth", "random", "--count", "1000", "--pages", "4096",
             "--warmup-writes", "4096"] + SMALL,
        )
        assert rc == 0
        assert json.loads(out)["writes"] == 1000 + 4096

    def test_crash_at_recovers_under_the_oracle(self, capsys):
        rc, out = run_main(
            capsys,
            ["run", "--crash-at", "6000", "--synth", "mixed",
             "--count", "10000", "--pages", "4096", "--gamma", "8"] + SMALL,
        )
        assert rc == 0
        assert json.loads(out)["crashes"] == 1


class TestCompare:
    def test_ratio_table(self, capsys):
        rc, out = run_main(
            capsys,
            ["compare", "--ftl", "dftl,leaftl", "--synth", "sequential",
             "--count", "8192", "--pages", "8192"] + SMALL,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["baseline"] == "dftl"
        assert doc["ratios_vs_baseline"]["leaftl"]["mapping_bytes"] < 1.0


class TestLearnStats:
    def test_distributions(self, capsys):
        rc, out = run_main(
            capsys,
            ["learn-stats", "--synth", "strided", "--count", "8000",
             "--pages", "65536", "--gamma", "4"] + SMALL,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["segments"] == doc["accurate"] + doc["approximate"]
        assert doc["segments"] > 0

    @pytest.mark.parametrize("count,segments", [(100, 1), (300, 2)])
    def test_trailing_partial_batch_is_fitted(self, capsys, count, segments):
        """The default 256-page block: a run's end-of-run forced flush
        programs the last partial batch, so the learner fits it too."""
        rc, out = run_main(
            capsys, ["learn-stats", "--synth", "sequential", "--count", str(count)]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["segments"] == doc["accurate"] == segments

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        rc, _ = run_main(
            capsys,
            ["learn-stats", "--synth", "sequential", "--count", "2000",
             "--pages", "4096", "--csv", str(csv_path)] + SMALL,
        )
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("segments,") for line in lines)


class TestConfigHandling:
    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "ftl.conf"
        cfg.write_text(
            "channels = 2\nblocks_per_channel = 128\npages_per_block = 32\n"
            "oob_size = 256\nbuffer_bytes = 128k\ngamma = 4\n"
        )
        rc, out = run_main(
            capsys,
            ["run", "--config", str(cfg), "--synth", "sequential",
             "--count", "1000", "--pages", "4096", "--gamma", "8"],
        )
        assert rc == 0
        assert json.loads(out)["gamma"] == 8  # flag wins over file

    def test_bad_config_key_exits_2(self, capsys):
        rc, _ = run_main(
            capsys, ["run", "--synth", "sequential", "--set", "bogus=1"]
        )
        assert rc == 2

    def test_missing_trace_file_exits_2(self, capsys):
        rc, _ = run_main(capsys, ["run", "--trace", "/nonexistent.csv"])
        assert rc == 2

    def test_no_source_exits_2(self, capsys):
        rc, _ = run_main(capsys, ["run"] + SMALL)
        assert rc == 2

    def test_invalid_geometry_exits_2(self, capsys):
        rc, _ = run_main(
            capsys,
            ["run", "--synth", "sequential", "--count", "10",
             "--set", "oob_size=4", "--gamma", "16"],
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "setting",
        ["snapshot_on_gc=ture", "write_us=inf", "read_us=nan",
         "dram_bytes=infk", "dram_bytes=-1k", "wear_threshold=-1"],
    )
    def test_bad_value_exits_2(self, capsys, setting):
        rc, _ = run_main(
            capsys,
            ["run", "--synth", "sequential", "--count", "10"]
            + SMALL + ["--set", setting],
        )
        assert rc == 2

    def test_infinite_pages_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--synth", "sequential", "--pages", "infk"] + SMALL)
        assert exc.value.code == 2

    @pytest.mark.parametrize("pages", ["-4", "0"])
    def test_pages_below_one_exits_2(self, capsys, pages):
        rc, _ = run_main(
            capsys,
            ["run", "--synth", "zipf", "--count", "200", "--pages", pages] + SMALL,
        )
        assert rc == 2

    @pytest.mark.parametrize("kind", ["dftl", "sftl"])
    def test_page_below_one_map_entry_exits_2(self, capsys, kind):
        argv = ["run", "--ftl", kind, "--synth", "mixed", "--count", "2000",
                "--set", "channels=2", "--set", "blocks_per_channel=16",
                "--set", "pages_per_block=32"]
        rc, _ = run_main(capsys, argv + ["--set", "page_size=4"])
        assert rc == 2
        rc, _ = run_main(capsys, argv + ["--set", "page_size=8"])
        assert rc == 0

    @pytest.mark.parametrize(
        "flag,bad,edge",
        [
            ("--crash-at", ["0", "-1"], "1"),
            ("--force-gc-every", ["0", "-500"], "1"),
            ("--warmup-writes", ["-3"], "0"),
            ("--read-ratio", ["2", "-1", "nan"], "1"),
            ("--theta", ["nan", "inf", "-inf"], "0"),
            ("--stride", ["0", "-2"], "1"),
            ("--count", ["-5"], "0"),
        ],
    )
    def test_flag_out_of_range_exits_2(self, capsys, flag, bad, edge):
        argv = ["run", "--ftl", "dftl", "--synth", "zipf", "--count", "200"] + SMALL
        for value in bad:
            rc, _ = run_main(capsys, argv + [f"{flag}={value}"])
            assert rc == 2, value
        rc, _ = run_main(capsys, argv + [f"{flag}={edge}"])
        assert rc == 0

    def test_leaftl_beyond_2_24_pages_exits_2(self, capsys):
        big = ["--set", "blocks_per_channel=65537", "--set", "pages_per_block=256",
               "--set", "buffer_bytes=1m", "--set", "oob_size=512"]
        argv = ["run", "--synth", "random", "--count", "512", "--pages", "4096"]
        rc, _ = run_main(capsys, argv + SMALL + big + ["--ftl", "leaftl"])
        assert rc == 2
        rc, _ = run_main(capsys, argv + SMALL + big + ["--ftl", "dftl"])
        assert rc == 0

    def test_default_device_runs_leaftl(self, capsys):
        rc, out = run_main(
            capsys,
            ["run", "--synth", "random", "--count", "3000", "--read-ratio", "0.5"],
        )
        assert rc == 0
        assert json.loads(out)["ftl"] == "leaftl"

    def test_capacity_fault_exits_4(self, capsys):
        rc, _ = run_main(
            capsys,
            ["run", "--synth", "sequential", "--count", "5000",
             "--pages", "5000",
             "--set", "channels=1", "--set", "blocks_per_channel=4",
             "--set", "pages_per_block=32", "--set", "oob_size=256",
             "--set", "buffer_bytes=128k", "--set", "gc_low=0.01",
             "--set", "gc_high=0.02"],
        )
        assert rc == 4
