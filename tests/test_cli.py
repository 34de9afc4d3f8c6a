"""Command line tests: subcommands, config precedence, exit codes."""

import json
import shlex
from pathlib import Path
from unittest import mock

import pytest

from ftlsim.cli import main
from ftlsim.flash import FlashDevice

SMALL = [
    "--set", "channels=2",
    "--set", "blocks_per_channel=128",
    "--set", "pages_per_block=32",
    "--set", "oob_size=256",
    "--set", "buffer_bytes=128k",
    "--set", "dram_bytes=1m",
    "--set", "snapshot_on_gc=false",
]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """The ftlsim commands of the README's CLI section, without `ftlsim`."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ftlsim ")]


def shrink(argv, count):
    """Cut --count to count, and scale --crash-at and --force-gc-every with it."""
    argv = list(argv)
    scale = count / int(argv[argv.index("--count") + 1])
    for flag in ("--count", "--crash-at", "--force-gc-every"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(max(1, round(int(argv[i]) * scale)))
    return argv


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


class TestReadmeExamples:
    EXAMPLES = readme_examples()

    def test_readme_has_four_examples(self):
        assert [argv[0] for argv in self.EXAMPLES] == [
            "run", "compare", "learn-stats", "run",
        ]

    @pytest.mark.parametrize("index", range(4))
    def test_example_runs_at_the_default_config(self, capsys, index):
        """Each README example at the default config (an 8-block write
        buffer) with a few thousand ops; run and compare keep the oracle
        on, so every read and the final scan are checked."""
        argv = shrink(self.EXAMPLES[index], 6000)
        assert "--no-oracle" not in argv
        rc, out = run_main(capsys, argv)
        assert rc == 0
        doc = json.loads(out)
        if argv[0] == "learn-stats":
            assert doc["segments"] > 0
            return
        for run_doc in doc.get("runs", {"": doc}).values():
            assert run_doc["counters"]["data_writes"] > 0


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
        # each with a one-block buffer, so only page_size can be at fault
        rc, _ = run_main(
            capsys, argv + ["--set", "page_size=4", "--set", "buffer_bytes=128"]
        )
        assert rc == 2
        rc, _ = run_main(
            capsys, argv + ["--set", "page_size=8", "--set", "buffer_bytes=256"]
        )
        assert rc == 0

    def test_buffer_larger_than_logical_space_exits_2(self, capsys):
        # the default 8 MB buffer is 2,048 pages; this device has 1,638
        # logical pages, so the buffer would never fill and a crash would
        # lose every write
        argv = ["run", "--ftl", "dftl", "--synth", "zipf", "--count", "2000",
                "--crash-at", "1500", "--set", "channels=1",
                "--set", "blocks_per_channel=64", "--set", "pages_per_block=32"]
        rc, _ = run_main(capsys, argv)
        assert rc == 2
        rc, out = run_main(capsys, argv + ["--set", "buffer_bytes=1m"])
        assert rc == 0 and json.loads(out)["counters"]["blocks_relearned"] > 0

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

    def test_model_violation_exits_3(self, capsys):
        """An OOB window that never holds the mispredicted LPA breaks the
        learned FTL's correction rule; the CLI reports it and exits 3."""
        with mock.patch.object(
            FlashDevice, "correct_misprediction", return_value=None
        ):
            rc = main(
                ["run", "--synth", "random", "--count", "3000",
                 "--pages", "4096", "--read-ratio", "0.5", "--gamma", "8"]
                + SMALL
            )
        assert rc == 3
        assert "model violation:" in capsys.readouterr().err
