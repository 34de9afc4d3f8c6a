"""Config tests: the device record's checks and derived counts, and the
parsing of key=value overrides."""

from dataclasses import fields

import pytest

from ftlsim.config import Config, ConfigError, build_config, parse_size


ONE_BLOCK = 8 * 4096  # one 8-page block of 4 KB pages


class TestDevice:
    def test_oob_must_hold_reverse_window(self):
        conf = Config(2, 4, 8, 4096, oob_size=4, gamma=16, buffer_bytes=ONE_BLOCK)
        with pytest.raises(ConfigError):
            conf.validate()
        conf2 = Config(2, 4, 8, 4096, oob_size=256, gamma=16, buffer_bytes=ONE_BLOCK)
        conf2.validate()  # (2*16+1)*4 = 132 <= 256

    @pytest.mark.parametrize("page_size", [1, 4, 7])
    def test_page_must_hold_one_map_entry(self, page_size):
        # dftl and sftl pack page_size // 8 map entries into a translation page
        with pytest.raises(ConfigError):
            Config(2, 4, 8, page_size, buffer_bytes=8 * page_size).validate()
        Config(2, 4, 8, 8, buffer_bytes=8 * 8).validate()

    def test_buffer_must_fit_the_logical_space(self):
        # 64 pages at op_ratio 0.2 leave 51 logical pages; the buffer counts
        # whole 8-page blocks, so 6 blocks (48 pages) fit and 7 (56) do not
        assert Config(2, 4, 8, 4096, buffer_bytes=7 * ONE_BLOCK - 1).validate()
        with pytest.raises(ConfigError, match="logical pages"):
            Config(2, 4, 8, 4096, buffer_bytes=7 * ONE_BLOCK).validate()
        with pytest.raises(ConfigError):
            Config(2, 4, 8, 4096).validate()  # the default 8 MB buffer

    def test_page_counts(self):
        conf = Config(2, 4, 8, 4096, 256, buffer_bytes=ONE_BLOCK)
        assert conf.total_blocks == 8
        assert conf.total_pages == 64


class TestOverrides:
    @pytest.mark.parametrize("field", fields(Config), ids=lambda f: f.name)
    def test_default_round_trips_as_text(self, field):
        # every field type has a parser, and it reads back what str() wrote
        conf = build_config(None, {field.name: str(field.default)})
        assert getattr(conf, field.name) == field.default

    @pytest.mark.parametrize(
        "word,want",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("NO", False), (" off ", False)],
    )
    def test_boolean_words(self, word, want):
        assert build_config(None, {"snapshot_on_gc": word}).snapshot_on_gc is want

    @pytest.mark.parametrize("word", ["ture", "", "2", "y"])
    def test_other_boolean_text_is_rejected(self, word):
        with pytest.raises(ConfigError):
            build_config(None, {"snapshot_on_gc": word})

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1"])
    @pytest.mark.parametrize("key", ["read_us", "write_us", "erase_us"])
    def test_latency_must_be_finite_and_non_negative(self, key, value):
        with pytest.raises(ConfigError):
            build_config(None, {key: value})

    @pytest.mark.parametrize("text", ["infk", "-infm", "nang", "1e400t"])
    def test_size_must_be_finite(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)
        with pytest.raises(ConfigError):
            build_config(None, {"dram_bytes": text})

    @pytest.mark.parametrize("text", ["-1", "-1k"])
    def test_dram_bytes_must_be_non_negative(self, text):
        with pytest.raises(ConfigError):
            build_config(None, {"dram_bytes": text})
        assert build_config(None, {"dram_bytes": "0"}).dram_bytes == 0
