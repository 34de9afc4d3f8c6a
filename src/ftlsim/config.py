"""Simulation configuration: the one record of the simulated device (geometry,
latencies, gamma) and the FTL policies; key=value config files, size
suffixes."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    pass


ENTRY_BYTES = 8  # one page-level map entry, as dftl/sftl store it

_SUFFIX = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str) -> int:
    """Parse a byte count like '8M', '1G', '4096'."""
    s = str(text).strip().lower()
    if s and s[-1] in _SUFFIX:
        size = float(s[:-1]) * _SUFFIX[s[-1]]
        if not math.isfinite(size):
            raise ConfigError(f"size must be finite, got {text!r}")
        return int(size)
    return int(s)


@dataclass
class Config:
    # geometry (defaults model a 64 GB, 16-channel drive with 4 KB pages:
    # 2**24 pages, the most leaftl supports)
    channels: int = 16
    blocks_per_channel: int = 4096
    pages_per_block: int = 256
    page_size: int = 4096
    oob_size: int = 128
    # timing
    read_us: float = 20.0
    write_us: float = 200.0
    erase_us: float = 1500.0
    # translation
    gamma: int = 0
    op_ratio: float = 0.20  # overprovisioning fraction of physical capacity
    dram_bytes: int = 1024**3
    # sorted write buffer: flushes at this size rounded down to whole
    # blocks; not part of dram_bytes, and a crash loses all of it
    buffer_bytes: int = 8 * 1024**2
    # policies
    # pages programmed between compactions: host flushes plus GC and
    # wear-levelling relocations (recovery replay programs none)
    compaction_interval: int = 1_000_000
    snapshot_interval: int = 1_000_000  # host writes between snapshots
    snapshot_on_gc: bool = True
    gc_low: float = 0.15  # trigger GC below this free-block fraction
    gc_high: float = 0.25  # collect until free fraction reaches this
    wear_threshold: int = 0  # max-min erase count; 0 disables wear leveling

    # ints that also accept k/m/g/t suffixes
    _SIZE_FIELDS = {"page_size", "oob_size", "dram_bytes", "buffer_bytes"}

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        return int(self.total_pages * (1.0 - self.op_ratio))

    @property
    def buffer_pages(self) -> int:
        """Pages the write buffer holds before it flushes: whole blocks."""
        per = self.pages_per_block
        return self.buffer_bytes // (self.page_size * per) * per

    def validate(self) -> "Config":
        for field in ("channels", "blocks_per_channel", "pages_per_block"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive")
        if self.page_size < ENTRY_BYTES:
            raise ConfigError(
                f"page_size {self.page_size} cannot hold one "
                f"{ENTRY_BYTES}-byte map entry"
            )
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        need = 4 * (2 * self.gamma + 1)
        if self.oob_size < need:
            raise ConfigError(
                f"oob_size {self.oob_size} too small for gamma={self.gamma}: "
                f"need {need} bytes of reverse mappings"
            )
        if not 0.0 <= self.op_ratio < 0.9:
            raise ConfigError("op_ratio must be in [0, 0.9)")
        if self.dram_bytes < 0:
            raise ConfigError("dram_bytes must be >= 0")
        if self.buffer_bytes < self.pages_per_block * self.page_size:
            raise ConfigError("buffer_bytes smaller than one flash block")
        # a buffer that holds more pages than the logical space never fills,
        # so nothing would reach flash before a forced flush
        if self.buffer_pages > self.logical_pages:
            raise ConfigError(
                f"buffer_bytes holds {self.buffer_pages} pages, more than the "
                f"{self.logical_pages} logical pages"
            )
        if not 0.0 < self.gc_low < self.gc_high <= 1.0:
            raise ConfigError("need 0 < gc_low < gc_high <= 1")
        if self.wear_threshold < 0:
            raise ConfigError("wear_threshold must be >= 0")
        for us in (self.read_us, self.write_us, self.erase_us):
            if not (math.isfinite(us) and us >= 0):
                raise ConfigError("latencies must be finite and >= 0")
        return self

    def with_overrides(self, overrides: dict) -> "Config":
        return replace(self, **_coerce(overrides)).validate()


_BOOL_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _parse_bool(text) -> bool:
    """Parse 1/true/yes/on or 0/false/no/off, in any case."""
    word = str(text).strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return _BOOL_WORDS[word]


# field annotation (a string under `from __future__ import annotations`) -> parser
_PARSERS = {"int": int, "float": float, "bool": _parse_bool}


def _coerce(raw: dict) -> dict:
    types = {f.name: f.type for f in fields(Config)}
    out = {}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        parse = parse_size if key in Config._SIZE_FIELDS else _PARSERS[types[key]]
        out[key] = parse(value)
    return out


def load_config(path: str) -> dict:
    """Parse a flat key=value file (# comments, blank lines allowed)."""
    raw = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return raw


def build_config(path=None, overrides=None) -> Config:
    conf = Config()
    merged = load_config(path) if path else {}
    if overrides:
        merged.update(overrides)
    return conf.with_overrides(merged) if merged else conf.validate()
