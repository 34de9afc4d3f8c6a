"""Outside-in layer tracing: wrap the calls into each ftlsim layer.

The wrappers are installed from the benchmark, around functions the program
already calls through a module or class attribute, so the program itself is
unchanged.  Each wrapped call records a span (name, start, end, parent span,
host op).  The host op id is taken from the top-level ``ftl.write`` or
``ftl.read`` that caused the span, so GC or flush time is charged to the
write that triggered it; spans outside any host op (``sim.run`` itself, the
forced GC, crash recovery and the end-of-run flush and compaction) carry
op -1.  A layer's self time is its span's
duration minus the time of its child spans.

``flash.read_page`` runs once per page moved by GC, so it is aggregated: its
calls and time are summed and charged to the enclosing span, but no span is
stored for it.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

import ftlsim.leaftl
import ftlsim.sim
from ftlsim.baselines import Dftl, Sftl, _TpageCachingFtl
from ftlsim.flash import FlashDevice
from ftlsim.ftl import FtlBase
from ftlsim.leaftl import LeaFtl
from ftlsim.mapping import MappingTable

_FTL_CLASSES = (FtlBase, _TpageCachingFtl, Dftl, Sftl, LeaFtl)

# FTL methods, wrapped in every class that defines them: snapshot/recover are
# overridden by LeaFtl and the _map_* hooks are defined per scheme.
_FTL_METHODS = {
    "write": "ftl.write",
    "read": "ftl.read",
    "flush_block": "ftl.flush_block",
    "run_gc": "ftl.run_gc",
    "wear_level": "ftl.wear_level",
    "snapshot": "ftl.snapshot",
    "recover": "ftl.recover",
    "_map_insert": "map.insert",
    "_map_lookup": "map.lookup",
    "_map_compact": "map.compact",
    "_touch_tpage": "baselines.touch_tpage",
}

# (owner, attribute, span name).  leaftl binds learn_segments and the group
# (de)serialisers by name, so they are patched in ftlsim.leaftl.
_OTHER = (
    (ftlsim.sim, "run", "sim.run"),
    (ftlsim.leaftl, "learn_segments", "plr.learn_segments"),
    (ftlsim.leaftl, "serialize_group", "mapping.serialize_group"),
    (ftlsim.leaftl, "deserialize_group", "mapping.deserialize_group"),
    (MappingTable, "insert_fitted", "mapping.insert_fitted"),
    (MappingTable, "lookup", "mapping.lookup"),
    (MappingTable, "compact", "mapping.compact"),
    (FlashDevice, "correct_misprediction", "flash.correct_misprediction"),
)

_AGGREGATED = ((FlashDevice, "read_page", "flash.read_page"),)

_HOST_OPS = ("ftl.write", "ftl.read")


class Tracer:
    """Context manager: wraps every layer on entry, restores on exit."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.self_s: list = []
        self.calls: list = []
        # one entry per stored span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # open spans: [span index, name id, child seconds, op id]
        self._stack: list = []
        self._next_op = 0
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def _span(self, fn, name):
        nid = self._name_id(name)
        host_op = name in _HOST_OPS
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == nid:
                # an override calling super(): one span, not two
                return fn(*args, **kwargs)
            op = parent[3] if parent is not None else -1
            if host_op and op == -1:
                op = tracer._next_op
                tracer._next_op += 1
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(parent[0] if parent is not None else -1)
            s_op.append(op)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, nid, 0.0, op]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[nid] += dur - frame[2]
                calls[nid] += 1
                s_start[idx] = start
                s_end[idx] = end
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def _aggregate(self, fn, name):
        nid = self._name_id(name)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self_s[nid] += dur
                calls[nid] += 1
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for attr, name in _FTL_METHODS.items():
            for cls in _FTL_CLASSES:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._span(cls.__dict__[attr], name))
        for owner, attr, name in _OTHER:
            self._patch(owner, attr, self._span(owner.__dict__[attr], name))
        for owner, attr, name in _AGGREGATED:
            self._patch(owner, attr, self._aggregate(owner.__dict__[attr], name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def totals(self) -> dict:
        """name -> (self seconds, calls) for every wrapped function."""
        return {n: (self.self_s[i], self.calls[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans as arrays: start/end in seconds on the host's
        perf_counter clock, parent and name as indices (-1: no parent)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
