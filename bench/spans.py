"""In-memory span recorder that wraps calls into the layers of ``dta``.

A span is one wrapped call: its name (``layer.function``), start, end and the
span that was open when it began.  Spans are kept in flat arrays while the
traced round runs and written out once it ends.  Wrappers replace each name
where the calling module looks it up (for example ``dta.sim.apply_verb``, not
``dta.memstore.apply_verb``, because ``sim`` imported the function by name),
and ``Tracer.installed`` puts the originals back on exit.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from dta import (append, counters, experiments, flowctl, hashing, keywrite, postcarding,
                 sim, wire)

# (owner, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    (hashing.HashFamily, "raw64", "hashing.raw64"),
    (hashing.ValueCodec, "__init__", "hashing.codec_build"),
    (hashing.ValueCodec, "encode", "hashing.codec_encode"),
    (wire, "decode", "wire.decode"),
    (flowctl, "encode", "wire.encode"),
    (flowctl.TranslatorFlowState, "receive", "flowctl.receive"),
    (flowctl.ReporterState, "send", "flowctl.send"),
    (flowctl.ReporterState, "handle_nack", "flowctl.handle_nack"),
    (sim, "apply_verb", "memstore.apply_verb"),
    (experiments, "apply_verb", "memstore.apply_verb"),
    (keywrite, "kw_write", "keywrite.kw_write"),
    (experiments, "kw_write", "keywrite.kw_write"),
    (experiments, "kw_query", "keywrite.kw_query"),
    (postcarding, "pc_ingest", "postcarding.pc_ingest"),
    (postcarding, "pc_write", "postcarding.pc_write"),
    (experiments, "pc_write", "postcarding.pc_write"),
    (experiments, "pc_query", "postcarding.pc_query"),
    (append.AppendEngine, "ingest", "append.ingest"),
    (counters, "ki_increment", "counters.ki_increment"),
    (sim.Simulation, "run", "sim.run"),
    (experiments, "kw_monte_carlo", "experiments.kw_monte_carlo"),
    (experiments, "pc_monte_carlo", "experiments.pc_monte_carlo"),
)

LAYERS = ("hashing", "wire", "flowctl", "memstore", "keywrite", "postcarding", "append",
          "counters", "sim", "experiments")


class Tracer:
    """Records spans of wrapped calls; single-threaded, so spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Replace every target with a wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else sum(1 for n in self.name_id if n == nid)

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time minus the time its child spans cover."""
        child = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_name = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            per_name[nid] += self.end[i] - self.start[i] - child[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, seconds in enumerate(per_name):
            layer = self.names[nid].partition(".")[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        """Write all spans: one JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self),
                  "arrays": [["name_id", "l"], ["parent", "l"], ["start", "d"], ["end", "d"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read(path: Path) -> Tracer:
    """Load spans written by ``Tracer.write`` (on the machine that wrote them)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer = Tracer()
        tracer.names = header["names"]
        tracer._name_ids = {n: i for i, n in enumerate(tracer.names)}
        for attr, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            setattr(tracer, attr, arr)
    return tracer
