"""Isolated per-call timings of each layer's public functions.

Inputs come from a fixed seed, not from the run's seed, so the figures are
comparable across runs and workloads.  Each timing is the median over
``REPEATS`` passes of the time per call within one pass, scaled to
reference speed (see ``refclock``).
"""

from __future__ import annotations

import random
import statistics
import time

from dta import append, counters, flowctl, keywrite, memstore, postcarding, wire
from dta.hashing import Domain, HashFamily, ValueCodec

from refclock import T_REF, reference_seconds, timed

SEED = 20220204
REPEATS = 5


def _per_call(fn, items, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn(item)`` over ``repeats`` passes."""
    return _per_call_fresh(lambda: (None, items), lambda _, item: fn(item), repeats)


def _per_call_fresh(make, run, repeats: int = REPEATS) -> float:
    """Like ``_per_call`` for stateful code: ``make()`` builds (state, items) each pass."""
    samples = []
    for _ in range(repeats):
        state, items = make()
        ref = reference_seconds()
        start = time.perf_counter()
        for item in items:
            run(state, item)
        samples.append((time.perf_counter() - start) / len(items) * T_REF / ref)
    return statistics.median(samples)


def _write(region: memstore.MemoryRegion, verbs: list) -> None:
    qp = memstore.QueuePair()
    for psn, verb in enumerate(verbs):
        memstore.apply_verb(region, qp, psn, verb)


def calibrate() -> dict[str, float]:
    rng = random.Random(SEED)
    family = HashFamily(SEED)
    keys = [rng.randrange(1 << 24).to_bytes(8, "big") for _ in range(10_000)]
    out: dict[str, float] = {}

    out["hashing.raw64_ns"] = 1e9 * _per_call(
        lambda k: family.raw64(Domain.KW_SLOT, 0, k), keys)

    codec, out["hashing.codec_build_s"] = timed(ValueCodec, family, 1 << 18, 32)

    # half append bodies, half key-increment bodies, stamped as a reporter would
    packets = []
    for i, key in enumerate(keys):
        body = (wire.AppendBody(i % 4, rng.randbytes(4)) if i % 2 else
                wire.KeyIncrementBody(2, key, rng.randint(0, 16)))
        packets.append(wire.DtaPacket(body, 0, i + 1, wire.make_flags(essential=True)))
    raws = [wire.encode(p) for p in packets]
    out["wire.encode_ns"] = 1e9 * _per_call(wire.encode, packets)
    out["wire.decode_ns"] = 1e9 * _per_call(wire.decode, raws)

    # in-order essential reports from one reporter: every one is processed
    out["flowctl.receive_ns"] = 1e9 * _per_call_fresh(
        lambda: (flowctl.TranslatorFlowState(), packets),
        lambda state, p: state.receive(p, 2))

    # alternating Write and FetchAdd, applied in PSN order
    verbs = [memstore.Write(8 * i, rng.randbytes(8)) if i % 2 else
             memstore.FetchAdd(8 * i, rng.randrange(1 << 16)) for i in range(len(keys))]

    def apply_all():
        region, qp = memstore.MemoryRegion(8 * len(verbs)), memstore.QueuePair()
        return (region, qp, iter(range(len(verbs)))), verbs

    out["memstore.apply_verb_ns"] = 1e9 * _per_call_fresh(
        apply_all, lambda s, v: memstore.apply_verb(s[0], s[1], next(s[2]), v))

    kw_store = keywrite.KwStore(memstore.MemoryRegion((1 << 16) * 8), 1 << 16, 32, 4,
                                family=family)
    writes = [(k, rng.randbytes(4)) for k in keys]
    out["keywrite.kw_write_us"] = 1e6 * _per_call(
        lambda kv: keywrite.kw_write(kw_store, kv[0], kv[1], 2), writes)
    for key, value in writes:
        _write(kw_store.region, keywrite.kw_write(kw_store, key, value, 2))
    out["keywrite.kw_query_us"] = 1e6 * _per_call(
        lambda k: keywrite.kw_query(kw_store, k, 2, 1, keywrite.QueryPolicy.SINGLE_VALUE),
        keys)

    hops = 5
    stride = postcarding._next_pow2(4 * hops)
    pc_store = postcarding.PostcardStore(memstore.MemoryRegion((1 << 14) * stride), 1 << 14,
                                         hops, 32, codec, family=family)
    chunks = [postcarding.EmittedChunk(i, tuple(rng.randrange(1 << 18) for _ in range(hops)),
                                       postcarding.EmissionReason.COMPLETE)
              for i in range(2_000)]
    out["postcarding.pc_write_us"] = 1e6 * _per_call(
        lambda c: postcarding.pc_write(pc_store, c, 2), chunks)
    for chunk in chunks:
        _write(pc_store.region, postcarding.pc_write(pc_store, chunk, 2))
    out["postcarding.pc_query_us"] = 1e6 * _per_call(
        lambda c: postcarding.pc_query(pc_store, c.flow_id, 2), chunks)

    entries = [(i % 4, rng.randbytes(4)) for i in range(len(keys))]

    def engine():
        eng = append.AppendEngine(4)
        for i in range(4):
            eng.add_list(append.AppendList(i, i * 4096 * 4, 4096, 4))
        return eng, entries

    out["append.ingest_ns"] = 1e9 * _per_call_fresh(
        engine, lambda eng, e: eng.ingest(e[0], e[1]))

    ki_store = counters.KiStore(memstore.MemoryRegion(4096 * counters.COUNTER_LEN), 4096,
                                family=family)
    out["counters.ki_increment_us"] = 1e6 * _per_call(
        lambda k: counters.ki_increment(ki_store, k, 3, 2), keys)
    return out
