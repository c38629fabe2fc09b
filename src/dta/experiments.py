"""Named experiment suites: Monte-Carlo accuracy runs, oracles, and sweeps.

Each suite produces CSV rows (plus a metadata header) for one figure-style
experiment: key-value redundancy/longevity sweeps, postcard cache pressure
and accuracy, append batching verification, keyed-counter accuracy, and
loss-recovery runs.  A suite's CSV columns are its row keys, in the order the
suite builds them.  Rows carry the matching closed-form bound wherever one
is defined so a plot or test can compare measurement against model directly.

The Key-Write and Postcarding Monte-Carlo runs share one engine, ``exact_age``,
which gives every query an exact write-distance: after a warm-up of K distinct
keys, each step writes one new key and queries the key written exactly K steps
earlier.  Only writes that happened after a key can disturb it, so each query
is a clean sample of the age-K outcome and one pass yields tens of thousands of
them.  ``tally`` sorts answers into correct, empty, ambiguous and wrong
(``McStats``), for ``exact_age`` and for the age sweeps of ``kw_measure_ages``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, TextIO

from . import analysis, sim
from .append import AppendEngine, AppendList, PollCursor, append_poll
from .counters import KiStore, ki_increment, ki_query
from .hashing import ALGORITHM_ID, Domain, HashFamily, value_codec
from .keywrite import KwStore, QueryOutcome, QueryPolicy, kw_query, kw_write
# apply_verb is not called here: bench/spans.py wraps this name in this module
from .memstore import MemoryRegion, apply_verb  # noqa: F401
from .postcarding import (
    EmissionReason,
    EmittedChunk,
    PathOutcome,
    PostcardCache,
    PostcardStore,
    pc_ingest,
    pc_query,
    pc_write,
    _next_pow2,
)


class UnknownSuite(KeyError):
    pass


@dataclass(frozen=True)
class SuiteResult:
    name: str
    params: dict
    seed: int
    rows: list

    @property
    def fieldnames(self) -> tuple:
        """The CSV columns: the keys of the first row, in order."""
        return tuple(self.rows[0])

    @property
    def config_hash(self) -> str:
        blob = json.dumps({"suite": self.name, "params": self.params}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_csv(fh: TextIO, result: SuiteResult) -> None:
    """RFC-4180-style CSV with reproducibility metadata as # comments."""
    fh.write(f"# suite={result.name}\n")
    fh.write(f"# config_hash={result.config_hash}\n")
    fh.write(f"# seed={result.seed}\n")
    fh.write(f"# algorithm={ALGORITHM_ID}\n")
    writer = csv.DictWriter(fh, fieldnames=result.fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)


def read_csv(fh: TextIO) -> tuple[dict, list[dict]]:
    """Parse a suite CSV back: (# metadata, data rows)."""
    meta = {}
    body = []
    for line in fh:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    reader = csv.DictReader(body)
    if not reader.fieldnames:
        raise ValueError("no header row found")
    rows = []
    for row in reader:
        if None in row or None in row.values():
            raise ValueError(f"row does not match header {reader.fieldnames}: {row}")
        rows.append(row)
    return meta, rows


# ---------------------------------------------------------------------------
# The exact-age Monte-Carlo engine


@dataclass(frozen=True)
class McStats:
    """Query outcomes of one Monte-Carlo measurement, one count per class."""

    trials: int
    correct: int
    empty: int
    ambiguous: int
    wrong: int

    @property
    def success_rate(self) -> float:
        return self.correct / self.trials

    @property
    def empty_rate(self) -> float:
        return self.empty / self.trials

    @property
    def ambiguous_rate(self) -> float:
        return self.ambiguous / self.trials

    @property
    def no_output_rate(self) -> float:
        """The model's empty-return event: no usable answer produced."""
        return (self.empty + self.ambiguous) / self.trials

    fail_rate = no_output_rate

    @property
    def wrong_rate(self) -> float:
        return self.wrong / self.trials


KwMcStats = PcMcStats = McStats  # per-engine names that bench/ builds and annotates

_EMPTY = (QueryOutcome.EMPTY, PathOutcome.EMPTY)
_AMBIGUOUS = (QueryOutcome.AMBIGUOUS, PathOutcome.AMBIGUOUS)


def tally(indexes: Iterable[int], query: Callable, expected: Callable) -> McStats:
    """Query every index and classify the answers.

    ``query(i)`` returns ``(outcome, answer)`` with a Key-Write or a
    Postcarding outcome; an answer is correct when it equals ``expected(i)``.
    """
    trials = correct = empty = ambiguous = 0
    for i in indexes:
        trials += 1
        outcome, answer = query(i)
        if outcome in _EMPTY:
            empty += 1
        elif outcome in _AMBIGUOUS:
            ambiguous += 1
        elif answer == expected(i):
            correct += 1
    return McStats(trials, correct, empty, ambiguous, trials - correct - empty - ambiguous)


def exact_age(write: Callable, query: Callable, expected: Callable, age: int,
              queries: int) -> McStats:
    """Tally ``queries`` keys, each queried exactly ``age`` writes after its own."""
    for i in range(age):
        write(i)

    def written():
        for t in range(age, age + queries):
            write(t)
            yield t - age

    return tally(written(), query, expected)


# ---------------------------------------------------------------------------
# Key-value store Monte-Carlo


def stream_key(seed: int, index: int) -> bytes:
    """Deterministic distinct key for position ``index`` of a write stream."""
    return struct.pack("<QQ", seed, index)


_stream_states: dict[int, hashlib.blake2b] = {}  # value_len -> keyed state before any data


def stream_value(key: bytes, value_len: int) -> bytes:
    """Deterministic per-key value, recomputable at query time."""
    state = _stream_states.get(value_len)
    if state is None:
        state = _stream_states[value_len] = hashlib.blake2b(
            digest_size=value_len, key=b"kw-stream-value")
    h = state.copy()
    h.update(key)
    return h.digest()


def _kw_store(buflen: int, checksum_bits: int, value_len: int, seed: int) -> KwStore:
    region = MemoryRegion(buflen * ((checksum_bits + 7) // 8 + value_len))
    return KwStore(region, buflen, checksum_bits, value_len, family=HashFamily(seed))


def _kw_writer(store: KwStore, redundancy: int, seed: int) -> Callable[[int], None]:
    """Writes the key at a stream position, through one collector."""
    collector = sim.Collector(store.region)

    def write(i: int) -> None:
        key = stream_key(seed, i)
        collector.apply(kw_write(store, key, stream_value(key, store.value_len), redundancy))

    return write


def _kw_probes(store: KwStore, redundancy: int, seed: int, threshold: int,
               policy: QueryPolicy) -> tuple[Callable, Callable]:
    """``query`` and ``expected`` of ``tally`` for the key at a stream position."""

    def query(i: int) -> tuple:
        res = kw_query(store, stream_key(seed, i), redundancy, threshold, policy)
        return res.outcome, res.value

    def expected(i: int) -> bytes:
        return stream_value(stream_key(seed, i), store.value_len)

    return query, expected


def kw_monte_carlo(
    buflen: int,
    checksum_bits: int,
    value_len: int,
    redundancy: int,
    alpha: float,
    queries: int,
    seed: int,
    policy: QueryPolicy = QueryPolicy.SINGLE_VALUE,
    threshold: int = 1,
) -> McStats:
    """Empirical query outcomes at exact write-distance alpha*buflen."""
    store = _kw_store(buflen, checksum_bits, value_len, seed)
    return exact_age(_kw_writer(store, redundancy, seed),
                     *_kw_probes(store, redundancy, seed, threshold, policy),
                     round(alpha * buflen), queries)


def kw_write_stream(store: KwStore, n_redundancy: int, n_keys: int, seed: int) -> None:
    """Write the deterministic key stream 0..n_keys-1 through verbs."""
    write = _kw_writer(store, n_redundancy, seed)
    for i in range(n_keys):
        write(i)


def kw_measure_ages(
    store: KwStore,
    n_redundancy: int,
    n_keys: int,
    ages: list[int],
    window: int = 1,
    seed: int = 0,
) -> list[McStats]:
    """Plurality-vote query outcomes per age bucket after ``kw_write_stream``.

    Of the ``n_keys`` keys written, the one at stream position i has
    write-distance n_keys-1-i; each bucket tallies the keys with distance in
    [age, age+window), clamped to the stream.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if ages and max(ages) >= n_keys:
        raise ValueError(f"max age {max(ages)} needs more than {n_keys} keys")
    query, expected = _kw_probes(store, n_redundancy, seed, 1, QueryPolicy.PLURALITY)
    return [tally(range(n_keys - min(age + window, n_keys), n_keys - age), query, expected)
            for age in ages]


def _rates(stats: McStats) -> dict:
    """The four outcome rates of a Key-Write measurement, plus its trial count."""
    return {
        "success_rate": round(stats.success_rate, 6),
        "empty_rate": round(stats.empty_rate, 6),
        "wrong_rate": round(stats.wrong_rate, 6),
        "ambiguous_rate": round(stats.ambiguous_rate, 6),
        "trials": stats.trials,
    }


# kw-redundancy's bracket columns, each with its ``analysis.bounds`` key
_KW_BRACKET = (("bound_no_output_lo", "no_output_lo"), ("bound_no_output_hi", "no_output_hi"),
               ("bound_wrong_lo", "wrong_output_lo"), ("bound_wrong_hi", "wrong_output_hi"))
_BOUND_COLUMNS = ("no_output", "no_output_lo", "no_output_hi", "wrong_output")


def _suite_kw_redundancy(params: dict, seed: int) -> list[dict]:
    policy = QueryPolicy(params["policy"])
    rows = []
    for alpha in params["alphas"]:
        for n in params["redundancies"]:
            for b in params["checksum_bits"]:
                stats = kw_monte_carlo(
                    params["buflen"], b, params["value_len"], n, alpha,
                    params["queries"], seed + n, policy=policy,
                )
                row = {"load_factor": alpha, "N": n, "b": b, "policy": policy.value,
                       **_rates(stats)}
                bounds = analysis.bounds(analysis.KwModel(n, b, alpha))
                row.update({column: f"{bounds[key]:.6g}" for column, key in _KW_BRACKET})
                rows.append(row)
    return rows


def _suite_kw_longevity(params: dict, seed: int) -> list[dict]:
    store = _kw_store(params["buflen"], params["checksum_bits"], params["value_len"], seed)
    kw_write_stream(store, params["redundancy"], params["n_keys"], seed)
    buckets = kw_measure_ages(store, params["redundancy"], params["n_keys"], params["ages"],
                              window=params["window"], seed=seed)
    return [{
        "age": age, "window": bucket.trials,
        "N": params["redundancy"], "b": params["checksum_bits"], **_rates(bucket),
    } for age, bucket in zip(params["ages"], buckets)]


# ---------------------------------------------------------------------------
# Postcarding


_WORKLOAD = int(Domain.WORKLOAD)  # a plain int: an enum member costs a lookup per call


def pc_stream_values(family: HashFamily, flow_id: int, hops: int,
                     universe: int) -> list[int]:
    """Deterministic per-flow hop values, recomputable at query time."""
    data, raw64 = flow_id.to_bytes(8, "big"), family.raw64
    return [raw64(_WORKLOAD, hop, data) % universe for hop in range(hops)]


def pc_monte_carlo(
    chunks: int,
    hops: int,
    cell_bits: int,
    value_bits: int,
    redundancy: int,
    alpha: float,
    queries: int,
    seed: int,
) -> McStats:
    """Empirical chunk-query outcomes at exact report-distance alpha*chunks.

    Values whose encodings collide in the decode table are indistinguishable
    once stored, so correctness is judged against the canonical decode of the
    written values; ``wrong`` counts only the modeled misdecode event.
    """
    family = HashFamily(seed)
    universe = 2 ** value_bits
    codec = value_codec(seed, universe, cell_bits)
    stride = _next_pow2((cell_bits + 7) // 8 * hops)
    store = PostcardStore(MemoryRegion(chunks * stride), chunks, hops, cell_bits,
                          codec, family=family)
    collector = sim.Collector(store.region)

    def write(flow_id: int) -> None:
        cells = tuple(pc_stream_values(family, flow_id, hops, universe))
        chunk = EmittedChunk(flow_id, cells, EmissionReason.COMPLETE)
        collector.apply(pc_write(store, chunk, redundancy))

    def query(flow: int) -> tuple:
        res = pc_query(store, flow, redundancy)
        return res.outcome, res.values

    def canonical(flow: int) -> tuple:
        return tuple(codec.decode(codec.encode(v))
                     for v in pc_stream_values(family, flow, hops, universe))

    return exact_age(write, query, canonical, round(alpha * chunks), queries)


def _suite_postcarding_accuracy(params: dict, seed: int) -> list[dict]:
    rows = []
    for alpha in params["alphas"]:
        stats = pc_monte_carlo(
            params["chunks"], params["hops"], params["cell_bits"],
            params["value_bits"], params["redundancy"], alpha,
            params["queries"], seed,
        )
        bounds = analysis.bounds(analysis.PcModel(params["redundancy"], params["cell_bits"],
                                                  alpha, params["hops"], params["value_bits"]))
        rows.append({
            "alpha": alpha, "N": params["redundancy"], "b": params["cell_bits"],
            "B": params["hops"], "V_bits": params["value_bits"],
            "fail_rate": round(stats.fail_rate, 6),
            "wrong_rate": round(stats.wrong_rate, 6),
            "bound_fail": f"{bounds['no_output']:.6g}",
            "bound_wrong": f"{bounds['wrong_output']:.6g}",
            "trials": stats.trials,
        })
    return rows


def pc_cache_pressure(cache_slots: int, concurrent_flows: int, hops: int,
                      rounds: int, seed: int) -> tuple[float, float]:
    """Interleave ``concurrent_flows`` paths through the cache, round-robin.

    Returns (complete_emission_rate, early_emission_rate) over all emitted
    chunks, counting paths still stuck in the cache at the end as early.
    """
    family = HashFamily(seed)
    cache = PostcardCache(cache_slots, hops, family)
    for r in range(rounds):
        for hop in range(hops):
            for f in range(concurrent_flows):
                pc_ingest(cache, (r * concurrent_flows) + f, hop, 0, hops)
    cache.flush_all()
    total = cache.complete_emissions + cache.early_emissions
    if total == 0:
        return 0.0, 0.0
    return cache.complete_emissions / total, cache.early_emissions / total


def _suite_postcarding_cache(params: dict, seed: int) -> list[dict]:
    rows = []
    for slots in params["cache_slots"]:
        for flows in params["concurrent_flows"]:
            complete, early = pc_cache_pressure(slots, flows, params["hops"],
                                                params["rounds"], seed)
            rows.append({
                "cache_slots": slots, "concurrent_flows": flows,
                "complete_emission_rate": round(complete, 6),
                "early_emission_rate": round(early, 6),
            })
    return rows


# ---------------------------------------------------------------------------
# Append


def append_reference_run(batch_size: int, entry_len: int, lists: int, capacity: int,
                         sequence: Iterable[tuple[int, bytes]]) -> tuple[bytes, dict]:
    """Run one ingest sequence at the given batch size and flush everything.

    Returns the final region bytes and, per list, everything a poll drains
    (entries plus the overrun skip count).
    """
    region = MemoryRegion(lists * capacity * entry_len)
    engine = AppendEngine(batch_size)
    collector = sim.Collector(region)
    for i in range(lists):
        engine.add_list(AppendList(i, i * capacity * entry_len, capacity, entry_len))
    for list_id, entry in sequence:
        collector.apply(engine.ingest(list_id, entry))
    for i in range(lists):
        collector.apply(engine.flush(i))
    polled = {}
    for i in range(lists):
        cursor = PollCursor(i)
        entries, skipped = append_poll(region, engine.lists[i], cursor, 10 ** 9)
        polled[i] = (entries, skipped)
    return region.snapshot(), polled


def _suite_append_bench(params: dict, seed: int) -> list[dict]:
    rng = random.Random(f"{seed}:append-bench")
    rows = []
    for case in range(params["cases"]):
        batch_size = rng.choice(params["batch_sizes"])
        entry_len = rng.choice(params["entry_lens"])
        lists = rng.randint(1, params["max_lists"])
        capacity = batch_size * rng.randint(2, 8)
        count = rng.randint(1, 4 * lists * capacity)
        sequence = [(rng.randrange(lists), rng.randbytes(entry_len)) for _ in range(count)]
        memory, polled = append_reference_run(batch_size, entry_len, lists, capacity, sequence)
        oracle_memory, oracle_polled = append_reference_run(1, entry_len, lists, capacity,
                                                            sequence)
        ok = memory == oracle_memory and polled == oracle_polled
        rows.append({
            "case": case, "batch_size": batch_size, "entry_len": entry_len,
            "lists": lists, "capacity": capacity, "entries_ingested": count,
            "verify_ok": ok,
        })
    return rows


# ---------------------------------------------------------------------------
# Key-Increment


def ki_accuracy_run(buflen: int, redundancy: int, stream_len: int, key_space: int,
                    max_delta: int, seed: int) -> dict:
    """Randomized increment stream checked against an exact per-key map."""
    rng = random.Random(f"{seed}:ki")
    family = HashFamily(seed)
    region = MemoryRegion(buflen * 8)
    store = KiStore(region, buflen, family=family)
    collector = sim.Collector(region)
    exact: dict[bytes, int] = {}
    total = 0
    for _ in range(stream_len):
        key = rng.randrange(key_space).to_bytes(8, "big")
        delta = rng.randint(0, max_delta)
        exact[key] = exact.get(key, 0) + delta
        total += delta
        collector.apply(ki_increment(store, key, delta, redundancy))

    violations = 0
    overestimates = []
    e = 2.718281828459045
    threshold = e * redundancy * total / buflen
    over_threshold = 0
    for key, true_count in exact.items():
        estimate = ki_query(store, key, redundancy)
        if estimate < true_count:
            violations += 1
        overestimates.append(estimate - true_count)
        if estimate - true_count > threshold:
            over_threshold += 1
    return {
        "buflen": buflen, "N": redundancy, "stream_len": stream_len,
        "distinct_keys": len(exact),
        "mean_overestimate": sum(overestimates) / len(overestimates),
        "max_overestimate": max(overestimates),
        "violation_count": violations,
        "cm_threshold": threshold,
        "cm_exceed_fraction": over_threshold / len(exact),
        "cm_exceed_limit": e ** -redundancy,
    }


def _suite_ki_accuracy(params: dict, seed: int) -> list[dict]:
    rows = []
    for n in params["redundancies"]:
        stats = ki_accuracy_run(params["buflen"], n, params["stream_len"],
                                params["key_space"], params["max_delta"], seed)
        stats["mean_overestimate"] = round(stats["mean_overestimate"], 4)
        stats["cm_threshold"] = round(stats["cm_threshold"], 4)
        stats["cm_exceed_fraction"] = round(stats["cm_exceed_fraction"], 6)
        stats["cm_exceed_limit"] = round(stats["cm_exceed_limit"], 6)
        rows.append(stats)
    return rows


# ---------------------------------------------------------------------------
# Flow control


def _suite_flowctl_loss(params: dict, seed: int) -> list[dict]:
    rows = []
    for loss in params["loss_rates"]:
        topology = sim.Topology(
            reporters=params["reporters"],
            link=sim.LinkConfig(loss_to_translator=loss, loss_to_reporter=loss),
            backlog_capacity=params["backlog_capacity"],
        )
        workload = sim.Workload(
            kind=sim.WorkloadKind.APPEND_EVENTS,
            reports=params["reports"],
            essential=True,
            reports_per_step=params["reports_per_step"],
        )
        report = sim.run(topology, workload, seed)
        rows.append({
            "loss_rate": loss,
            "reports": report.reports_offered,
            "retransmissions": report.retransmissions,
            "unrecoverable": report.unrecoverable,
            "duplicates_suppressed": report.duplicates_suppressed,
            "nacks": report.nacks_sent,
            "qp_desyncs": report.qp_desyncs,
            "exactly_once_ok": report.exactly_once_ok,
        })
    return rows


# ---------------------------------------------------------------------------
# Bounds table


def _suite_bounds(params: dict, seed: int) -> list[dict]:
    rows = []
    for alpha in params["alphas"]:
        models = [("kw", analysis.KwModel(n, b, alpha), "", "")
                  for n in params["redundancies"] for b in params["checksum_bits"]]
        models += [("postcarding", analysis.PcModel(n, params["pc_cell_bits"], alpha,
                                                    params["pc_hops"], params["pc_value_bits"]),
                    params["pc_hops"], params["pc_value_bits"])
                   for n in params["redundancies"]]
        for name, model, hops, value_bits in models:
            bounds = analysis.bounds(model)
            rows.append({"model": name, "N": model.redundancy, "b": model.checksum_bits,
                         "alpha": alpha, "B": hops, "V_bits": value_bits,
                         **{key: f"{bounds[key]:.6g}" for key in _BOUND_COLUMNS}})
    return rows


# ---------------------------------------------------------------------------
# Registry

_SUITES: dict[str, tuple[dict, Callable[[dict, int], list[dict]]]] = {
    "kw-redundancy": (
        {
            "buflen": 65536, "checksum_bits": [32], "value_len": 4,
            "redundancies": [1, 2, 3, 4], "alphas": [0.1, 0.3, 1.0, 3.0],
            "queries": 20000, "policy": "plurality",
        },
        _suite_kw_redundancy,
    ),
    "kw-longevity": (
        {
            # slot count scaled down from the reference geometry (24B slots,
            # 3 GiB, 10M-report age point) preserving the load factor
            "buflen": 1 << 20, "checksum_bits": 32, "value_len": 20,
            "redundancy": 2, "n_keys": 390625,
            "ages": [0, 4883, 19531, 78125, 195312, 390624],
            "window": 4883,
        },
        _suite_kw_longevity,
    ),
    "postcarding-cache": (
        {
            "cache_slots": [64, 256, 1024], "concurrent_flows": [16, 64, 256, 1024],
            "hops": 5, "rounds": 8,
        },
        _suite_postcarding_cache,
    ),
    "postcarding-accuracy": (
        {
            "chunks": 16384, "hops": 5, "cell_bits": 32, "value_bits": 18,
            "redundancy": 2, "alphas": [0.1, 0.5, 1.0], "queries": 20000,
        },
        _suite_postcarding_accuracy,
    ),
    "append-bench": (
        {
            "cases": 200, "batch_sizes": [1, 2, 4, 16], "entry_lens": [4, 8, 13, 18],
            "max_lists": 3,
        },
        _suite_append_bench,
    ),
    "ki-accuracy": (
        {
            "buflen": 4096, "redundancies": [1, 2, 4], "stream_len": 100000,
            "key_space": 1 << 14, "max_delta": 16,
        },
        _suite_ki_accuracy,
    ),
    "flowctl-loss": (
        {
            "loss_rates": [0.001, 0.01, 0.05], "reporters": 4, "reports": 10000,
            "backlog_capacity": 256, "reports_per_step": 64,
        },
        _suite_flowctl_loss,
    ),
    "bounds": (
        {
            "alphas": [0.05, 0.1, 0.5, 1.0], "redundancies": [1, 2, 4],
            "checksum_bits": [16, 32], "pc_cell_bits": 32, "pc_hops": 5,
            "pc_value_bits": 18,
        },
        _suite_bounds,
    ),
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def default_params(name: str) -> dict:
    if name not in _SUITES:
        raise UnknownSuite(name)
    return json.loads(json.dumps(_SUITES[name][0]))  # deep copy


def experiment_suite(name: str, params: dict | None = None, seed: int = 0) -> SuiteResult:
    """Run one named suite over its parameter grid; an empty grid is an error."""
    if name not in _SUITES:
        raise UnknownSuite(name)
    defaults, fn = _SUITES[name]
    merged = default_params(name)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise KeyError(f"unknown parameter {key!r} for suite {name!r}")
        merged[key] = value
    rows = fn(merged, seed)
    if not rows:
        raise ValueError(f"suite {name!r} produced no rows: its parameter grid is empty")
    return SuiteResult(name, merged, seed, rows)
