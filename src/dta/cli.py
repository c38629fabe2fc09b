"""Command-line front end: run simulations, sweep suites, evaluate bounds,
dump and diff collector memory, and validate configs or emitted CSVs.

Exit codes: 0 success, 1 configuration/usage error, 2 mismatch reported by
``diff``.  The default seed comes from DTA_SEED when set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from . import analysis, experiments, sim

ENV_SEED = "DTA_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad usage (2 is reserved for diff mismatches)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED}={raw!r} is not an integer") from None


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _load_simulation(path, seed: int) -> tuple[dict, sim.Simulation]:
    """Parse a run config and build its Simulation; a bad config raises ValueError.

    ``run`` and ``validate`` share this, so a config ``validate`` accepts is
    one the stores accept too, not only the config parser.
    """
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = sorted(config.keys() - {"topology", "workload"})
    if unknown:
        raise sim.ConfigError(unknown[0], "unknown field")
    topology = sim.topology_from_dict(config.get("topology", {}))
    workload = sim.workload_from_dict(config.get("workload", {}))
    return config, sim.Simulation(topology, workload, seed)


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config, simulation = _load_simulation(args.config, seed)
    config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    # both outputs are opened first, so a path that cannot be written is refused before the run
    with ExitStack() as files:
        out = files.enter_context(open(args.out, "w")) if args.out else sys.stdout
        dump = args.dump and files.enter_context(open(args.dump, "wb"))
        payload = {"seed": seed, "config_hash": config_hash, **simulation.run().to_dict()}
        if dump:
            simulation.translator.region.dump(dump)
        print(json.dumps(payload, indent=2), file=out)
    return 0


def _cmd_suite(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    result = experiments.experiment_suite(args.name, _parse_overrides(args.set), seed)
    if args.json:
        print(json.dumps(result.rows, indent=2, default=str))
    if args.out:
        with open(args.out, "w") as fh:
            experiments.write_csv(fh, result)
    elif not args.json:
        experiments.write_csv(sys.stdout, result)
    return 0


def _cmd_bounds(args) -> int:
    table = {"model": "kw", "N": args.N, "b": args.b, "alpha": args.alpha}
    if args.hops is None:
        model, extra = analysis.KwModel(args.N, args.b, args.alpha), {}
    else:
        table["model"] = "postcarding"
        model = analysis.PcModel(args.N, args.b, args.alpha, args.hops, args.value_bits)
        extra = {"B": args.hops, "V_bits": args.value_bits}
    table.update(analysis.bounds(model, args.exact_m), **extra)
    if args.json:
        print(json.dumps(table))
    else:
        for key, value in table.items():
            value = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{key}: {value}")
    return 0


def _cmd_dump(args) -> int:
    if args.offset < 0 or (args.length is not None and args.length < 0):
        raise ValueError("--offset and --length must be >= 0")
    data = Path(args.file).read_bytes()
    start = args.offset
    end = len(data) if args.length is None else min(len(data), start + args.length)
    for off in range(start, end, 16):
        chunk = data[off:min(off + 16, end)]
        print(f"{off:08x}  {' '.join(f'{b:02x}' for b in chunk)}")
    return 0


def _cmd_diff(args) -> int:
    a = Path(args.a).read_bytes()
    b = Path(args.b).read_bytes()
    if a == b:
        print(f"identical ({len(a)} bytes)")
        return 0
    if len(a) != len(b):
        print(f"size mismatch: {len(a)} vs {len(b)} bytes")
        return 2
    first = next(i for i in range(len(a)) if a[i] != b[i])
    count = sum(1 for x, y in zip(a, b) if x != y)
    print(f"{count} differing bytes, first at offset {first:#x} "
          f"({a[first]:#04x} vs {b[first]:#04x})")
    return 2


def _cmd_validate(args) -> int:
    path = Path(args.file)
    if path.suffix == ".csv":
        with open(path) as fh:
            meta, rows = experiments.read_csv(fh)
        print(f"ok: {len(rows)} rows, metadata keys: {sorted(meta)}")
        return 0
    _load_simulation(path, 0)
    print("ok: config valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", help="write the run report JSON here")
    p_run.add_argument("--dump", help="write the collector memory dump here")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a named experiment suite")
    p_suite.add_argument("name")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--out", help="CSV output path (default: stdout)")
    p_suite.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a suite parameter (JSON value)")
    p_suite.add_argument("--json", action="store_true", help="mirror rows as JSON")
    p_suite.set_defaults(fn=_cmd_suite)

    p_bounds = sub.add_parser("bounds", help="evaluate the closed-form failure bounds")
    p_bounds.add_argument("--N", type=int, required=True)
    p_bounds.add_argument("--b", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, required=True)
    p_bounds.add_argument("--hops", type=int, default=None,
                          help="evaluate the chunked postcard model with this many hops")
    p_bounds.add_argument("--value-bits", type=float, default=18, dest="value_bits")
    p_bounds.add_argument("--exact-m", type=int, default=None, dest="exact_m",
                          help="use the exact finite-M Key-Write model (not with --hops)")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_dump = sub.add_parser("dump", help="hex-dump a binary memory dump")
    p_dump.add_argument("file")
    p_dump.add_argument("--offset", type=int, default=0)
    p_dump.add_argument("--length", type=int, default=None)
    p_dump.set_defaults(fn=_cmd_dump)

    p_diff = sub.add_parser("diff", help="compare two memory dumps byte-wise")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(fn=_cmd_diff)

    p_val = sub.add_parser("validate", help="check a config JSON or emitted CSV")
    p_val.add_argument("file")
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # the one exit for bad input: a config, file, CSV or value a command refuses
    try:
        return args.fn(args)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
