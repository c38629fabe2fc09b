#!/usr/bin/env python3
"""Reproduce the headline accuracy figures on a desk-scale store.

Prints the closed-form operating points (no-output 9.5% / 3.3% / 1.2%,
wrong-output 1.5e-11, chunked-postcard 3.3% / <1e-22) next to fresh
Monte-Carlo measurements, including the scaled longevity point (~99.3%
queryability at the preserved load factor).
"""

import argparse

from dta import analysis
from dta.experiments import kw_measure_ages, kw_monte_carlo, kw_write_stream
from dta.hashing import HashFamily
from dta.keywrite import KwStore, QueryPolicy
from dta.memstore import MemoryRegion


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=50000)
    args = parser.parse_args()

    print("== keyed-store no-output probability, b=32, alpha=0.1 ==")
    for n in (1, 2, 4):
        model = analysis.KwModel(n, 32, 0.1)
        bound = analysis.kw_no_output_bound(model).total
        stats = kw_monte_carlo(1 << 16, 32, 4, n, 0.1, args.queries,
                               seed=args.seed, policy=QueryPolicy.SINGLE_VALUE)
        print(f"  N={n}: bound {bound:.4f}   measured {stats.no_output_rate:.4f} "
              f"(wrong observed: {stats.wrong})")

    wrong = analysis.kw_wrong_output_bound(analysis.KwModel(2, 32, 0.1)).bound
    print(f"\n== wrong-output bound, N=2, b=32, alpha=0.1: {wrong:.3g} ==")

    pc = analysis.PcModel(2, 32, 0.1, hops=5, value_bits=18)
    print(f"== chunked postcards, |V|=2^18, B=5: fail <= "
          f"{analysis.pc_fail_bound(pc).total:.4f}, wrong < "
          f"{analysis.pc_wrong_bound(pc):.3g} ==")
    alt = analysis.kw_multi_entry_wrong_bound(analysis.KwModel(2, 32, 0.1), 5)
    print(f"   (per-hop keyed storage instead: wrong ~ {alt:.2g} at twice the width)")

    print("\n== scaled longevity: 2^20 slots, 24B slots, N=2 ==")
    age = 78125  # the 10M-report point scaled by 2^20/2^27
    store = KwStore(MemoryRegion((1 << 20) * 24), 1 << 20, 32, 20,
                    family=HashFamily(args.seed))
    kw_write_stream(store, 2, 2 * age, seed=args.seed)
    bucket = kw_measure_ages(store, 2, 2 * age, ages=[0], window=age,
                             seed=args.seed)[0]
    print(f"  queryability of the last {age} reports: {bucket.success_rate:.4f} "
          f"(reference point: 0.993)")


if __name__ == "__main__":
    main()
