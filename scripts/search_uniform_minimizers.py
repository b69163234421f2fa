#!/usr/bin/env python3
"""Search small classes for instances of the two-cover sufficiency
conditions, build the promised uniform minimizer for each, and check it
against both the flow ranks and the enumeration oracle."""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from ars import (
    construct_uniform_minimizer,
    find_uniform_minimizer,
    is_nonempty,
    iter_partitions,
    min_t_term_rank,
    t_term_ranks,
    uniform_minimizer_hypotheses,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=4)
    parser.add_argument("--max-weight", type=int, default=8)
    parser.add_argument("--budget", type=int, default=200_000)
    args = parser.parse_args()

    holders = 0
    failures = 0
    for w in range(1, args.max_weight + 1):
        ps = list(iter_partitions(args.max_dim, w))
        for r in ps:
            if len(r) <= 2:
                continue
            for s in ps:
                if len(s) <= 2 or not is_nonempty(r, s):
                    continue
                t_max = r.parts[0]
                hyp = uniform_minimizer_hypotheses(r, s, t_max)
                if not hyp.holds:
                    continue
                holders += 1
                built = construct_uniform_minimizer(r, s, t_max)
                targets = [min_t_term_rank(r, s, k)[0] for k in range(1, t_max + 1)]
                ranks = list(islice(t_term_ranks(built), t_max))
                searched = find_uniform_minimizer(r, s, budget=args.budget)
                ok = ranks == targets and searched.matrix is not None
                if not ok:
                    failures += 1
                print(
                    f"{'ok  ' if ok else 'FAIL'} R={r.to_text()} S={s.to_text()} "
                    f"f={hyp.f} f'={hyp.f_prime} minima={targets} "
                    f"(enumeration scanned {searched.scanned})"
                )
    print(f"\n{holders} hypothesis-holding pairs, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
