#!/usr/bin/env python3
"""Print the full reference-class report: margins, both tables, the six
minimum t-term ranks with every witness, and the prefix-cover
infeasibility search backing the no-uniform-minimizer claim.  Each
combination of witness covers is decided in closed form by a Hall check
over the staircase mask it leaves (`structure.prefix_covers_feasible`),
with no flow computation."""

from __future__ import annotations

import sys

from ars import counterexample, min_t_term_rank, phi_matrix, structure_matrix

R = counterexample.ROW_SUMS
S = counterexample.COL_SUMS


def main() -> int:
    print(f"R = {R.to_text()}")
    print(f"S = {S.to_text()}")
    print(f"weight = {R.weight}\n")

    print("structure matrix T:")
    print(structure_matrix(R, S).render())
    print("\nphi matrix:")
    print(phi_matrix(R, S).render())

    print("\nminimum t-term ranks:")
    sets = counterexample.witness_sets()
    for t in range(1, 7):
        value, witness = min_t_term_rank(R, S, t)
        alts = " ".join(f"{t}*{e}+{f}" for e, f in sets[t])
        print(f"  t={t}: {value}  (witness {witness}; factorizations: {alts})")

    print("\nprefix-cover combinations (one witness per t; Hall check over the staircase mask):")
    all_absent = True
    for covers, feasible in counterexample.witness_combinations():
        all_absent &= not feasible
        verdict = "REALIZABLE (unexpected!)" if feasible else "jointly unrealizable"
        print(f"  {covers}: {verdict}")
    print(
        "\nresult:",
        "no matrix in the class carries any full witness combination of "
        "prefix covers" if all_absent else "SEARCH CONTRADICTS THE CLAIM",
    )
    print("(the search is restricted to prefix covers; it supports the "
          "nonexistence claim rather than proving it outright)")
    return 0 if all_absent else 1


if __name__ == "__main__":
    sys.exit(main())
