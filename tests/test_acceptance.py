"""Acceptance gate: each test enforces one release criterion at its exact
tolerance (everything here is integer arithmetic) and prints a pass line.
Run with `pytest tests/test_acceptance.py -v -s` to see the report."""

import itertools
import time

from ars import (
    BinaryMatrix,
    Partition,
    brute_min_t_term_rank,
    brute_t_term_rank,
    canonical_column_submatrix,
    construct_uniform_minimizer,
    cover_exists,
    in_class,
    is_nonempty,
    min_cover_value,
    min_t_term_rank,
    modified_ryser,
    multi_cover_feasible,
    nonempty_by_structure,
    phi_matrix,
    psi,
    structure_matrix,
    t_term_rank,
    two_cover_exists,
    two_cover_parts,
    uniform_minimizer_hypotheses,
)
from ars import counterexample
from ars.partition import clear_kept_classes
from ars.oracle import enumerate_class

R_REF = counterexample.ROW_SUMS
S_REF = counterexample.COL_SUMS

R_69 = Partition((4, 2, 2, 2, 1, 1, 1))
S_69 = Partition((2, 2, 2, 2, 1, 1, 1, 1, 1))


def _report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}", flush=True)


def test_criterion_1_counterexample_minima():
    expected = {1: (6, (3, 3)), 2: (9, (2, 5)), 3: (11, (2, 5)),
                4: (13, (1, 9)), 5: (14, (1, 9)), 6: (15, (0, 15))}
    clear_kept_classes()
    started = time.perf_counter()
    got = {t: min_t_term_rank(R_REF, S_REF, t) for t in range(1, 7)}
    elapsed = time.perf_counter() - started
    assert got == expected
    # every witness matches one of the recorded cost factorizations
    factorizations = {1: {(3, 3)}, 2: {(3, 3), (2, 5)}, 3: {(2, 5)},
                      4: {(2, 5), (1, 9)}, 5: {(1, 9)}, 6: {(1, 9), (0, 15)}}
    for t, (_, witness) in got.items():
        assert witness in factorizations[t]
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "counterexample minima", f"6/9/11/13/14/15 with witnesses, {elapsed:.3f}s")


def test_criterion_2_counterexample_tables():
    clear_kept_classes()
    tv = structure_matrix(R_REF, S_REF).values
    pv = phi_matrix(R_REF, S_REF).values
    assert tv == counterexample.STRUCTURE_TABLE
    assert pv == counterexample.PHI_TABLE
    assert tv[0][0] == 27 and tv[3][3] == 8 and tv[9][15] == 108
    assert pv[2][5] == 9 and pv[1][9] == 9
    _report(2, "counterexample tables", "10x16 structure and phi tables entry-exact")


def test_criterion_3_flow_example():
    a = BinaryMatrix([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert t_term_rank(a, 2) == 3
    _report(3, "flow example", "2-term rank of the 3x4 example is 3")


def test_criterion_4_golden_constructions():
    started = time.perf_counter()
    block, rhat = canonical_column_submatrix(R_69, S_69, 2, 4)
    assert block == BinaryMatrix([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0]]) and rhat == (3, 2)
    t_block = time.perf_counter() - started

    started = time.perf_counter()
    single = modified_ryser(R_69, S_69, 2, 4)
    assert single == BinaryMatrix(
        [
            [1, 0, 0, 0, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0, 1, 0, 0],
            [0, 1, 1, 0, 0, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
        ]
    )
    t_single = time.perf_counter() - started

    started = time.perf_counter()
    parts = two_cover_parts(R_69, S_69, (2, 4), (3, 3))
    assert parts.matrix == BinaryMatrix(
        [
            [0, 0, 0, 1, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0, 1, 0, 0],
            [1, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0],
        ]
    )
    assert parts.canonical_core == BinaryMatrix([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    t_double = time.perf_counter() - started

    for label, elapsed in (("block", t_block), ("single", t_single), ("double", t_double)):
        assert elapsed < 1.0, f"{label} took {elapsed:.3f}s"
    _report(4, "golden constructions",
            f"bit-exact; {t_block:.3f}s/{t_single:.3f}s/{t_double:.3f}s")


def test_criterion_5_oracle_equivalence(small_pairs, small_classes, small_profiles):
    # (a) Gale-Ryser <=> structure nonnegativity <=> nonempty enumeration
    for r, s in small_pairs:
        gale = is_nonempty(r, s)
        assert gale == nonempty_by_structure(structure_matrix(r, s))
        assert gale == (next(enumerate_class(r, s), None) is not None)

    # (b, e) table minima match brute minima; per-matrix triple equality
    for (r, s), mats in small_classes.items():
        for t in range(1, 5):
            per_matrix = []
            for a in mats:
                flow_rank = t_term_rank(a, t)
                assert flow_rank == brute_t_term_rank(a, t)
                assert flow_rank == min_cover_value(a, t)[0]
                per_matrix.append(flow_rank)
            assert min(per_matrix) == min_t_term_rank(r, s, t)[0]
            assert min(per_matrix) == brute_min_t_term_rank(r, s, t)

    # (c) phi certificate <=> an enumerated member carries the prefix cover
    for (r, s), profiles in small_profiles.items():
        m, n = len(r), len(s)
        for e in range(m + 1):
            least_f = min(profile[e] for profile in profiles)
            for f in range(n + 1):
                assert cover_exists(r, s, e, f) == (f >= least_f)

    # (d) psi criterion <=> an enumerated member carries both prefix covers
    for (r, s), profiles in small_profiles.items():
        m, n = len(r), len(s)
        for e1, e2 in itertools.combinations(range(m + 1), 2):
            for f2, f1 in itertools.combinations(range(n + 1), 2):
                witnessed = any(
                    profile[e1] <= f1 and profile[e2] <= f2 for profile in profiles
                )
                assert two_cover_exists(r, s, e1, e2, f2, f1) == witnessed

    total = sum(len(mats) for mats in small_classes.values())
    _report(5, "oracle equivalence",
            f"{len(small_pairs)} pairs, {len(small_classes)} nonempty, {total} matrices")


def test_criterion_6_inequality_properties(small_classes):
    # two-cover inequality whenever the tight-column hypotheses hold
    cover_instances = 0
    for (r, s) in small_classes:
        m, n = len(r), len(s)
        if m <= 2 or n <= 2:
            continue
        tv = structure_matrix(r, s).values
        for f in range(1, n):
            if s.part(f - 1) != 1 or not cover_exists(r, s, 2, f):
                continue
            for f_prime in range(f + 1, n):
                if not cover_exists(r, s, 1, f_prime):
                    continue
                cover_instances += 1
                assert psi(r, s, 1, 2, f, f_prime) >= tv[1][f_prime] + tv[2][f]
    assert cover_instances > 0

    # crossing cover costs force opposite orderings of rows and columns
    order_instances = 0
    for e, e_prime, f, f_prime in itertools.product(range(7), repeat=4):
        for k in range(1, 4):
            for l in range(k + 1, 5):
                if k * e + f < k * e_prime + f_prime and l * e + f > l * e_prime + f_prime:
                    order_instances += 1
                    assert e_prime < e and f < f_prime
    assert order_instances > 0
    _report(6, "inequality properties",
            f"{cover_instances} two-cover and {order_instances} ordering instances")


def test_criterion_7_constructive_uniform_minimizers(small_classes):
    holders = 0
    for (r, s) in small_classes:
        if len(r) <= 2 or len(s) <= 2:
            continue
        t_max = r.parts[0]
        if not uniform_minimizer_hypotheses(r, s, t_max).holds:
            continue
        holders += 1
        a = construct_uniform_minimizer(r, s, t_max)
        assert a is not None and in_class(a, r, s)
        for k in range(1, t_max + 1):
            assert t_term_rank(a, k) == min_t_term_rank(r, s, k)[0]
    assert holders > 0
    _report(7, "constructive uniform minimizers", f"{holders} hypothesis-holding pairs")


def test_criterion_8_counterexample_cover_search():
    sets = counterexample.witness_sets()
    assert sets == {
        1: [(3, 3)],
        2: [(2, 5), (3, 3)],
        3: [(2, 5)],
        4: [(1, 9), (2, 5)],
        5: [(1, 9)],
        6: [(0, 15), (1, 9)],
    }
    combos = list(itertools.product(*(sets[t] for t in range(1, 7))))
    assert len(combos) == 8
    for combo in combos:
        covers = sorted(set(combo))
        assert multi_cover_feasible(R_REF, S_REF, covers) is None
    # full report, as the command-line check runs it
    checks = counterexample.verify()
    assert all(check.passed for check in checks)
    _report(8, "counterexample cover search",
            "all 8 witness combinations jointly unrealizable (prefix covers)")
