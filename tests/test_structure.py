import hashlib
import itertools
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ars import (
    Partition,
    BinaryMatrix,
    canonical_column_submatrix,
    cover_exists,
    interchange_path,
    is_nonempty,
    min_t_term_rank,
    modified_ryser,
    nonempty_by_structure,
    phi_matrix,
    psi,
    ryser_canonical,
    structure_matrix,
    two_cover_exists,
    two_cover_matrix,
    two_cover_parts,
    uniform_minimizer_hypotheses,
)
from ars import counterexample, structure
from ars.errors import BadRange, DimensionTooSmall, EmptyClass, WeightMismatch
from ars.flow import multi_cover_feasible
from ars.oracle import brute_phi
from ars.partition import clear_kept_classes, iter_partitions, prefix_cover
from ars.structure import (
    _envelope,
    _extend,
    _lower_hull,
    cover_frontier,
    prefix_covers_feasible,
)

from helpers import matrices, partitions

R_REF = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
S_REF = Partition((7, 3, 3, 2, 2) + (1,) * 10)

R_69 = Partition((4, 2, 2, 2, 1, 1, 1))
S_69 = Partition((2, 2, 2, 2, 1, 1, 1, 1, 1))


def table_entry_brute(r, s, k, l):
    """The defining sum, written out directly."""
    return k * l - sum(s.parts[:l]) + sum(r.parts[k:])


def psi_brute(r, s, a, b, c, d):
    """Plain six-fold enumeration of the two-cover minimum."""
    m, n = len(r), len(s)
    t = [[table_entry_brute(r, s, k, l) for l in range(n + 1)] for k in range(m + 1)]
    best = None
    for i1 in range(a + 1):
        for i2 in range(b - a + 1):
            for i3 in range(m - b + 1):
                for j1 in range(c + 1):
                    for j2 in range(d - c + 1):
                        for j3 in range(n - d + 1):
                            v = (
                                t[i1][d + j3]
                                + t[a + i2][c + j2]
                                + t[b + i3][j1]
                                + (a - i1) * (d - c - j2)
                                + (b - a - i2) * (c - j1)
                                + (a - i1) * (c - j1)
                            )
                            best = v if best is None else min(best, v)
    return best


def test_structure_reference_anchors():
    t = structure_matrix(R_REF, S_REF)
    assert t[0, 0] == 27
    assert t[3, 3] == 8
    assert t[9, 15] == 108
    assert t[0, 15] == 0


def test_structure_single_cell():
    t = structure_matrix(Partition((1,)), Partition((1,)))
    assert t.values == ((1, 0), (0, 0))


def test_structure_corner_identities(small_pairs):
    for r, s in small_pairs[:160]:
        t = structure_matrix(r, s)
        assert t[0, 0] == r.weight
        assert t[len(r), len(s)] == len(r) * len(s) - r.weight


def test_structure_recomputes_from_definition(small_pairs):
    for r, s in small_pairs[:80]:
        t = structure_matrix(r, s)
        for k in range(len(r) + 1):
            for l in range(len(s) + 1):
                assert t[k, l] == table_entry_brute(r, s, k, l)


def test_structure_weight_mismatch():
    with pytest.raises(WeightMismatch):
        structure_matrix(Partition((2,)), Partition((1,)))


def test_nonnegativity_criterion_examples():
    assert nonempty_by_structure(structure_matrix(R_REF, S_REF))
    assert not nonempty_by_structure(structure_matrix(Partition((2, 2)), Partition((3, 1))))
    assert nonempty_by_structure(structure_matrix(Partition((1,)), Partition((1,))))


def test_nonnegativity_matches_gale_ryser(small_pairs):
    for r, s in small_pairs:
        assert nonempty_by_structure(structure_matrix(r, s)) == is_nonempty(r, s)


def test_nonnegativity_rejects_phi_table():
    with pytest.raises(ValueError):
        nonempty_by_structure(phi_matrix(Partition((1,)), Partition((1,))))


def test_phi_reference_anchors():
    p = phi_matrix(R_REF, S_REF)
    t = structure_matrix(R_REF, S_REF)
    assert p[1, 9] == 9
    assert p[2, 5] == 9
    assert p[3, 3] == 8
    assert all(p[0, l] == 0 for l in range(16))
    assert p[3, 2] == 5 and t[3, 2] == 8  # strict disagreement below the grey cell


def test_phi_single_cell():
    p = phi_matrix(Partition((1,)), Partition((1,)))
    assert p[1, 1] == 0 == structure_matrix(Partition((1,)), Partition((1,)))[1, 1]


def test_phi_top_row_vanishes(small_classes):
    for (r, s) in list(small_classes)[:60]:
        p = phi_matrix(r, s)
        assert all(p[0, l] == 0 for l in range(len(s) + 1))


def test_phi_requires_nonempty():
    with pytest.raises(EmptyClass):
        phi_matrix(Partition((2, 2)), Partition((3, 1)))
    with pytest.raises(WeightMismatch):
        phi_matrix(Partition((2,)), Partition((1,)))


def test_min_rank_reference_values():
    expected = {1: (6, (3, 3)), 2: (9, (2, 5)), 3: (11, (2, 5)),
                4: (13, (1, 9)), 5: (14, (1, 9)), 6: (15, (0, 15))}
    for t, pair in expected.items():
        assert min_t_term_rank(R_REF, S_REF, t) == pair


def test_min_rank_monotone_and_bounded(small_classes):
    for (r, s) in list(small_classes)[:80]:
        values = [min_t_term_rank(r, s, t)[0] for t in range(1, 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= len(s) for v in values)


def test_min_rank_validates():
    with pytest.raises(ValueError):
        min_t_term_rank(R_REF, S_REF, 0)
    with pytest.raises(EmptyClass):
        min_t_term_rank(Partition((2, 2)), Partition((3, 1)), 1)


def test_structure_t_follows_the_integer_rule():
    """An integral float passes as its int; a fraction or a string is
    rejected instead of scaling the witness cost (1.5 once gave 2.5)."""
    r, s = Partition((2, 1, 1)), Partition((2, 1, 1))
    for bad in (1.5, "2", None, -1):
        with pytest.raises(ValueError):
            min_t_term_rank(r, s, bad)
        with pytest.raises(ValueError):
            uniform_minimizer_hypotheses(R_REF, S_REF, bad)
    assert min_t_term_rank(r, s, 2.0) == min_t_term_rank(r, s, 2)
    assert uniform_minimizer_hypotheses(R_REF, S_REF, 6.0) == uniform_minimizer_hypotheses(
        R_REF, S_REF, 6
    )


def test_cover_sizes_follow_the_integer_rule():
    """cover_exists, psi, two_cover_exists and the cover constructions take an
    integral float as its int and refuse a fraction; 2.5 once answered
    True, and modified_ryser failed with a TypeError deep in its shift.
    A cover that is not a pair is a ValueError wherever a pair is read
    (two_cover_matrix once raised TypeError for 5), and an off-grid pair
    is BadRange in every layer."""
    r, s = R_69, S_69
    assert cover_exists(r, s, 2.0, 4) == cover_exists(r, s, 2, 4.0) == cover_exists(r, s, 2, 4)
    assert psi(r, s, 1.0, 3, 2.0, 5) == psi(r, s, 1, 3, 2, 5) == psi_brute(r, s, 1, 3, 2, 5)
    assert two_cover_exists(r, s, 1, 3.0, 2, 5) == two_cover_exists(r, s, 1, 3, 2, 5)
    assert modified_ryser(r, s, 2.0, 4.0) == modified_ryser(r, s, 2, 4)
    assert canonical_column_submatrix(r, s, 2.0, 4) == canonical_column_submatrix(r, s, 2, 4)
    assert two_cover_matrix(r, s, (1.0, 5), (2, 4.0)) == two_cover_matrix(r, s, (1, 5), (2, 4))
    for bad in (2.5, "2", None):
        with pytest.raises(ValueError):
            cover_exists(r, s, 2, bad)
        with pytest.raises(ValueError):
            cover_exists(r, s, bad, 4)
        with pytest.raises(ValueError):
            psi(r, s, 1, 3, bad, 5)
        with pytest.raises(ValueError):
            two_cover_exists(r, s, bad, 3, 2, 5)
        with pytest.raises(ValueError):
            modified_ryser(r, s, 2, bad)
        with pytest.raises(ValueError):
            canonical_column_submatrix(r, s, bad, 4)
        with pytest.raises(ValueError):
            two_cover_matrix(r, s, (1, 5), (2, bad))
    with pytest.raises(ValueError):
        psi(r, s, 0.5, 2, 0, 2)
    pair_readers = (
        lambda cover: prefix_cover(cover, len(r), len(s)),
        lambda cover: prefix_covers_feasible(r, s, [cover]),
        lambda cover: multi_cover_feasible(r, s, [cover]),
        lambda cover: two_cover_parts(r, s, (1, 5), cover),
        lambda cover: two_cover_matrix(r, s, cover, (2, 4)),
    )
    off_grid = re.escape("cover (8,1) out of range for 7x9")
    for read in pair_readers:
        for bad in (5, None, (1, 2, 3)):
            with pytest.raises(ValueError) as caught:
                read(bad)
            assert caught.type is ValueError
            assert str(caught.value) == f"a cover is an (e, f) pair, got {bad!r}"
        with pytest.raises(BadRange, match=off_grid):
            read((8, 1))
    for sized in (cover_exists, modified_ryser, canonical_column_submatrix):
        with pytest.raises(BadRange, match=off_grid):
            sized(r, s, 8, 1)


def test_cover_exists_reference():
    assert cover_exists(R_REF, S_REF, 3, 3)
    assert not cover_exists(R_REF, S_REF, 3, 2)


def test_cover_exists_whole_matrix(small_classes):
    for (r, s) in list(small_classes)[:80]:
        assert cover_exists(r, s, len(r), len(s))


def test_cover_exists_range_check():
    with pytest.raises(BadRange):
        cover_exists(R_REF, S_REF, 10, 0)


def test_psi_regression_and_brute():
    r = s = Partition((2, 1))
    assert psi(r, s, 0, 1, 0, 1) == 0 == psi_brute(r, s, 0, 1, 0, 1)


def test_psi_matches_brute_on_small_pairs(small_classes):
    for r, s in list(small_classes)[:40]:
        m, n = len(r), len(s)
        for a, b in itertools.combinations(range(m + 1), 2):
            for c, d in itertools.combinations(range(n + 1), 2):
                assert psi(r, s, a, b, c, d) == psi_brute(r, s, a, b, c, d)


def test_psi_matches_brute_on_seeded_classes():
    rng = random.Random(1962)
    for _ in range(25):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        grid = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        for row in grid:  # no empty row, so the class keeps m rows
            row[rng.randrange(n)] = 1
        r, s = margins(BinaryMatrix(grid))
        for _ in range(20):
            lo, hi = sorted(rng.sample(range(len(r) + 1), 2))
            left, right = sorted(rng.sample(range(len(s) + 1), 2))
            assert psi(r, s, lo, hi, left, right) == psi_brute(r, s, lo, hi, left, right)


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=12),
    st.integers(0, 11),
    st.integers(0, 14),
)
@example([0], 0, 0)
@example([-3, -3, -3], 2, 5)
@example([5, -2, 7, -2, 0], 4, 0)
@example([4, 1, 0, 1, 4], 0, 3)
@settings(max_examples=300, deadline=None)
def test_envelope_matches_direct_minimum(values, c, top):
    c = min(c, len(values) - 1)
    for cut in range(c + 1):
        direct = [min(values[j] + x * (cut - j) for j in range(cut + 1)) for x in range(top + 1)]
        assert _envelope(_lower_hull(values[: cut + 1]), top) == direct
    # a hull grown one point at a time is the hull of every prefix
    hull = ([], [])
    for j, v in enumerate(values):
        _extend(hull, j, (v,))
        assert hull == _lower_hull(values[: j + 1])


@given(st.lists(st.integers(-6, 6), max_size=12), st.lists(st.integers(-6, 6), max_size=12))
@example([3, 0, 0], [0, 3])
@settings(max_examples=200, deadline=None)
def test_hull_tail_pushes(prefix, tail):
    """A hull over a prefix, extended by a tail, is the hull of the whole
    sequence: a frontier row grows its hull this way as it walks up."""
    hull = _lower_hull(prefix)
    _extend(hull, len(prefix), tail)
    assert hull == _lower_hull(prefix + tail)


def test_psi_two_cover_witness_inequality():
    # the worked 7x9 instance carries covers (3 rows, 3 cols) and (2 rows, 4 cols)
    t = structure_matrix(R_69, S_69)
    assert psi(R_69, S_69, 2, 3, 3, 4) >= t[3, 3] + t[2, 4]


def test_psi_validates():
    with pytest.raises(BadRange):
        psi(R_69, S_69, 1, 1, 0, 1)
    with pytest.raises(BadRange):
        psi(R_69, S_69, 0, 1, 2, 2)
    with pytest.raises(WeightMismatch):
        psi(Partition((2,)), Partition((1,)), 0, 1, 0, 1)
    # the range is checked before the class
    with pytest.raises(BadRange):
        psi(Partition((2,)), Partition((1,)), 1, 0, 0, 1)
    with pytest.raises(EmptyClass):
        psi(Partition((2,)), Partition((2,)), 0, 1, 0, 1)


def test_psi_nonnegative_on_nonempty_classes(small_classes):
    # observed property; not assumed anywhere as a precondition
    for (r, s) in list(small_classes)[:40]:
        m, n = len(r), len(s)
        for a, b in itertools.combinations(range(m + 1), 2):
            for c, d in itertools.combinations(range(n + 1), 2):
                assert psi(r, s, a, b, c, d) >= 0


def test_two_cover_exists_trivial_blocks(small_classes):
    for (r, s) in list(small_classes)[:80]:
        assert two_cover_exists(r, s, 0, len(r), 0, len(s))


def test_two_cover_exists_worked_instance():
    assert two_cover_exists(R_69, S_69, 2, 3, 3, 4)


def test_implied_two_cover_inequality(small_classes):
    """Whenever phi pins tight columns f < f' for two rows and one row,
    with unit column sums from f on, the two-cover criterion follows."""
    instances = 0
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
                instances += 1
                assert psi(r, s, 1, 2, f, f_prime) >= tv[1][f_prime] + tv[2][f]
    assert instances > 0


def _bounded_order_conclusion(e, e_prime, f, f_prime, k, l):
    return e_prime < e and f < f_prime


def test_bounded_order_lemma_grid():
    """If two cover costs cross between slopes k < l, the row counts and
    column counts must be ordered oppositely."""
    instances = 0
    for e, e_prime, f, f_prime in itertools.product(range(7), repeat=4):
        for k in range(1, 4):
            for l in range(k + 1, 5):
                if k * e + f < k * e_prime + f_prime and l * e + f > l * e_prime + f_prime:
                    instances += 1
                    assert _bounded_order_conclusion(e, e_prime, f, f_prime, k, l)
    assert instances > 0


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
       st.integers(1, 6), st.integers(2, 7))
@settings(max_examples=300)
def test_bounded_order_lemma_random(e, e_prime, f, f_prime, k, l):
    if k < l and k * e + f < k * e_prime + f_prime and l * e + f > l * e_prime + f_prime:
        assert e_prime < e and f < f_prime


def test_hypotheses_fail_on_reference_pair():
    h = uniform_minimizer_hypotheses(R_REF, S_REF, 6)
    assert not h.holds
    assert (h.f, h.f_prime) == (5, 9)


def test_hypotheses_hold_on_small_instance():
    h = uniform_minimizer_hypotheses(Partition((2, 1, 1)), Partition((1, 1, 1, 1)), 2)
    assert h.holds and (h.f, h.f_prime) == (1, 2)


def test_hypotheses_dimension_guard():
    with pytest.raises(DimensionTooSmall):
        uniform_minimizer_hypotheses(Partition((1, 1, 1)), Partition((3,)), 1)
    with pytest.raises(DimensionTooSmall):
        uniform_minimizer_hypotheses(Partition((2, 2)), Partition((2, 2)), 1)


def test_tables_render_with_headers():
    text = structure_matrix(Partition((2, 1)), Partition((2, 1))).render()
    lines = text.splitlines()
    assert lines[0].split() == ["0", "1", "2"]
    assert lines[1].split()[0] == "0"
    assert len(lines) == 4


# three fixed 20x25 classes, margins of random matrices of density 0.2,
# 0.4 and 0.6
LARGE_PAIRS = [
    (Partition((11, 9, 8, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 5, 4, 4, 4, 4, 3, 3)),
     Partition((8, 8, 8, 7, 7, 6, 5, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 2, 2, 1, 1))),
    (Partition((15, 15, 14, 13, 13, 12, 12, 11, 11, 11, 10, 10, 10, 10, 10, 10, 10, 10, 9, 9)),
     Partition((13, 13, 13, 12, 11, 11, 11, 10, 10, 9, 9, 9, 9, 8, 8, 8, 8, 8, 7, 7, 7, 7,
                6, 6, 5))),
    (Partition((19, 18, 17, 16, 16, 16, 16, 15, 15, 15, 15, 15, 14, 14, 13, 13, 11, 11, 11, 10)),
     Partition((16, 14, 14, 13, 13, 13, 13, 13, 13, 12, 12, 12, 12, 12, 12, 10, 10, 10, 10, 10,
                10, 10, 9, 9, 8))),
]


def margins(a):
    return Partition.from_loose(a.row_sums), Partition.from_loose(a.col_sums)


def assert_tables_match_brute_phi(r, s):
    """phi, the cover frontier, cover_exists and the minimum t-term ranks
    with their witnesses all agree with the directly enumerated phi."""
    m, n = len(r), len(s)
    brute = brute_phi(r, s)
    tv = structure_matrix(r, s).values
    front = cover_frontier(r, s)
    assert all(a >= b for a, b in zip(front, front[1:]))
    for e in range(m + 1):
        for f in range(n + 1):
            assert cover_exists(r, s, e, f) == (brute[e][f] == tv[e][f])
    for t in range(1, r.part(0) + 1):
        value, e, f = min(
            (t * e + f, e, f)
            for e in range(m + 1)
            for f in range(n + 1)
            if brute[e][f] == tv[e][f]
        )
        assert min_t_term_rank(r, s, t) == (value, (e, f))
    assert phi_matrix(r, s).values == brute


@given(matrices(max_m=9, max_n=9))
@settings(max_examples=100, deadline=None)
def test_tables_match_brute_phi_random(a):
    assert_tables_match_brute_phi(*margins(a))


def test_tables_match_brute_phi_seeded():
    rng = random.Random(2006)
    for _ in range(150):
        m, n, density = rng.randint(1, 9), rng.randint(1, 9), rng.uniform(0.1, 0.9)
        a = BinaryMatrix([[int(rng.random() < density) for _ in range(n)] for _ in range(m)])
        assert_tables_match_brute_phi(*margins(a))


@pytest.mark.parametrize("r, s", LARGE_PAIRS)
def test_tables_match_brute_phi_large(r, s):
    assert (len(r), len(s)) == (20, 25)
    assert_tables_match_brute_phi(r, s)


def _gale_ryser_floor(r, s, e, f_prev):
    """The floor of row e from its definition: the least f >= max(S*_e,
    R_{e+1}) with R_{e+1} + ... + R_m <= sum over j <= f of min(S_j,
    m - e), cut at front[e-1]."""
    rows, cols, m = r.parts + (0,), s.parts, len(r)
    base = max(sum(v > e for v in cols), rows[e])
    fits = (f for f in range(base, f_prev) if sum(rows[e:]) <= sum(min(v, m - e) for v in cols[:f]))
    return next(fits, f_prev)


def _frontier_probes(monkeypatch, r, s):
    """The cover frontier from cold tables, with the phi cells it probed
    and the value of each probe by cell."""
    probes, values = [], {}
    cell = structure._ClassTables.phi_cell

    def counted(tables, k, c, hull):
        probes.append((k, c))
        values[k, c] = cell(tables, k, c, hull)
        return values[k, c]

    clear_kept_classes()
    with monkeypatch.context() as patch:
        patch.setattr(structure._ClassTables, "phi_cell", counted)
        front = cover_frontier(r, s)
    clear_kept_classes()
    return front, probes, values


def brute_frontier(r, s):
    """front[e] read off brute_phi: the least f with phi[e][f] == t[e][f]."""
    brute, tv = brute_phi(r, s), structure_matrix(r, s).values
    return tuple(next(f for f, (p, q) in enumerate(zip(b, t)) if p == q) for b, t in zip(brute, tv))


def test_seeded_walk_takes_each_branch(monkeypatch):
    """R = (3,1,1,1), S = (2,2,2) takes every branch of the seeded walk:
    row 1's floor 3 is front[0], so it probes nothing; row 2's floor 1
    fails, so the walk climbs from floor 1 and stops at 2, below
    front[1] = 3; rows 3 and 4 probe their floors once and hold."""
    r, s = Partition((3, 1, 1, 1)), Partition((2, 2, 2))
    front, probes, _ = _frontier_probes(monkeypatch, r, s)
    assert front == (3, 3, 2, 1, 0) == brute_frontier(r, s)
    assert [_gale_ryser_floor(r, s, e, front[e - 1]) for e in range(1, 5)] == [3, 1, 1, 0]
    assert probes == [(2, 1), (2, 2), (3, 1), (4, 0)]


def test_seeded_walk_probes_match_brute_phi(monkeypatch):
    """On every class with at most 4 rows and 4 columns and on seeded
    classes up to 9x9, the floor never passes the frontier of brute_phi,
    the walk finds that frontier, every probe reads brute_phi's cell,
    and each row probes every cell from its floor up to front[e], except
    front[e-1], which is feasible: none when the floor is front[e-1],
    one when the floor is front[e], and otherwise one per column
    climbed."""
    classes = [
        (r, s)
        for w in range(1, 9)
        for r in iter_partitions(4, w)
        for s in iter_partitions(4, w)
        if is_nonempty(r, s)
    ]
    rng = random.Random(1957)
    for _ in range(60):
        m, n, density = rng.randint(1, 9), rng.randint(1, 9), rng.uniform(0.2, 0.8)
        grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        classes.append(margins(BinaryMatrix(grid)))
    seen = set()
    for r, s in classes:
        front, probes, values = _frontier_probes(monkeypatch, r, s)
        assert front == brute_frontier(r, s)
        brute = brute_phi(r, s)
        assert all(brute[k][c] == value for (k, c), value in values.items())
        for e in range(1, len(r) + 1):
            lo = _gale_ryser_floor(r, s, e, front[e - 1])
            assert lo <= front[e]
            row = [c for k, c in probes if k == e]
            assert row == list(range(lo, front[e] + (front[e] < front[e - 1])))
            seen.add("no probe" if lo == front[e - 1] else "confirmed" if lo == front[e] else "climbed")
    assert seen == {"no probe", "confirmed", "climbed"}


def test_frontier_climb_probes_a_pushed_point(monkeypatch):
    """Row 7 of this 19x19 class fails its floor 8 and holds at 9, so the
    probe at 9 reads the hull of B[7][0..8] with the point (9, t[7][9])
    pushed on it.  The frontier is, for each e, the least f that the
    independent Hall scan accepts.  Rows that climb are rare: this is
    the one class in 3,000 seeded profile classes up to 19x19 where a
    wrong pushed point changed the frontier."""
    r = Partition((12, 10, 9, 8, 8, 7, 7, 7, 7, 7, 6, 6, 5, 5, 5, 5, 5, 4, 3))
    s = Partition((11, 10, 9, 8, 7, 7, 7, 6, 6, 6, 6, 6, 6, 6, 6, 6, 5, 4, 4))
    front, probes, _ = _frontier_probes(monkeypatch, r, s)
    assert [c for k, c in probes if k == 7] == [8, 9]
    hall = [next(f for f in range(len(s) + 1) if prefix_covers_feasible(r, s, [(e, f)]))
            for e in range(len(r) + 1)]
    assert front == tuple(hall)


def test_phi_reference_matches_brute():
    assert brute_phi(R_REF, S_REF) == phi_matrix(R_REF, S_REF).values


PROFILE_SHAPES = ((12, 12), (15, 14), (19, 19), (23, 20), (27, 25))


def _profile_class(rng, m, n):
    """Margins of a random m-by-n grid of density 0.15-0.5 with no empty
    row or column, so the class keeps its shape."""
    density = rng.uniform(0.15, 0.5)
    grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
    for row in grid:
        row[rng.randrange(n)] = 1
    for j in range(n):
        grid[rng.randrange(m)][j] = 1
    return margins(BinaryMatrix(grid))


def _random_quad(rng, m, n):
    a = rng.randrange(m)
    c = rng.randrange(n)
    return a, rng.randint(a + 1, m), c, rng.randint(c + 1, n)


def test_class_answers_are_pinned():
    """Over 60 seeded classes of 12x12 to 27x25, the cover frontier, psi
    on random and near-frontier quads, the two-cover matrices where they
    exist, modified_ryser at the minimum 1-term rank cover,
    ryser_canonical and the interchange path between them hash to a
    fixed digest: the structure and construction code may change only if
    each answer stays the same."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for q in range(60):
        m, n = PROFILE_SHAPES[q % len(PROFILE_SHAPES)]
        r, s = _profile_class(rng, m, n)
        front = cover_frontier(r, s)
        quads = [_random_quad(rng, m, n) for _ in range(3)]
        for _ in range(3):  # covers (b, c) and (a, d) near the frontier
            a, b = sorted(rng.sample(range(m + 1), 2))
            c = min(n - 1, front[b] + rng.randint(0, 1))
            quads.append((a, b, c, max(c + 1, min(n, front[a] + rng.randint(0, 1)))))
        two = []
        for a, b, c, d in quads:
            exists = two_cover_exists(r, s, a, b, c, d)
            built = two_cover_matrix(r, s, (a, d), (b, c)).rows if exists else None
            two.append((psi(r, s, a, b, c, d), exists, built))
        _, (e, f) = min_t_term_rank(r, s, 1)
        modified = modified_ryser(r, s, e, f)
        canonical = ryser_canonical(r, s)
        path = interchange_path(modified, canonical)
        answer = (r.parts, s.parts, front, two, modified.rows, canonical.rows, path)
        digest.update(repr(answer).encode())
    assert digest.hexdigest() == "71222c76a5a91615939a0d2b30262f85200be1ea8e00df9f03f1e08c7fc53532"


@pytest.mark.parametrize("shape", [(19, 19), (27, 25)])
def test_psi_matches_brute_on_profile_shapes(shape):
    rng = random.Random(1904 + shape[0])
    for _ in range(2):
        r, s = _profile_class(rng, *shape)
        for _ in range(4):
            quad = _random_quad(rng, len(r), len(s))
            assert psi(r, s, *quad) == psi_brute(r, s, *quad)


def _class_queries(r, s, quads):
    m, n = len(r), len(s)
    return (
        [[cover_exists(r, s, e, f) for f in range(n + 1)] for e in range(m + 1)],
        [min_t_term_rank(r, s, t) for t in range(1, r[0] + 1)],
        [(psi(r, s, *q), two_cover_exists(r, s, *q)) for q in quads],
    )


def _copy(p):
    return Partition(p.parts)


def test_a_new_class_frees_the_kept_tables():
    """Only the most recent class keeps its tables: after queries on
    class A and then on class B, nothing holds A's tables any more."""
    clear_kept_classes()
    assert cover_exists(R_69, S_69, 3, 3)
    assert psi(R_69, S_69, 1, 3, 2, 5) == psi_brute(R_69, S_69, 1, 3, 2, 5)
    kept = weakref.ref(structure._kept.entry[2])
    assert min_t_term_rank(R_REF, S_REF, 1) == min_t_term_rank(_copy(R_REF), S_REF, 1)
    assert kept() is None
    assert structure._kept.entry[1] is S_REF


def test_interleaved_classes_answer_as_when_cold():
    """Classes A, B, A, through the same objects and through equal but
    distinct copies, answer as each does alone after a cache clear; the
    two classes share their quads, so a psi value kept for one quad on
    one class must not answer for the other."""
    rng = random.Random(16)
    a, b = _profile_class(rng, 12, 12), _profile_class(rng, 15, 14)
    quads = [_random_quad(rng, 12, 12) for _ in range(5)]
    cold = []
    for r, s in (a, b):
        clear_kept_classes()
        cold.append(_class_queries(r, s, quads))
    clear_kept_classes()
    for k, (r, s) in ((0, a), (1, b), (0, a)):
        for pair in ((r, s), (_copy(r), _copy(s)), (r, _copy(s)), (_copy(r), s), (r, s)):
            assert _class_queries(*pair, quads) == cold[k]
    # one query at a time, alternating A, B, A' on every query
    copy_a = (_copy(a[0]), _copy(a[1]))
    for e in range(13):
        for f in range(13):
            for k, pair in ((0, a), (1, b), (0, copy_a)):
                assert cover_exists(*pair, e, f) == cold[k][0][e][f]
    for i, q in enumerate(quads):
        for k, pair in ((0, a), (1, b), (0, copy_a), (0, a)):
            assert psi(*pair, *q) == cold[k][2][i][0]
            assert two_cover_exists(*pair, *q) == cold[k][2][i][1]
        for t in range(1, 4):
            for k, pair in ((0, a), (1, b), (0, copy_a)):
                assert min_t_term_rank(*pair, t) == cold[k][1][t - 1]


def test_psi_of_repeated_quads_agrees_with_brute():
    r, s = R_69, S_69
    t = structure_matrix(r, s)
    q1, q2 = (1, 3, 2, 5), (2, 4, 3, 6)
    clear_kept_classes()
    first = psi(r, s, *q1)
    assert first == psi_brute(r, s, *q1)
    a, b, c, d = q1
    assert two_cover_exists(r, s, *q1) == (first >= t[b, c] + t[a, d])
    assert psi(r, s, *q2) == psi_brute(r, s, *q2)
    assert psi(r, s, *q1) == first
    assert psi(_copy(r), _copy(s), *q2) == psi_brute(r, s, *q2)


def test_errors_survive_the_recent_class_slot():
    empty = (Partition((2, 2)), Partition((3, 1)))
    assert not is_nonempty(*empty)
    # the first empty query replaces the slot and the later ones hit it;
    # each pass starts on R_69 again, so both classes are built twice
    for _ in range(2):
        assert cover_exists(R_69, S_69, 3, 3)
        assert psi(R_69, S_69, 1, 3, 2, 5) == psi_brute(R_69, S_69, 1, 3, 2, 5)
        with pytest.raises(EmptyClass):
            cover_exists(*empty, 1, 1)
        last_r, last_s, _ = structure._kept.entry
        assert last_r is empty[0] and last_s is empty[1]
        with pytest.raises(EmptyClass):
            psi(*empty, 0, 1, 0, 1)
        with pytest.raises(EmptyClass):
            min_t_term_rank(*empty, 1)
        assert not nonempty_by_structure(structure_matrix(*empty))
    assert cover_exists(R_69, S_69, 3, 3)
    kept = structure._kept.entry
    for _ in range(2):
        with pytest.raises(WeightMismatch):
            cover_exists(R_69, Partition((2,)), 0, 1)
        with pytest.raises(WeightMismatch):
            structure_matrix(R_69, Partition((2,)))
    # a pair whose tables cannot be built leaves the kept class in place
    assert structure._kept.entry is kept
    assert kept[0] is R_69 and kept[1] is S_69


@st.composite
def prefix_families(draw):
    """A pair (r, s) up to 9x9, the margins of a random 0/1 grid with no
    empty line or, now and then, two free partitions (often an empty
    class), with one to four prefix covers, biased toward the edges
    e in {0, m} and f in {0, n}."""
    if draw(st.integers(0, 5)):
        m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        grid = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                             min_size=m, max_size=m))
        r = [x for x in map(sum, grid) if x]
        s = [x for x in map(sum, zip(*grid)) if x]
        if not r:
            r, s = [1], [1]
        r, s = Partition(sorted(r, reverse=True)), Partition(sorted(s, reverse=True))
    else:
        r = draw(partitions(max_parts=9, max_part=9))
        s = draw(partitions(max_parts=9, max_part=9))
    m, n = len(r), len(s)
    edge_e = st.sampled_from([0, m]) | st.integers(0, m)
    edge_f = st.sampled_from([0, n]) | st.integers(0, n)
    covers = draw(st.lists(st.tuples(edge_e, edge_f), min_size=1, max_size=4))
    return r, s, covers


@settings(max_examples=400, deadline=None)
@given(prefix_families())
@example((R_REF, S_REF, [(1, 9), (2, 5), (3, 3)]))
@example((Partition((2, 1)), Partition((2, 1)), [(0, 0)]))
@example((Partition((2, 1)), Partition((2, 1)), [(2, 0), (0, 2)]))
def test_prefix_covers_feasible_matches_flow(family):
    r, s, covers = family
    assert prefix_covers_feasible(r, s, covers) == (multi_cover_feasible(r, s, covers) is not None)


def test_prefix_covers_feasible_matches_phi_and_psi(small_classes):
    """One cover is phi's question and two crossing covers psi's, on
    every class with m, n <= 4 and weight <= 8 and on 100 seeded classes
    of random grids with m, n in 3..6 and no empty line."""
    rng = random.Random(26)
    desk = []
    while len(desk) < 100:
        m, n, density = rng.randint(3, 6), rng.randint(3, 6), rng.uniform(0.2, 0.8)
        grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        if all(map(any, grid)) and all(map(any, zip(*grid))):
            desk.append((Partition(sorted(map(sum, grid), reverse=True)),
                         Partition(sorted(map(sum, zip(*grid)), reverse=True))))
    for r, s in [*small_classes, *desk]:
        m, n = len(r), len(s)
        for e in range(m + 1):
            for f in range(n + 1):
                assert prefix_covers_feasible(r, s, [(e, f)]) == cover_exists(r, s, e, f)
        for e_prime, e in itertools.combinations(range(m + 1), 2):
            for f, f_prime in itertools.combinations(range(n + 1), 2):
                assert prefix_covers_feasible(r, s, [(e, f), (e_prime, f_prime)]) == (
                    two_cover_exists(r, s, e_prime, e, f, f_prime)
                ), (r, s, e_prime, e, f, f_prime)


SCALE_SHAPES = ((30, 30), (60, 50), (90, 80), (120, 100))


@pytest.mark.parametrize("shape", SCALE_SHAPES)
def test_frontier_is_the_least_feasible_cover_at_scale(shape):
    """On two seeded classes of each shape, far past brute force, each
    (e, front[e]) is feasible by the independent Hall scan and
    (e, front[e] - 1) is not."""
    rng = random.Random(1962 + shape[0])
    for _ in range(2):
        r, s = _profile_class(rng, *shape)
        for e, f in enumerate(cover_frontier(r, s)):
            assert prefix_covers_feasible(r, s, [(e, f)])
            assert f == 0 or not prefix_covers_feasible(r, s, [(e, f - 1)])


@pytest.mark.parametrize("shape", SCALE_SHAPES)
def test_phi_and_min_rank_commute_with_transposition(shape):
    """A cover (e, f) of a member is a cover (f, e) of its transpose, so
    phi of (S, R) is the transpose of phi of (R, S), and the minimum
    1-term rank is the same for both."""
    r, s = _profile_class(random.Random(1979 + shape[0]), *shape)
    phi = phi_matrix(r, s).values
    assert phi_matrix(s, r).values == tuple(zip(*phi))
    assert min_t_term_rank(s, r, 1)[0] == min_t_term_rank(r, s, 1)[0]


def test_prefix_covers_feasible_on_reference_combinations():
    combos = counterexample.witness_combinations()
    assert len(combos) == 8
    for covers, realizable in combos:
        assert realizable is False
        assert prefix_covers_feasible(R_REF, S_REF, covers) is False
    # each witness alone is realizable, and no cover at all asks nothing
    for covers in counterexample.witness_sets().values():
        assert all(prefix_covers_feasible(R_REF, S_REF, [cover]) for cover in covers)
    assert prefix_covers_feasible(R_REF, S_REF, [])


def test_prefix_covers_feasible_arguments():
    r, s = Partition((2, 1)), Partition((2, 1))
    assert prefix_covers_feasible(r, s, [(1.0, 2)]) == prefix_covers_feasible(r, s, [[1, 2]])
    for bad in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(BadRange):
            prefix_covers_feasible(r, s, [bad])
    for bad in ((1.5, 1), ("1", 1), (1,), 1, (1, 1, 1)):
        with pytest.raises(ValueError):
            prefix_covers_feasible(r, s, [bad])
    # a class whose weights differ carries nothing
    assert not prefix_covers_feasible(r, Partition((2,)), [(2, 1)])
