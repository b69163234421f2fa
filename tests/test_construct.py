import hashlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    CoverSpec,
    Partition,
    apply_interchange,
    canonical_column_submatrix,
    construct_uniform_minimizer,
    cover_exists,
    in_class,
    interchange_path,
    is_covered,
    min_t_term_rank,
    modified_ryser,
    ryser_canonical,
    t_term_rank,
    two_cover_exists,
    two_cover_matrix,
    two_cover_parts,
)
import ars.construct
from ars.construct import _descending_order, _residual_core, _shift_columns
from ars.errors import (
    BadCoverOrder,
    BadRange,
    EmptyClass,
    InfeasibleShift,
    InvalidInterchange,
    NotSameClass,
    VerificationFailed,
)
from ars.partition import clear_kept_classes
from ars.structure import cover_frontier

from test_structure import PROFILE_SHAPES, _profile_class, _random_quad

R_69 = Partition((4, 2, 2, 2, 1, 1, 1))
S_69 = Partition((2, 2, 2, 2, 1, 1, 1, 1, 1))

SINGLE_COVER_GOLDEN = BinaryMatrix(
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

TWO_COVER_GOLDEN = BinaryMatrix(
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


def test_sort_permutation_is_stable():
    assert _descending_order((1, 0, 2)) == [2, 0, 1]
    # equal values keep their original relative order
    assert _descending_order((1, 1, 2)) == [2, 0, 1]


def test_canonical_two_singletons():
    assert ryser_canonical(Partition((1, 1)), Partition((1, 1))) == BinaryMatrix(
        [[1, 0], [0, 1]]
    )


def test_canonical_single_row():
    assert ryser_canonical(Partition((4,)), Partition((1, 1, 1, 1))) == BinaryMatrix(
        [[1, 1, 1, 1]]
    )


def test_canonical_raises_on_empty_class():
    with pytest.raises(EmptyClass):
        ryser_canonical(Partition((2, 2)), Partition((3, 1)))


def test_canonical_lands_in_class(small_classes):
    for (r, s) in small_classes:
        a = ryser_canonical(r, s)
        assert in_class(a, r, s)
        assert ryser_canonical(r, s) == a  # deterministic


def test_column_submatrix_golden():
    block, rhat = canonical_column_submatrix(R_69, S_69, 2, 4)
    assert block == BinaryMatrix([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0]])
    assert rhat == (3, 2)


def test_column_submatrix_swapped_roles():
    block, shat = canonical_column_submatrix(S_69, R_69, 3, 3)
    assert block == BinaryMatrix([[0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    assert shat == (1, 2, 2)


def test_column_submatrix_full_f_is_empty_block():
    block, rhat = canonical_column_submatrix(R_69, S_69, 3, len(S_69))
    assert (block.m, block.n) == (3, 0)
    assert rhat == (0, 0, 0)


def test_column_submatrix_infeasible_shift():
    # no live rows at all, but columns still demand ones
    with pytest.raises(InfeasibleShift):
        canonical_column_submatrix(Partition((2, 1)), Partition((2, 1)), 0, 1)


def test_column_submatrix_range_check():
    with pytest.raises(BadRange):
        canonical_column_submatrix(R_69, S_69, 8, 0)
    with pytest.raises(BadRange):
        canonical_column_submatrix(R_69, S_69, 0, 10)


def test_modified_ryser_golden():
    assert modified_ryser(R_69, S_69, 2, 4) == SINGLE_COVER_GOLDEN


def test_modified_ryser_degenerate_cover_is_canonical():
    assert modified_ryser(R_69, S_69, len(R_69), len(S_69)) == ryser_canonical(R_69, S_69)


def test_modified_ryser_row_cover_is_the_transposed_canonical(small_classes):
    # the cover (0, n) has no rows, so the whole matrix is the column
    # block: the canonical matrix of the transposed class
    for r, s in [(R_69, S_69), *small_classes]:
        a = modified_ryser(r, s, 0, len(s))
        assert a.rows == tuple(zip(*ryser_canonical(s, r).rows))
        _assert_own_margins(a)


def test_modified_ryser_square_cover_on_worked_pair():
    assert cover_exists(R_69, S_69, 3, 3)
    a = modified_ryser(R_69, S_69, 3, 3)
    assert in_class(a, R_69, S_69)
    assert is_covered(a, CoverSpec.prefix(3, 3))


def test_modified_ryser_sweep(small_classes):
    for (r, s) in small_classes:
        m, n = len(r), len(s)
        for e in range(m + 1):
            for f in range(n + 1):
                if not cover_exists(r, s, e, f):
                    with pytest.raises(InfeasibleShift, match=re.escape(
                        f"no class member is covered by its first {e} rows "
                        f"and first {f} columns"
                    )):
                        modified_ryser(r, s, e, f)
                    continue
                a = modified_ryser(r, s, e, f)
                assert in_class(a, r, s)
                assert is_covered(a, CoverSpec.prefix(e, f))


def test_two_cover_golden_and_parts():
    parts = two_cover_parts(R_69, S_69, (2, 4), (3, 3))
    assert parts.matrix == TWO_COVER_GOLDEN
    assert parts.canonical_core == BinaryMatrix(
        [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert parts.residual_row_sums == (1, 0, 2)
    assert parts.residual_col_sums == (1, 0, 0, 2)
    assert parts.cover_wide == (2, 4) and parts.cover_tall == (3, 3)


def test_two_cover_accepts_either_order():
    assert two_cover_matrix(R_69, S_69, (3, 3), (2, 4)) == TWO_COVER_GOLDEN


def test_two_cover_residual_consistency():
    parts = two_cover_parts(R_69, S_69, (2, 4), (3, 3))
    e1 = parts.cover_wide[0]
    for i, rbar in enumerate(parts.residual_row_sums):
        shifted = parts.row_block.row_sums[i] if i < e1 else 0
        assert shifted + rbar == R_69[i]
    f2 = parts.cover_tall[1]
    for j, sbar in enumerate(parts.residual_col_sums):
        shifted = parts.col_block.row_sums[j] if j < f2 else 0
        assert shifted + sbar == S_69[j]


@pytest.mark.parametrize("rbar, sbar, message", [
    ((2, 1), (3,), "need 3 rows"),
    ((3, 1), (2, 2), "more ones than the 1 live columns"),
    ((1, 1), (1,), "more ones than the 0 live columns"),  # weights differ
])
def test_residual_core_shift_rejects_unrealizable_margins(rbar, sbar, message):
    with pytest.raises(InfeasibleShift, match=message):
        _residual_core(rbar, sbar)


def test_two_cover_vacuous_covers_reduce_to_canonical():
    got = two_cover_matrix(R_69, S_69, (0, len(S_69)), (len(R_69), 0))
    assert got == ryser_canonical(R_69, S_69)


def test_two_cover_rejects_non_crossing():
    with pytest.raises(BadCoverOrder):
        two_cover_matrix(R_69, S_69, (1, 2), (2, 3))  # (1,2) dominates
    with pytest.raises(BadCoverOrder):
        two_cover_matrix(R_69, S_69, (2, 4), (2, 3))  # equal row counts
    with pytest.raises(BadRange):
        two_cover_matrix(R_69, S_69, (2, 40), (3, 3))


def test_two_cover_sweep(small_classes):
    import itertools

    for (r, s) in small_classes:
        m, n = len(r), len(s)
        for e1, e2 in itertools.combinations(range(m + 1), 2):
            for f2, f1 in itertools.combinations(range(n + 1), 2):
                if not two_cover_exists(r, s, e1, e2, f2, f1):
                    with pytest.raises(InfeasibleShift, match=re.escape(
                        f"no class member carries covers ({e1},{f1}) and "
                        f"({e2},{f2}) simultaneously"
                    )):
                        two_cover_matrix(r, s, (e1, f1), (e2, f2))
                    continue
                a = two_cover_matrix(r, s, (e1, f1), (e2, f2))
                assert in_class(a, r, s)
                assert is_covered(a, CoverSpec.prefix(e1, f1))
                assert is_covered(a, CoverSpec.prefix(e2, f2))


def _block_record(block):
    return block.m, block.n, block.rows


def _shift_record(r, s, e, f):
    try:
        block, rhat = canonical_column_submatrix(r, s, e, f)
    except InfeasibleShift:
        return None
    return _block_record(block), rhat


def _pinned_classes():
    """The seeded classes and quads of test_class_answers_are_pinned, plus
    the degenerate covers with an empty row or column block (e1 = 0,
    f2 = 0, e2 = m, f1 = n): yields (r, s, quads)."""
    rng = random.Random(20261019)
    for q in range(60):
        m, n = PROFILE_SHAPES[q % len(PROFILE_SHAPES)]
        r, s = _profile_class(rng, m, n)
        front = cover_frontier(r, s)
        quads = [_random_quad(rng, m, n) for _ in range(3)]
        for _ in range(3):  # the same draws as test_class_answers_are_pinned
            a, b = sorted(rng.sample(range(m + 1), 2))
            c = min(n - 1, front[b] + rng.randint(0, 1))
            quads.append((a, b, c, max(c + 1, min(n, front[a] + rng.randint(0, 1)))))
        quads += [(0, b, c, d) for a, b, c, d in quads[:2]]
        quads += [(a, b, 0, d) for a, b, c, d in quads[:2]]
        quads += [(a, m, c, d) for a, b, c, d in quads[:2]]
        quads += [(a, b, c, n) for a, b, c, d in quads[:2]]
        quads.append((0, m, 0, n))
        yield r, s, quads


def test_construction_pieces_are_pinned():
    """On _pinned_classes, every field of two_cover_parts and both
    canonical column blocks of each cover hash to a fixed digest: the
    blocks, the residual margins and the sorted-frame core may not change
    when the assembly does."""
    digest = hashlib.sha256()
    for r, s, quads in _pinned_classes():
        answer = [r.parts, s.parts]
        for a, b, c, d in quads:
            for e, f in ((a, d), (b, c)):
                answer.append((_shift_record(r, s, e, f), _shift_record(s, r, f, e)))
            if not two_cover_exists(r, s, a, b, c, d):
                answer.append(None)
                continue
            parts = two_cover_parts(r, s, (a, d), (b, c))
            answer.append((
                parts.cover_wide,
                parts.cover_tall,
                _block_record(parts.row_block),
                _block_record(parts.col_block),
                parts.residual_row_sums,
                parts.residual_col_sums,
                _block_record(parts.canonical_core),
                _block_record(parts.matrix),
            ))
        digest.update(repr(answer).encode())
    assert digest.hexdigest() == "a09be538cf1ff1b036adb08df4957f95a30a3ba729c2b96c79f85ff92a831952"


def _assert_own_margins(a):
    # the constructions build without the constructor's entry check, so
    # their stored margins must be the ones a checked build recomputes
    checked = BinaryMatrix(a.rows)
    assert checked == a
    assert (checked.row_sums, checked.col_sums) == (a.row_sums, a.col_sums)


def test_constructions_carry_their_own_margins():
    for r, s, quads in _pinned_classes():
        _assert_own_margins(ryser_canonical(r, s))
        _, (e, f) = min_t_term_rank(r, s, 1)
        _assert_own_margins(modified_ryser(r, s, e, f))
        for a, b, c, d in quads:
            for e, f in ((a, d), (b, c)):
                for rows, cols, size, width in ((r, s, e, f), (s, r, f, e)):
                    try:
                        block, _ = canonical_column_submatrix(rows, cols, size, width)
                    except InfeasibleShift:
                        continue
                    _assert_own_margins(block)
            if two_cover_exists(r, s, a, b, c, d):
                parts = two_cover_parts(r, s, (a, d), (b, c))
                for piece in (parts.row_block, parts.col_block, parts.canonical_core, parts.matrix):
                    _assert_own_margins(piece)


def _shift_by_rule(row_sums, col_sums, e, f):
    """The column shift stated directly: column k, from n-1 down to f,
    takes its ones from the rows of largest live sum, bottommost on ties.
    Returns (column row-lists in pick order, ones given up per row) or
    the InfeasibleShift message."""
    live = list(row_sums[:e])
    cols = []
    for k in range(len(col_sums) - 1, f - 1, -1):
        ranked = sorted((i for i in range(e) if live[i] > 0), key=lambda i: (live[i], i), reverse=True)
        if len(ranked) < col_sums[k]:
            return f"need {col_sums[k]} rows with ones left, only {len(ranked)} available"
        for i in ranked[: col_sums[k]]:
            live[i] -= 1
        cols.insert(0, ranked[: col_sums[k]])
        if any(v > k for v in live):
            return f"a row holds more ones than the {k} live columns can carry"
    return cols, [v - left for v, left in zip(row_sums, live)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_shift_columns_follows_the_rule(data):
    row_sums = data.draw(st.lists(st.integers(0, 6), max_size=7))
    col_sums = data.draw(st.lists(st.integers(0, 7), max_size=7))
    e = data.draw(st.integers(0, len(row_sums)))
    f = data.draw(st.integers(0, len(col_sums)))
    try:
        got = _shift_columns(row_sums, col_sums, e, f)
    except InfeasibleShift as exc:
        got = str(exc)
    assert got == _shift_by_rule(row_sums, col_sums, e, f)


def test_interchange_path_single_step():
    a = BinaryMatrix([[0, 1], [1, 0]])
    b = BinaryMatrix([[1, 0], [0, 1]])
    path = interchange_path(a, b)
    assert len(path) == 1
    i1, i2, j1, j2 = path[0]
    assert {i1, i2} == {0, 1} and {j1, j2} == {0, 1}


def test_interchange_path_identity():
    a = BinaryMatrix([[1, 0], [0, 1]])
    assert interchange_path(a, a) == ()


def test_interchange_path_rejects_different_margins():
    with pytest.raises(NotSameClass):
        interchange_path(BinaryMatrix([[1, 0]]), BinaryMatrix([[1, 1]]))
    with pytest.raises(NotSameClass):
        interchange_path(BinaryMatrix([[1, 0], [0, 1]]), BinaryMatrix([[1, 0]]))


def test_interchange_path_different_normal_forms_is_an_internal_fault(cold_classes, monkeypatch):
    # each leg must end on the canonical shift of the shared margins; a
    # normal form that interchanges cannot reach means a bug, so a shift
    # that put both ones of the identity in column 0 must be caught; the
    # kept shift is dropped before and after, so the patched shift is
    # the one read and no other test reads it
    a = BinaryMatrix([[1, 0], [0, 1]])
    monkeypatch.setattr(ars.construct, "_shift_columns", lambda *args: ([[0, 1], []], [1, 1]))
    with pytest.raises(VerificationFailed, match="different normal forms"):
        interchange_path(a, a)


def _moved_unit(parts):
    """parts with one unit moved from its first largest to its last
    smallest part: still nonincreasing, and majorized by parts."""
    p = list(parts)
    assert p[0] - p[-1] >= 2
    p[p.index(p[0]) + p.count(p[0]) - 1] -= 1
    p[p.index(p[-1])] += 1
    return Partition(p)


def test_kept_shift_answers_as_a_fresh_one():
    """ryser_canonical and interchange_path to, from and between copies of
    the canonical matrix, over the classes A, B, A, C, A: B has A's row
    sums, C has A's column sums.  The partitions are the same objects,
    equal copies, or equal copies with endpoints from the checked
    constructor; in each case every answer equals the one computed from
    an emptied kept record, and every path replays."""
    r, s = _profile_class(random.Random(20261020), 12, 12)
    classes = {"A": (r, s), "B": (r, _moved_unit(s.parts)), "C": (_moved_unit(r.parts), s)}

    def ends(r, s, canonical, checked):
        x = modified_ryser(r, s, *min_t_term_rank(r, s, 1)[1])
        if checked:
            x = BinaryMatrix(x.rows)
        return [(x, canonical), (canonical, x), (x, BinaryMatrix(canonical.rows))]

    def fresh(f, *args):
        clear_kept_classes()
        return f(*args)

    expected = {}
    for name, (r, s) in classes.items():
        canonical = fresh(ryser_canonical, r, s)
        paths = [fresh(interchange_path, a, b) for a, b in ends(r, s, canonical, False)]
        expected[name] = canonical, paths
    for mode in ("same", "copies", "checked"):
        clear_kept_classes()
        for name in "ABACA":
            r, s = classes[name]
            if mode != "same":
                r, s = Partition(r.parts), Partition(s.parts)
            canonical = ryser_canonical(r, s)
            assert canonical == expected[name][0], (mode, name)
            for (a, b), want in zip(ends(r, s, canonical, mode == "checked"), expected[name][1]):
                path = interchange_path(a, b)
                assert path == want, (mode, name)
                for step in path:
                    a = apply_interchange(a, *step)
                assert a == b


def test_interchange_path_replay(small_classes):
    checked = 0
    for (r, s), mats in small_classes.items():
        if len(mats) < 2:
            continue
        a, b = mats[0], mats[-1]
        current = a
        for i1, i2, j1, j2 in interchange_path(a, b):
            current = apply_interchange(current, i1, i2, j1, j2)
            assert in_class(current, r, s)  # every intermediate stays in class
        assert current == b
        checked += 1
        if checked >= 30:
            break
    assert checked > 0


def _loose_margin_pairs():
    """Seeded pairs (a, b) of 2x2 to 9x9 matrices with equal margins that
    are unsorted or hold zeros; b is a random interchange walk from a."""
    rng = random.Random(20261019)
    pairs = []
    while len(pairs) < 80:
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        density = rng.uniform(0.2, 0.7)
        a = BinaryMatrix([[int(rng.random() < density) for _ in range(n)] for _ in range(m)])
        if 0 not in a.row_sums + a.col_sums and list(a.row_sums) == sorted(a.row_sums, reverse=True) \
                and list(a.col_sums) == sorted(a.col_sums, reverse=True):
            continue
        b = a
        for _ in range(rng.randint(0, 3 * m * n)):
            i1, i2 = rng.sample(range(m), 2)
            j1, j2 = rng.sample(range(n), 2)
            try:
                b = apply_interchange(b, i1, i2, j1, j2)
            except InvalidInterchange:
                pass
        pairs.append((a, b))
    return pairs


def test_interchange_path_is_pinned_on_loose_margins():
    """The interchange paths between _loose_margin_pairs hash to a fixed
    digest, and each replays from a to b."""
    digest = hashlib.sha256()
    for a, b in _loose_margin_pairs():
        path = interchange_path(a, b)
        current = a
        for step in path:
            current = apply_interchange(current, *step)
        assert current == b
        digest.update(repr((a.rows, b.rows, path)).encode())
    assert digest.hexdigest() == "7472289bc104a033eec0cd1ee64e4d815061a314fb5329a50d00e0c6993209fe"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_interchange_path_replay_random_margins(data):
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                              min_size=4, max_size=4))
    a = BinaryMatrix(rows)
    perm_r = data.draw(st.permutations(range(4)))
    perm_c = data.draw(st.permutations(range(4)))
    # a row/column shuffle keeps the margins but usually not the matrix,
    # and the margin vectors themselves need not be monotone
    b = BinaryMatrix([[a.rows[i][j] for j in perm_c] for i in perm_r])
    if b.row_sums != a.row_sums or b.col_sums != a.col_sums:
        return
    current = a
    for i1, i2, j1, j2 in interchange_path(a, b):
        current = apply_interchange(current, i1, i2, j1, j2)
    assert current == b


def test_uniform_minimizer_reference_pair_absent():
    r = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    assert construct_uniform_minimizer(r, s, 6) is None


def test_uniform_minimizer_mismatch_raises():
    r, s = Partition((2, 1, 1)), Partition((1, 1, 1, 1))
    with mock.patch("ars.flow.t_term_ranks", return_value=iter([3, 5])):
        with pytest.raises(VerificationFailed, match="built matrix has 2-term rank 5, class minimum is 4"):
            construct_uniform_minimizer(r, s, 2)


def test_uniform_minimizer_small_instance():
    r, s = Partition((2, 1, 1)), Partition((1, 1, 1, 1))
    a = construct_uniform_minimizer(r, s, 2)
    assert a is not None and in_class(a, r, s)
    for k in (1, 2):
        assert t_term_rank(a, k) == min_t_term_rank(r, s, k)[0]
