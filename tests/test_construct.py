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
from ars.construct import _descending_order
from ars.errors import (
    BadCoverOrder,
    BadRange,
    EmptyClass,
    InfeasibleShift,
    NotSameClass,
    VerificationFailed,
)

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
                    continue
                a = two_cover_matrix(r, s, (e1, f1), (e2, f2))
                assert in_class(a, r, s)
                assert is_covered(a, CoverSpec.prefix(e1, f1))
                assert is_covered(a, CoverSpec.prefix(e2, f2))


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
