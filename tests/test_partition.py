import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ars import Partition, conjugate, is_nonempty, iter_partitions, majorized_by, margins_realizable
from ars.partition import conjugate_counts, decimal_integer

from helpers import matrices, partitions


def test_conjugate_worked_example():
    assert conjugate(Partition((4, 2, 2, 2, 1, 1, 1))).parts == (7, 4, 1, 1)


def test_conjugate_single_cell():
    assert conjugate(Partition((1,))).parts == (1,)


def test_conjugate_self_conjugate():
    # column counts of the Young diagram of (3,3,2) read (3,3,2) again
    assert conjugate(Partition((3, 3, 2))).parts == (3, 3, 2)


def test_conjugate_empty():
    assert conjugate(Partition(())).parts == ()


@given(partitions())
def test_conjugate_is_involution(p):
    q = conjugate(p)
    assert q.weight == p.weight
    assert conjugate(q) == p


@given(partitions(max_parts=7, max_part=7), st.integers(-1, 10))
@example(Partition(()), -1)
@example(Partition(()), 3)
@example(Partition((3, 1)), -1)
@example(Partition((3, 1)), 1)  # below the largest part
@example(Partition((3, 1)), 2)  # at the largest part, minus one
@example(Partition((3, 1)), 3)  # at the largest part
@example(Partition((3, 1)), 5)  # above it
def test_conjugate_counts_matches_its_definition(p, top):
    assert conjugate_counts(p, top) == [sum(v > z for v in p.parts) for z in range(top + 1)]


def test_majorization_equality_case():
    assert majorized_by(Partition((2, 1)), Partition((2, 1)))


def test_majorization_fails_at_first_prefix():
    assert not majorized_by(Partition((3, 1)), Partition((2, 2)))


def test_majorization_reference_pair():
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    r_conj = conjugate(Partition((6, 5, 4, 3, 3, 2, 2, 1, 1)))
    assert majorized_by(s, r_conj)


def test_majorization_requires_equal_weight():
    assert not majorized_by(Partition((1,)), Partition((2,)))


@given(partitions())
def test_majorization_reflexive(p):
    assert majorized_by(p, p)


def test_nonempty_reference_pair():
    r = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    assert is_nonempty(r, s)


def test_nonempty_trivial():
    assert is_nonempty(Partition((1,)), Partition((1,)))


def test_nonempty_fails_on_majorization():
    # conjugate((2,2)) = (2,2) and 3 > 2 at the first prefix
    assert not is_nonempty(Partition((2, 2)), Partition((3, 1)))


def test_nonempty_rejects_a_row_longer_than_the_columns():
    # the work is bounded by the lengths, never by the weight: a conjugate
    # of the row 10**6 built in full would take megabytes, so the peak is
    # checked before the row 10**12 is tried
    tracemalloc.start()
    try:
        assert is_nonempty(Partition((10**6,)), Partition((10**6,))) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert is_nonempty(Partition((10**12,)), Partition((10**12,))) is False
    assert is_nonempty(Partition((2, 1)), Partition((2, 1))) is True


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    # parts must equal their int(): nothing is truncated or parsed
    for bad in ((2.7, 1.2), ("3", 1), (None,), ("x",), (float("nan"),), (float("inf"),)):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(bad)
    assert Partition((3, True)).parts == (3, 1)
    assert Partition((2.0, 1)).parts == (2, 1)
    assert all(type(v) is int for v in Partition((2.0, True)).parts)


def test_from_loose_sorts_and_strips():
    assert Partition.from_loose((1, 0, 2)).parts == (2, 1)
    assert Partition.from_loose((0, 0)).parts == ()


def test_text_round_trip():
    p = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    assert Partition.from_text(p.to_text()) == p
    assert Partition.from_text(" 2, 1 ").parts == (2, 1)


NOT_DECIMAL = ("+2", " +1", "1_0", "\u0662", "\u00b2", "2.0", "", "-", "--1", "1 ", "0x1", "x")


def test_decimal_integer_reads_ascii_digits_only():
    """An optional "-" and then ASCII digits; int() would also read a
    sign "+", blanks, underscores and the digits of other scripts."""
    assert decimal_integer("12", "part") == 12
    assert decimal_integer("-1", "part") == -1
    assert decimal_integer("007", "part") == 7
    for text in NOT_DECIMAL:
        with pytest.raises(ValueError) as exc:
            decimal_integer(text, "part")
        assert str(exc.value) == f"part {text!r} is not an integer in ASCII decimal digits"


def test_from_text_reads_ascii_digits_only():
    for text in ("+2,2", "2,\u0662", "1_0", "2,+1"):
        with pytest.raises(ValueError, match="is not an integer in ASCII decimal digits"):
            Partition.from_text(text)


def test_margins_realizable_loose():
    assert margins_realizable((1, 0, 2), (2, 1, 0))
    assert not margins_realizable((2, 2), (3, 1))
    # a row longer than the positive columns, though not than all columns
    assert not margins_realizable((3,), (2, 1, 0, 0))
    assert not margins_realizable((3, 1), (0, 2, 2, 0))
    assert margins_realizable((), ()) and margins_realizable((0, 0), (0,))
    assert not margins_realizable((1,), ()) and not margins_realizable((), (1,))
    # integral floats count as their ints
    assert margins_realizable((2.0, 1), (2, 1)) and not margins_realizable((2.0, 2), (3.0, 1))
    assert margins_realizable((2, 1), (2.0, 1.0))
    # a fraction in either sequence raises, whatever the other tests say
    for rows, cols in (((1.5, 0.5), (1, 1)), ((1, 1, 1), (1.5, 1.5)), ((2, 1), (1.5, 1.5))):
        with pytest.raises(ValueError):
            margins_realizable(rows, cols)


def _gale_ryser(rows, cols):
    """The textbook Gale-Ryser test on the promoted margins: equal weights,
    and the columns majorized by the conjugate of the rows."""
    rp, cp = Partition.from_loose(rows), Partition.from_loose(cols)
    return rp.weight == cp.weight and majorized_by(cp, conjugate(rp))


@given(st.lists(st.integers(0, 7), max_size=7), st.lists(st.integers(0, 7), max_size=7))
@settings(max_examples=300)
def test_margins_realizable_matches_gale_ryser(rows, cols):
    """Loose sequences: zeros, any order and, mostly, unequal weights."""
    want = _gale_ryser(rows, cols)
    assert margins_realizable(rows, cols) == want
    assert margins_realizable(iter(rows), iter(cols)) == want


@given(matrices(max_m=6, max_n=6), st.data())
@settings(max_examples=300)
def test_margins_realizable_matches_gale_ryser_at_equal_weight(a, data):
    """The margins of a matrix, shuffled, with zero lines, and with one
    unit moved between two rows, which may make them unrealizable."""
    rows = data.draw(st.permutations(a.row_sums + (0,) * data.draw(st.integers(0, 2))))
    cols = data.draw(st.permutations(a.col_sums + (0,) * data.draw(st.integers(0, 2))))
    assert margins_realizable(rows, cols)
    i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
    if rows[j]:
        moved = list(rows)
        moved[i] += 1
        moved[j] -= 1
        assert margins_realizable(moved, cols) == _gale_ryser(moved, cols)


def test_iter_partitions_counts():
    # partitions with at most 4 parts, weight 1..8
    expected = [1, 2, 3, 5, 6, 9, 11, 15]
    got = [sum(1 for _ in iter_partitions(4, w)) for w in range(1, 9)]
    assert got == expected


def test_iter_partitions_are_valid():
    for w in range(1, 7):
        ps = list(iter_partitions(3, w))
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert p.weight == w and len(p) <= 3


def test_zero_padded_access():
    p = Partition((3, 1))
    assert p.part(0) == 3 and p.part(1) == 1 and p.part(5) == 0


def test_hash_survives_pickle_and_copy():
    import copy
    import pickle

    p = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p) == hash(p.parts)
    assert {Partition((2, 1)): 1}[Partition.from_loose((1, 0, 2))] == 1
