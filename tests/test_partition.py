import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ars import Partition, conjugate, is_nonempty, iter_partitions, majorized_by, margins_realizable
from ars import CoverSpec, construct, flow, structure
from ars.binmat import cover_sets
from ars.oracle import enumerate_class
from ars.partition import KeptClass, clear_kept_classes, conjugate_counts, decimal_integer
from ars.partition import prefix_cover

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


# the most digits int() converts from text, 0 where it has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="int() takes any number of digits")


@needs_digit_limit
def test_decimal_integer_too_long_names_what_and_not_the_digits():
    """int() refuses over-long text with a hint at a sys setting; the
    message names what is too long and does not repeat the digits."""
    digits = "1" * (INT_DIGITS + 1)
    for text in (digits, "-" + digits):
        with pytest.raises(ValueError) as exc:
            decimal_integer(text, "part")
        assert str(exc.value) == f"part is too long: {len(digits)} digits"
    with pytest.raises(ValueError, match="^part is too long"):
        Partition.from_text(f"2,{digits}")
    assert decimal_integer("1" * INT_DIGITS, "part") == int("1" * INT_DIGITS)


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


class _Data:
    """A build result that a weakref can point at."""

    def __init__(self, r, s):
        self.pair = (r, s)


def _slot():
    """A fresh KeptClass and the list of the pairs it built."""
    built = []

    def build(r, s):
        built.append((r, s))
        return _Data(r, s)

    return KeptClass(build), built


def test_kept_class_hits_an_identical_pair():
    slot, built = _slot()
    r, s = Partition((2, 1)), Partition((2, 1))
    data = slot.get(r, s)
    entry = slot.entry
    assert slot.get(r, s) is data and slot.entry is entry
    assert entry[0] is r and entry[1] is s and entry[2] is data
    assert built == [(r, s)]


def test_kept_class_hands_an_equal_pair_the_slot():
    """An equal but distinct pair reuses the data and takes over the
    slot, so its next query is an identity hit; margin tuples work as
    partitions do."""
    slot, built = _slot()
    r, s = Partition((2, 1)), Partition((2, 1))
    data = slot.get(r, s)
    for pair in ((Partition(r.parts), s), (r, Partition(s.parts)), (Partition((2, 1)),) * 2):
        assert slot.get(*pair) is data
        assert slot.entry[0] is pair[0] and slot.entry[1] is pair[1]
    assert len(built) == 1
    margins = slot.get((2, 1), (2, 1))
    assert slot.get(tuple([2, 1]), tuple([2, 1])) is margins and len(built) == 2


def test_kept_class_frees_the_data_of_the_last_class():
    slot, built = _slot()
    r, s = Partition((2, 1)), Partition((2, 1))
    old = weakref.ref(slot.get(r, s))
    new = slot.get(r, Partition((1, 1, 1)))
    assert old() is None
    assert slot.entry[2] is new and new.pair == (r, Partition((1, 1, 1)))
    assert len(built) == 2


def test_kept_class_build_that_raises_leaves_the_slot():
    def build(r, s):
        if r != s:
            raise ValueError("no such class")
        return _Data(r, s)

    slot = KeptClass(build)
    r = Partition((2, 1))
    data = slot.get(r, r)
    entry = slot.entry
    with pytest.raises(ValueError, match="no such class"):
        slot.get(r, Partition((3,)))
    assert slot.entry is entry and slot.get(r, r) is data


def test_clear_kept_classes_empties_every_layer():
    """One reset empties the structure tables, the canonical shift, the
    shared rank kernels and any other slot; the next queries answer as
    before from cold."""
    r = s = Partition((2, 2, 1))
    slot, built = _slot()
    slot.get(r, s)

    def queries():
        return (
            structure.cover_frontier(r, s),
            construct.ryser_canonical(r, s),
            flow.t_term_rank(next(enumerate_class(r, s)), 2),
        )

    warm = queries()
    layers = (structure._kept, construct._kept, flow._kept, slot)
    assert all(kept.entry[2] is not None for kept in layers)
    clear_kept_classes()
    assert all(kept.entry == (None, None, None) for kept in layers)
    assert queries() == warm
    assert slot.get(r, s) is not None and len(built) == 2


LONG = tuple(range(100000))
PAIR = Partition((2, 1)), Partition((2, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Partition(LONG),  # not nonincreasing
        lambda: Partition([0] * 100000),  # not positive
        lambda: Partition([0.5] * 100000),  # not integers
        lambda: prefix_cover(LONG, 2, 2),  # not a pair
        lambda: flow.multi_cover_feasible(*PAIR, [LONG]),
        lambda: cover_sets(CoverSpec(len(LONG), 0, rows=LONG), 2, 2),  # off the grid
        lambda: flow.multi_cover_feasible(*PAIR, [CoverSpec(len(LONG), 0, rows=LONG)]),
    ],
    ids=["nonincreasing", "positive", "integers", "pair", "pair-flow", "cover", "cover-flow"],
)
def test_over_long_inputs_give_short_messages(call):
    """A usage error shows a long input by the start of its repr, its
    type and its length; a short input keeps its whole repr (see the
    exact texts above)."""
    with pytest.raises(ValueError) as exc:
        call()
    assert len(str(exc.value)) < 200 and "... (" in str(exc.value)
