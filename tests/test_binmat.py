import copy
import pickle
import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    CoverSpec,
    Partition,
    apply_interchange,
    enumerate_class,
    feasible_bounded,
    in_class,
    is_covered,
    min_cover_value,
    t_term_ranks,
)
from ars.binmat import cover_sets
from ars.errors import BadRange, InvalidInterchange
from ars.oracle import min_cover_values

from helpers import matrices

FLOW_EXAMPLE = BinaryMatrix([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])

TWO_COVER_OUTPUT = BinaryMatrix(
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

SINGLE_COVER_OUTPUT = BinaryMatrix(
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


def test_constructor_rejects_bad_entries():
    with pytest.raises(ValueError, match="^entries must be 0 or 1, got 2$"):
        BinaryMatrix([[0, 2]])
    with pytest.raises(ValueError, match="^entries must be 0 or 1, got -1$"):
        BinaryMatrix([[0, 1], [1, -1]])
    # non-integers are rejected, not truncated or parsed
    with pytest.raises(ValueError, match="^entries must be 0 or 1, got 0.5$"):
        BinaryMatrix([[0.5, 1.9]])
    with pytest.raises(ValueError, match="^entries must be 0 or 1, got '1'$"):
        BinaryMatrix([["1", "0"]])
    with pytest.raises(ValueError, match="^entries must be 0 or 1, got 0.5$"):
        BinaryMatrix.from_json_obj({"m": 1, "n": 2, "rows": [[0.5, True]]})
    # entries equal to 0 or 1 come out as ints
    assert BinaryMatrix([[True, 1.0, False]]).rows == ((1, 1, 0),)
    assert set(map(type, BinaryMatrix([[True, 1.0, False]]).rows[0])) == {int}
    with pytest.raises(ValueError, match="^ragged rows$"):
        BinaryMatrix([[0, 1], [1]])
    for rows in ([[], [1]], [[1], []]):
        with pytest.raises(ValueError, match="^ragged rows$"):
            BinaryMatrix(rows)
    for m in (0, 1, 3):
        a = BinaryMatrix([[]] * m)
        assert (a.m, a.n, a.row_sums, a.col_sums) == (m, 0, (0,) * m, ())


def test_ranking_leaves_the_value_unchanged():
    """The rank kernel state a matrix keeps once ranked shows in none of
    its value behaviour, and clones start without it."""
    a, plain = BinaryMatrix(FLOW_EXAMPLE.rows), BinaryMatrix(FLOW_EXAMPLE.rows)

    def value(x):
        return hash(x), repr(x), x.to_json_obj(), x.to_text(), pickle.dumps(x)

    before = value(a)
    ranks = list(islice(t_term_ranks(a), 5))
    assert a._rank_state is not None
    assert a == plain and value(a) == before == value(plain)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and value(clone) == before and clone._rank_state is None
        assert list(islice(t_term_ranks(clone), 5)) == ranks


def test_row_bits_leave_the_value_unchanged():
    """Every builder stores the row bitmasks, the enumerated member and
    the constructor's matrix of its rows alike; hashing, repr, the JSON
    and text forms, pickling and copying give both the same value, and
    clones store the same bitmasks."""
    a = next(enumerate_class(Partition((2, 1, 1)), Partition((2, 1, 1))))
    plain = BinaryMatrix(a.rows)
    assert a._row_bits == (0b011, 0b001, 0b100) == plain._row_bits

    def value(x):
        return hash(x), repr(x), x.to_json_obj(), x.to_text(), pickle.dumps(x)

    assert a == plain and value(a) == value(plain)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and value(clone) == value(a) and clone._row_bits == a._row_bits
    assert apply_interchange(a, 0, 2, 0, 2)._row_bits == (0b110, 0b001, 0b001)


def spelled(a):
    """The constructor's matrix of the rows a's bitmasks spell."""
    return BinaryMatrix([[mask >> j & 1 for j in range(a.n)] for mask in a._row_bits])


def test_unread_rows_leave_the_value_unchanged():
    """An enumerated member builds its rows on first read.  Before that
    read, each value behaviour equals that of the constructor's matrix of
    the same rows; each behaviour is taken from fresh members, since
    equality and hashing read the rows."""
    def by_bytes(x, y):
        return pickle.dumps(x) == pickle.dumps(y)

    views = (
        lambda x, y: x == y and y == x,
        lambda x, y: hash(x) == hash(y),
        lambda x, y: repr(x) == repr(y),
        by_bytes,
        lambda x, y: x.to_json_obj() == y.to_json_obj(),
        lambda x, y: x.to_text() == y.to_text(),
    )
    for r, s in [
        ((2, 1, 1), (2, 1, 1)),
        ((3, 2, 2, 1), (3, 3, 2)),
        ((1, 1, 1), (3,)),
        ((4, 2), (1,) * 6),
        ((8, 8), (2,) * 8),
    ]:
        for same in views:
            for a in enumerate_class(Partition(r), Partition(s)):
                plain = spelled(a)
                assert a._rows is None and same(a, plain), (r, s)
                assert a.rows == plain.rows and a._rows is a.rows


def mask_born(bits, n):
    """The matrix of the row bitmasks bits at width n, built as class
    enumeration builds its members: from the bitmasks alone, its rows
    unbuilt."""
    a = BinaryMatrix.__new__(BinaryMatrix)
    col_sums = tuple(sum(mask >> j & 1 for mask in bits) for j in range(n))
    a._store(tuple(bits), tuple(mask.bit_count() for mask in bits), col_sums)
    return a


def test_wide_unread_rows_match_the_constructor():
    """Unbuilt rows are decoded eight columns at a time.  At every width
    up to 40, at 64 and 65, and for enumerated members 9, 16 and 17
    columns wide, each value behaviour equals that of the constructor's
    matrix of the same rows, each taken from a fresh unread matrix."""
    rng = random.Random(8)
    makers = []
    for n in (*range(41), 64, 65):
        full = (1 << n) - 1
        bits = (0, full, full & int("01" * 33, 2), 1 << n >> 1, 1 & full)
        bits += tuple(rng.getrandbits(n) for _ in range(3))
        makers.append(lambda bits=bits, n=n: mask_born(bits, n))
    for r, s in [((9,), (1,) * 9), ((8, 8), (2,) * 8), ((17,), (1,) * 17)]:
        makers.append(lambda r=r, s=s: next(enumerate_class(Partition(r), Partition(s))))
    views = (
        lambda x: x.rows,
        lambda x: x.to_json_obj(),
        lambda x: x.to_text(),
        hash,
        lambda x: x == plain and plain == x,
    )
    for make in makers:
        plain = spelled(make())
        for view in views:
            a = make()
            assert a._rows is None and view(a) == view(plain), (a.n, a._row_bits)


def row_masks(rows):
    return tuple(sum(v << j for j, v in enumerate(row)) for row in rows)


def pickled(a):
    return pickle.loads(pickle.dumps(a))


@given(matrices(max_m=5, max_n=9, min_m=0, min_n=0), st.data())
@settings(max_examples=80)
def test_every_builder_stores_the_row_bitmasks(a, data):
    """Whichever builder made a matrix (the constructor, from_column_sets,
    apply_interchange, class enumeration, a pickle or copy clone, or a
    feasible_bounded witness), its _row_bits spell its rows, and == and
    hash agree with equality of shape and rows; m-by-0 and 0x0 matrices
    included."""
    cols = [[i for i in range(a.m) if a.rows[i][j]] for j in range(a.n)]
    built = [a, BinaryMatrix.from_column_sets(cols, a.row_sums, a.col_sums)]
    spots = [
        (i1, i2, j1, j2)
        for i1, i2 in combinations(range(a.m), 2)
        for j1, j2 in combinations(range(a.n), 2)
        if a.rows[i1][j1] == a.rows[i2][j2] != a.rows[i1][j2] == a.rows[i2][j1]
    ]
    if spots:
        built.append(apply_interchange(a, *data.draw(st.sampled_from(spots))))
    r, s = Partition.from_loose(a.row_sums), Partition.from_loose(a.col_sums)
    built.append(data.draw(st.sampled_from(list(islice(enumerate_class(r, s), 20)))))
    built.append(feasible_bounded(r, s, [[1] * len(s)] * len(r)))
    built += [clone(b) for b in built for clone in (copy.copy, copy.deepcopy, pickled)]
    for b in built:
        assert len(b._row_bits) == b.m and all(0 <= mask < 1 << b.n for mask in b._row_bits)
        assert b._row_bits == row_masks(b.rows)
        assert in_class(b, map(sum, b.rows), map(sum, zip(*b.rows)))
    assert built[1] == a and built[1].rows == a.rows
    for x in built:
        for y in built:
            same = (x.m, x.n, x.rows) == (y.m, y.n, y.rows)
            assert (x == y) == same and (not same or hash(x) == hash(y))


def test_cached_margins():
    a = FLOW_EXAMPLE
    assert a.row_sums == (4, 1, 1)
    assert a.col_sums == (3, 1, 1, 1)


def test_from_column_sets_without_rows_is_the_empty_grid():
    # the constructor makes every row-less grid 0x0, whatever the columns
    built = BinaryMatrix.from_column_sets([[], []], [], [0, 0])
    assert built == BinaryMatrix(built.rows) == BinaryMatrix([])
    assert (built.m, built.n, built.row_sums, built.col_sums) == (0, 0, (), ())
    wide = BinaryMatrix.from_column_sets([[], [0]], [1, 0], [0, 1])
    assert wide == BinaryMatrix([[0, 1], [0, 0]]) and wide.col_sums == (0, 1)


def test_text_round_trip():
    empty = [BinaryMatrix([[]] * m) for m in (0, 1, 3)]
    for a in (FLOW_EXAMPLE, BinaryMatrix([[0]]), TWO_COVER_OUTPUT, *empty):
        back = BinaryMatrix.from_text(a.to_text())
        assert back == a and (back.m, back.n) == (a.m, a.n)
    # an m-by-0 matrix needs no row lines
    assert BinaryMatrix.from_text("2 0") == BinaryMatrix([[], []])
    assert BinaryMatrix.from_text("0 0") == BinaryMatrix([])


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("2 2\n1 1\n")
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("")
    # the declared shape must be the rows' shape, as in the JSON form
    for text in ("0 3", "0 1\n# no rows"):
        with pytest.raises(ValueError, match="^declared dimensions disagree with rows$"):
            BinaryMatrix.from_text(text)
    with pytest.raises(ValueError, match="^declared dimensions disagree with rows$"):
        BinaryMatrix.from_json_obj({"m": 0, "n": 3, "rows": []})
    for text in ("1 0\n1", "2 0\n0 0", "-1 0"):
        with pytest.raises(ValueError):
            BinaryMatrix.from_text(text)


def test_text_header_is_ascii_decimal():
    """The m n header is read by decimal_integer, not int(), and neither
    entry may be negative."""
    for header in ("+1 1", "1 \u0661", "1_0 1", "1.0 1"):
        with pytest.raises(ValueError, match="^header entry .* is not an integer in ASCII"):
            BinaryMatrix.from_text(f"{header}\n1")
    for header, entry in (("-1 0", -1), ("0 -1", -1), ("-1 -2", -2), ("-2 1", -2)):
        with pytest.raises(ValueError) as exc:
            BinaryMatrix.from_text(f"{header}\n1")
        assert str(exc.value) == f"header entry {entry} is negative"


def test_text_entries_are_exactly_0_or_1():
    """Each entry is the token 0 or 1; int() would also read "+1", "01"
    or a digit one of another script."""
    assert BinaryMatrix.from_text("2 2\n1 0\n0 1") == BinaryMatrix([[1, 0], [0, 1]])
    for token in ("+1", "01", "\u0661", "2", "-0", "1.0", "x"):
        with pytest.raises(ValueError) as exc:
            BinaryMatrix.from_text(f"1 2\n0 {token}")
        assert str(exc.value) == f"entries must be 0 or 1, got {token!r}"


def test_json_round_trip():
    a = SINGLE_COVER_OUTPUT
    assert BinaryMatrix.from_json_obj(a.to_json_obj()) == a
    with pytest.raises(ValueError):
        BinaryMatrix.from_json_obj({"m": 3, "n": 1, "rows": [[1]]})


def test_in_class_basic():
    assert in_class(BinaryMatrix([[1, 1], [1, 0]]), Partition((2, 1)), Partition((2, 1)))


def test_in_class_loose_margins_rejected_entrywise():
    # row sums are (1,1), so the loose target (2,0) does not match
    assert not in_class(BinaryMatrix([[1, 0], [0, 1]]), (2, 0), (1, 1))


def test_in_class_worked_output():
    assert in_class(
        SINGLE_COVER_OUTPUT,
        Partition((4, 2, 2, 2, 1, 1, 1)),
        Partition((2, 2, 2, 2, 1, 1, 1, 1, 1)),
    )


def test_interchange_both_directions():
    a = BinaryMatrix([[1, 0], [0, 1]])
    b = apply_interchange(a, 0, 1, 0, 1)
    assert b == BinaryMatrix([[0, 1], [1, 0]])
    assert apply_interchange(b, 0, 1, 0, 1) == a


def test_interchange_rejects_other_patterns():
    with pytest.raises(InvalidInterchange):
        apply_interchange(BinaryMatrix([[1, 1], [1, 0]]), 0, 1, 0, 1)
    with pytest.raises(InvalidInterchange):
        apply_interchange(BinaryMatrix([[1, 0], [0, 1]]), 0, 0, 0, 1)


def test_interchange_indices_are_grid_positions():
    """The four indices follow exact_integers and must lie on the grid,
    as a cover's do: a negative index does not wrap to the last rows or
    columns, and one off the grid is BadRange, not IndexError."""
    a = BinaryMatrix([[1, 0], [0, 1], [1, 0]])
    assert apply_interchange(a, 0, 1.0, 0, 1) == BinaryMatrix([[0, 1], [1, 0], [1, 0]])
    for idx in ((-2, -1, 0, 1), (1, 2, -1, 0), (0, 3, 0, 1), (1, 2, 0, 2), (3, 3, 2, 2)):
        with pytest.raises(BadRange, match=r"^interchange \(.*\) out of range for 3x2$"):
            apply_interchange(a, *idx)
    for idx in ((0, 1, 0, 2.5), (0.5, 1, 0, 1), (0, "1", 0, 1), (0, 1, None, 1)):
        with pytest.raises(ValueError, match="^interchange indices must be integers, got "):
            apply_interchange(a, *idx)


@given(matrices(max_m=4, max_n=4))
@settings(max_examples=60)
def test_interchange_preserves_margins(a):
    for i1 in range(a.m):
        for i2 in range(i1 + 1, a.m):
            for j1 in range(a.n):
                for j2 in range(j1 + 1, a.n):
                    sub = (a.rows[i1][j1], a.rows[i1][j2], a.rows[i2][j1], a.rows[i2][j2])
                    if sub in ((1, 0, 0, 1), (0, 1, 1, 0)):
                        b = apply_interchange(a, i1, i2, j1, j2)
                        assert in_class(b, a.row_sums, a.col_sums)
                        return


@given(matrices(max_m=5, max_n=5), st.data())
@settings(max_examples=60)
def test_interchange_matches_the_checked_constructor(a, data):
    """The swap copies two rows and keeps a's margins; the result is the
    matrix the constructor builds from the swapped grid, margins and all,
    and starts without rank state."""
    spots = [
        (i1, i2, j1, j2)
        for i1, i2 in combinations(range(a.m), 2)
        for j1, j2 in combinations(range(a.n), 2)
        if a.rows[i1][j1] == a.rows[i2][j2] != a.rows[i1][j2] == a.rows[i2][j1]
    ]
    if not spots:
        return
    i1, i2, j1, j2 = data.draw(st.sampled_from(spots))
    t_term_ranks(a)  # gives a a rank state, which the result must not share
    b = apply_interchange(a, i1, i2, j1, j2)
    grid = [list(row) for row in a.rows]
    for i, j in ((i1, j1), (i1, j2), (i2, j1), (i2, j2)):
        grid[i][j] ^= 1
    built = BinaryMatrix(grid)
    assert b == built and b.rows == built.rows
    assert (b.m, b.n, b.row_sums, b.col_sums) == (built.m, built.n, built.row_sums, built.col_sums)
    assert all(type(row) is tuple for row in b.rows)
    assert b._rank_state is None
    assert a.rows[i1][j1] != b.rows[i1][j1]  # a itself is unchanged


def test_is_covered_prefix_examples():
    assert is_covered(FLOW_EXAMPLE, CoverSpec.prefix(1, 1))
    assert not is_covered(BinaryMatrix([[1, 0], [0, 1]]), CoverSpec.prefix(0, 1))
    assert is_covered(TWO_COVER_OUTPUT, CoverSpec.prefix(2, 4))
    assert is_covered(TWO_COVER_OUTPUT, CoverSpec.prefix(3, 3))


def test_is_covered_explicit_sets():
    a = BinaryMatrix([[0, 1], [1, 0]])
    assert is_covered(a, CoverSpec(e=1, f=1, rows=(1,), cols=(1,)))
    assert not is_covered(a, CoverSpec(e=1, f=1, rows=(0,), cols=(1,)))


@given(matrices(max_m=5, max_n=5), st.data())
@settings(max_examples=60)
def test_is_covered_monotone(a, data):
    e = data.draw(st.integers(0, a.m - 1))
    f = data.draw(st.integers(0, a.n - 1))
    if is_covered(a, CoverSpec.prefix(e, f)):
        assert is_covered(a, CoverSpec.prefix(e + 1, f))
        assert is_covered(a, CoverSpec.prefix(e, f + 1))


def test_cover_spec_validation():
    for args, message in (
        ((2, 0, (0,), None), "rows set size"),
        ((0, 1, None, (0, 1)), "cols set size"),
        ((2, 0, (1, 1), None), "duplicate rows"),
        ((0, 2, None, (4, 4)), "duplicate cols"),
        ((-1, 0, None, None), "nonnegative"),
        ((0, -2, None, None), "nonnegative"),
        ((1, 0, (-1,), None), "negative index in rows"),
    ):
        e, f, rows, cols = args
        with pytest.raises(ValueError, match=message):
            CoverSpec(e=e, f=f, rows=rows, cols=cols)
        with pytest.raises(ValueError, match=message):
            CoverSpec(*args)
    with pytest.raises(ValueError):
        is_covered(BinaryMatrix([[1]]), CoverSpec(e=1, f=0, rows=(3,)))


def test_cover_spec_sizes_are_integers():
    """Partition's rule: an integral float passes and is stored as an
    int; a fraction, a string, None, nan or inf is rejected at once
    instead of truncated or failing later in cover_sets."""
    for e, f in ((1.5, 2), (2, 1.9), ("2", 2), (2, "2"), (None, 1), (float("nan"), 1), (1, float("inf"))):
        with pytest.raises(ValueError, match="cover sizes must be integers"):
            CoverSpec(e, f)
        with pytest.raises(ValueError, match="cover sizes must be integers"):
            CoverSpec.prefix(e, f)
    cover = CoverSpec(2.0, True)
    assert cover == (2, 1, None, None)
    assert type(cover.e) is int and type(cover.f) is int
    assert cover_sets(cover, 3, 3)[0] == frozenset({0, 1})


def test_cover_spec_indices_are_integers():
    """The explicit index sets follow the sizes' rule: 1.0 is stored as 1,
    and 0.5 or "a" raises ValueError instead of being kept (0.5 made a
    cover that is_covered read as covering nothing) or failing later
    with a TypeError."""
    cover = CoverSpec(1, 1, rows=(1.0,), cols=[0])
    assert cover == (1, 1, (1,), (0,))
    assert all(type(i) is int for i in cover.rows + cover.cols)
    assert cover_sets(cover, 2, 2)[0] == frozenset({1})
    assert is_covered(BinaryMatrix([[1, 0], [1, 1]]), cover)
    for bad in ((0.5,), ("a",), (None,), (1, 1.5)):
        with pytest.raises(ValueError, match="cover rows must be integers"):
            CoverSpec(len(bad), 0, rows=bad)
        with pytest.raises(ValueError, match="cover cols must be integers"):
            CoverSpec(0, len(bad), cols=bad)
    with pytest.raises(ValueError, match="negative index in rows"):
        CoverSpec(1, 0, rows=(-1.0,))


def test_min_cover_values():
    assert min_cover_value(FLOW_EXAMPLE, 2)[0] == 3
    assert min_cover_value(FLOW_EXAMPLE, 1)[0] == 2
    assert min_cover_value(BinaryMatrix([[1, 0], [0, 1]]), 1)[0] == 2


def test_min_cover_witness_is_a_cover():
    for t in (1, 2, 3):
        value, witness = min_cover_value(TWO_COVER_OUTPUT, t)
        assert value == t * witness.e + witness.f
        assert is_covered(TWO_COVER_OUTPUT, witness)


def test_min_cover_tie_break_prefers_small_e():
    # the empty matrix is covered by nothing at all
    value, witness = min_cover_value(BinaryMatrix([[0, 0], [0, 0]]), 1)
    assert value == 0 and witness.e == 0 and witness.f == 0


@given(matrices(max_m=4, max_n=4), st.integers(1, 6))
@settings(max_examples=100)
def test_min_cover_values_keep_the_tie_break(a, k):
    """Each t's value and cover, from the one pass over row subsets, is
    the first of every (e, row set) in order of e and then lexicographic
    row set to reach the least t*e + f; so is min_cover_value's, for
    every t up to a huge one."""
    def first_best(t):
        found = []
        for e in range(a.m + 1):
            for rows in combinations(range(a.m), e):
                left = [i for i in range(a.m) if i not in rows]
                f = sum(1 for col in zip(*a.rows) if any(col[i] for i in left))
                found.append((t * e + f, e, rows))
        return min(found)

    for t, (value, witness) in zip(range(1, k + 1), min_cover_values(a, k)):
        assert (value, witness.e, witness.rows) == first_best(t)
        assert min_cover_value(a, t) == (value, witness)
    value, witness = min_cover_value(a, 10**9)
    assert (value, witness.e, witness.rows) == first_best(10**9)


@given(matrices(max_m=4, max_n=4), st.integers(1, 3))
@settings(max_examples=50)
def test_min_cover_witness_property(a, t):
    value, witness = min_cover_value(a, t)
    assert is_covered(a, witness)
    assert value == t * witness.e + witness.f
