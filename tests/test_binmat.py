import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    CoverSpec,
    Partition,
    apply_interchange,
    in_class,
    is_covered,
    min_cover_value,
)
from ars.errors import InvalidInterchange

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
    with pytest.raises(ValueError):
        BinaryMatrix([[0, 2]])
    with pytest.raises(ValueError):
        BinaryMatrix([[0, 1], [1]])


def test_cached_margins():
    a = FLOW_EXAMPLE
    assert a.row_sums == (4, 1, 1)
    assert a.col_sums == (3, 1, 1, 1)


def test_text_round_trip():
    for a in (FLOW_EXAMPLE, BinaryMatrix([[0]]), TWO_COVER_OUTPUT):
        assert BinaryMatrix.from_text(a.to_text()) == a


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("2 2\n1 1\n")
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("")


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


@given(matrices(max_m=4, max_n=4), st.integers(1, 3))
@settings(max_examples=50)
def test_min_cover_witness_property(a, t):
    value, witness = min_cover_value(a, t)
    assert is_covered(a, witness)
    assert value == t * witness.e + witness.f
