"""Partitions (nonincreasing positive integer vectors), conjugation by one
walk (`conjugate_counts`), majorization, the Gale-Ryser nonemptiness
test by one count of the rows (`rows_fit`), and the class slot `KeptClass`."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate


class Partition:
    """A nonincreasing sequence of positive integers with a cached weight
    and hash.

    The empty partition (weight 0) is allowed.  Residual vectors produced
    by the shifting constructions may contain zeros or be out of order;
    those live as plain tuples and are only promoted here through
    :meth:`from_loose`, which sorts and strips zeros.
    """

    __slots__ = ("parts", "weight", "_hash")

    def __init__(self, parts: Iterable[int]):
        ps = exact_integers(tuple(parts), "parts")
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be nonincreasing, got {ps}")
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive, got {ps}")
        self.parts = ps
        self.weight = sum(ps)
        self._hash = hash(ps)

    @classmethod
    def from_loose(cls, seq: Iterable[int]) -> "Partition":
        """Promote a loose integer sequence: sort descending, drop zeros."""
        return cls(sorted((v for v in seq if v > 0), reverse=True))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated form, e.g. ``6,5,4,3,3,2,2,1,1``.
        Blanks around a part and empty items are ignored; each part is
        read by `decimal_integer`."""
        items = [tok.strip() for tok in text.split(",") if tok.strip()]
        return cls(decimal_integer(tok, "part") for tok in items)

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def part(self, i: int) -> int:
        """Zero-padded access: parts beyond the length count as 0."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def exact_integers(given: tuple, what: str) -> tuple[int, ...]:
    """given as ints when each item equals its int (2.0 passes as 2);
    2.7, "3", None, nan or inf raise ValueError, never truncated."""
    try:
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != given:
        raise ValueError(f"{what} must be integers, got {given!r}")
    return ints


def decimal_integer(text: str, what: str) -> int:
    """text as an int when it is an optional "-" and then ASCII digits;
    int() would also read "+2", " 1", "1_0" or another script's digits,
    which raise ValueError naming what, as do more digits than int() reads."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} {text!r} is not an integer in ASCII decimal digits")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"{what} is too long: {len(digits)} digits") from None


class KeptClass:
    """The data `build(r, s)` derives from the most recent class.
    `entry` is (r, s, data), read and written whole, so one read sees a
    pair with its own data; hot paths read it inline and call `get` on a
    miss.  `get` matches the kept pair by identity, then by equality,
    and an equal pair takes over the slot; another pair stores
    `build(r, s)`, freeing the last data; a failed `build` changes nothing."""

    def __init__(self, build: Callable):
        self.entry: tuple = (None, None, None)
        self.build = build
        _SLOTS.append(self)

    def get(self, r, s):
        last_r, last_s, data = self.entry
        if last_r is not r or last_s is not s:
            if last_r != r or last_s != s:
                data = self.build(r, s)
            self.entry = (r, s, data)
        return data


_SLOTS: list[KeptClass] = []


def clear_kept_classes() -> None:
    """Empty every `KeptClass` slot: each layer's next query starts cold."""
    for slot in _SLOTS:
        slot.entry = (None, None, None)


def positive_integer(value, what: str) -> int:
    """value as an int of at least 1, under the rule of `exact_integers`
    (2.0 passes as 2; 1.5, "2" or None raise ValueError, as do 0 and
    negative values).  An int goes through one class test."""
    if value.__class__ is not int:
        (value,) = exact_integers((value,), what)
    if value < 1:
        raise ValueError(f"{what} must be a positive integer")
    return value


def conjugate_counts(p: Partition, top: int) -> list[int]:
    """counts[z] = #{parts of p above z} for z = 0..top: the conjugate of
    p, cut or zero-padded to top+1 entries (none for top = -1), in one
    walk of O(len(p) + top) whatever the weight."""
    parts, j = p.parts, len(p.parts)
    counts = []
    for z in range(top + 1):
        while j and parts[j - 1] <= z:
            j -= 1
        counts.append(j)
    return counts


def conjugate(p: Partition) -> Partition:
    """Conjugate partition: entry j counts the parts of p that are >= j+1.
    The result has length p.parts[0] and the same weight; conjugation is
    an involution.  O(len(p) + p.parts[0]), by `conjugate_counts`."""
    return Partition(conjugate_counts(p, p.part(0) - 1))


def majorized_by(s: Partition | Sequence[int], r: Partition | Sequence[int]) -> bool:
    """True iff every prefix sum of s is <= the matching prefix sum of r
    and the totals agree.  The shorter sequence is padded with zeros."""
    sv = tuple(s)
    rv = tuple(r)
    if sum(sv) != sum(rv):
        return False
    acc_s = acc_r = 0
    for k in range(max(len(sv), len(rv))):
        acc_s += sv[k] if k < len(sv) else 0
        acc_r += rv[k] if k < len(rv) else 0
        if acc_s > acc_r:
            return False
    return True


def is_nonempty(r: Partition, s: Partition) -> bool:
    """Gale-Ryser test: the class of (0,1)-matrices with row sums r and
    column sums s is nonempty iff the weights agree and s is majorized by
    the conjugate of r, which `rows_fit` decides from the prefix sums of
    s in O(m + n), whatever the weight: a row longer than n = len(s)
    fails at once."""
    return r.weight == s.weight and rows_fit(r.parts, (0, *accumulate(s.parts)), 0)


def margins_realizable(rows: Iterable[int], cols: Iterable[int]) -> bool:
    """Gale-Ryser feasibility for loose margin sequences (any order;
    entries below 1 count as absent, as in `Partition.from_loose`): the
    verdict of `is_nonempty` on the promoted partitions.  Both sequences
    follow `exact_integers` (2.0 counts as 2; 1.5 raises ValueError).
    The weights must agree, and the positive rows must fit the prefix
    sums of the positive columns in decreasing order (`rows_fit`)."""
    rs = [v for v in exact_integers(tuple(rows), "row sums") if v > 0]
    cs = sorted((v for v in exact_integers(tuple(cols), "column sums") if v > 0), reverse=True)
    return sum(rs) == sum(cs) and rows_fit(rs, (0, *accumulate(cs)), 0)


def rows_fit(rows: Sequence[int], acc: Sequence[int], lo: int) -> bool:
    """The prefix half of the Gale-Ryser test, for nonnegative int rows
    and the columns c_lo, c_lo+1, ... of a decreasing sequence c whose
    prefix sums acc[k] = c_0 + ... + c_{k-1} (acc[0] = 0) are given:
    every row is at most the number of those columns, and every prefix
    fits, acc[lo+k] - acc[lo] <= sum_i min(r_i, k).  That is the
    majorization of the columns by the conjugate of the rows, whose
    entry k-1 counts the rows of sum at least k, so one count of the
    rows by their sum gives every prefix in O(m + n).  With equal
    weights it is realizability, which `is_nonempty` and
    `margins_realizable` check (lo = 0) and class enumeration keeps at
    every node of depth j (lo = j + 1, from one table of the column sums
    per walk)."""
    count = [0] * (len(acc) - lo)  # count[k]: the rows of sum k
    try:
        for v in rows:
            count[v] += 1
    except IndexError:
        return False
    at_least = len(rows) - count[0]  # the rows of sum at least k, for the k below
    have = acc[lo]  # acc[lo] plus the room in the first k columns
    for k, need in enumerate(acc[lo + 1:], 1):
        have += at_least
        if need > have:
            return False
        at_least -= count[k]
    return True


def iter_partitions(max_parts: int, weight: int) -> Iterator[Partition]:
    """Yield all partitions of the given weight with at most max_parts
    parts, in lexicographically decreasing order."""

    def rec(remaining: int, cap: int, slots: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        if slots == 0:
            return
        for head in range(min(cap, remaining), 0, -1):
            prefix.append(head)
            yield from rec(remaining - head, head, slots - 1, prefix)
            prefix.pop()

    yield from rec(weight, weight, max_parts, [])
