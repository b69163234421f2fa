"""Partitions (nonincreasing positive integer vectors), conjugation,
majorization, and the Gale-Ryser nonemptiness test."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class Partition:
    """A nonincreasing sequence of positive integers with a cached weight.

    The empty partition (weight 0) is allowed.  Residual vectors produced
    by the shifting constructions may contain zeros or be out of order;
    those live as plain tuples and are only promoted here through
    :meth:`from_loose`, which sorts and strips zeros.
    """

    __slots__ = ("parts", "weight")

    def __init__(self, parts: Iterable[int]):
        ps = tuple(int(p) for p in parts)
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be nonincreasing, got {ps}")
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive, got {ps}")
        self.parts = ps
        self.weight = sum(ps)

    @classmethod
    def from_loose(cls, seq: Iterable[int]) -> "Partition":
        """Promote a loose integer sequence: sort descending, drop zeros."""
        return cls(sorted((v for v in seq if v > 0), reverse=True))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated form, e.g. ``6,5,4,3,3,2,2,1,1``."""
        items = [tok.strip() for tok in text.split(",") if tok.strip()]
        return cls(int(tok) for tok in items)

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
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def conjugate(p: Partition) -> Partition:
    """Conjugate partition: entry j counts the parts of p that are >= j+1.

    The result has length p.parts[0] and the same weight; conjugation is
    an involution.
    """
    if not p.parts:
        return Partition(())
    counts = [0] * p.parts[0]
    for v in p.parts:
        for j in range(v):
            counts[j] += 1
    return Partition(counts)


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
    the conjugate of r."""
    if r.weight != s.weight or r.part(0) > len(s):
        return False  # a row cannot hold more ones than there are columns
    return majorized_by(s, conjugate(r))


def margins_realizable(rows: Iterable[int], cols: Iterable[int]) -> bool:
    """Gale-Ryser feasibility for loose margin sequences (zeros allowed,
    any order).  Used for residual-margin pruning."""
    return is_nonempty(Partition.from_loose(rows), Partition.from_loose(cols))


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
