"""Partitions, hooks, typicality, enumeration, and diagram decompositions.

A partition is a tuple of weakly decreasing positive integers; the empty
tuple is the empty partition.  Out-of-range parts read as 0.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import Iterator

Partition = tuple  # tuple[int, ...], weakly decreasing, positive entries


class HookClass(Enum):
    OUTSIDE = "outside"
    ATYPICAL = "atypical"
    TYPICAL = "typical"


class Hook(namedtuple("Hook", "k l")):
    """The (k, l) hook: partitions with at most k parts exceeding l.

    (0, 0) is allowed and contains exactly the empty partition, so that
    multiplicity differences against the next-smaller hook stay defined.
    A named tuple, so Hook(k, l) equals and hashes as (k, l): a memo keyed
    by either spelling keeps one entry.  Every way to build one checks its
    entries, `_make` and `_replace` included.
    """

    __slots__ = ()

    def __new__(cls, k: int, l: int):
        self = super().__new__(cls, k, l)
        if not (isinstance(k, int) and isinstance(l, int)):
            raise ValueError(f"hook entries must be integers: {self}")
        if k < 0 or l < 0:
            raise ValueError(f"hook entries must be nonnegative: {self}")
        return self

    @classmethod
    def _make(cls, iterable) -> "Hook":
        return cls(*iterable)

    def shrink(self) -> "Hook":
        return Hook(self.k - 1, self.l - 1)


def as_hook(h) -> Hook:
    return h if isinstance(h, Hook) else Hook(*h)


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive integers: {parts}")
        if i and parts[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def parse_partition(text: str) -> Partition:
    """Comma-separated decreasing integers; '' or the empty-set sign is empty."""
    text = text.strip()
    if text in ("", "-", "∅"):
        return ()
    return check_partition(int(p) for p in text.split(","))


def part(lam: Partition, i: int) -> int:
    """1-indexed part, 0 beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def classify_hook(lam: Partition, h) -> HookClass:
    """Outside iff lam_{k+1} > l; typical iff in hook and lam_k >= l."""
    h = as_hook(h)
    if part(lam, h.k + 1) > h.l:
        return HookClass.OUTSIDE
    if h.k == 0 or part(lam, h.k) >= h.l:
        return HookClass.TYPICAL
    return HookClass.ATYPICAL


def _gen(n: int, max_part: int, free: int, cap: int) -> Iterator[Partition]:
    """All partitions of n with parts <= max_part whose parts after the
    first `free` are also <= cap, lexicographic descending."""
    if n == 0:
        yield ()
        return
    top = min(n, max_part) if free > 0 else min(n, max_part, cap)
    for first in range(top, 0, -1):
        for rest in _gen(n - first, first, free - 1, cap):
            yield (first,) + rest


def enumerate_partitions(n: int,
                         in_hook=None,
                         typical=None,
                         self_conjugate: bool = False) -> list[Partition]:
    """All partitions of n meeting every given constraint.

    Canonical order is lexicographic descending; determinism is contractual
    for golden-file tests.  `in_hook` and `typical` take Hook or (k, l).
    A hook prunes the generation: every part after the k-th is at most l,
    which is hook membership, and a typical partition lies in its hook.
    At most k parts is the hook (k, 0): `in_hook=(k, 0)`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    bound = in_hook if in_hook is not None else typical
    free, cap = (n, 0) if bound is None else as_hook(bound)
    out = []
    for lam in _gen(n, n, free, cap):
        if (typical is not None
                and classify_hook(lam, typical) is not HookClass.TYPICAL):
            continue
        if self_conjugate and lam != conjugate(lam):
            continue
        out.append(lam)
    return out


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """Every partition of n in the canonical order of
    `enumerate_partitions`, lexicographic descending; none for n < 0.
    Built from the memoised partitions of n - r, each put after its first
    part r in turn, r = n..1: those with a largest part <= r are a suffix
    of their lexicographic order, and each rest is asked for after every
    smaller one, so the memo is filled bottom-up with no deep recursion."""
    if n == 0:
        return ((),)
    return tuple((r,) + rest for r in range(n, 0, -1)
                 for rest in partitions_of(n - r) if not rest or rest[0] <= r)


def typical_split(lam: Partition, h) -> tuple[Partition, Partition]:
    """Peel the k x l rectangle off a typical partition: (arm mu, leg nu)."""
    h = as_hook(h)
    if classify_hook(lam, h) is not HookClass.TYPICAL:
        raise ValueError(f"{lam} is not typical in H({h.k},{h.l})")
    mu = tuple(p for p in (part(lam, i) - h.l for i in range(1, h.k + 1)) if p > 0)
    lamc = conjugate(lam)
    nu = tuple(p for p in (part(lamc, j) - h.k for j in range(1, h.l + 1)) if p > 0)
    return mu, nu
