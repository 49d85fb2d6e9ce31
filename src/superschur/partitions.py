"""Partitions, hooks, typicality, enumeration, and diagram decompositions.

A partition is a tuple of weakly decreasing positive integers; the empty
tuple is the empty partition.  Out-of-range parts read as 0.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator

Partition = tuple  # tuple[int, ...], weakly decreasing, positive entries


class HookClass(Enum):
    OUTSIDE = "outside"
    ATYPICAL = "atypical"
    TYPICAL = "typical"


class FrozenRecord:
    """An immutable value with the fields named in __slots__: equal to a
    record of the same class with equal fields, hashed and shown by them.
    A subclass sets its fields once, in __init__, through _set."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Hook(FrozenRecord):
    """The (k, l) hook: partitions with at most k parts exceeding l.

    (0, 0) is allowed and contains exactly the empty partition, so that
    multiplicity differences against the next-smaller hook stay defined.
    """

    __slots__ = ("k", "l")

    def __init__(self, k: int, l: int):
        self._set(k=k, l=l)
        if not (isinstance(k, int) and isinstance(l, int)):
            raise ValueError(f"hook entries must be integers: {self}")
        if k < 0 or l < 0:
            raise ValueError(f"hook entries must be nonnegative: {self}")

    def shrink(self) -> "Hook":
        return Hook(self.k - 1, self.l - 1)

    def __iter__(self):
        return iter((self.k, self.l))


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
    return tuple(_gen(n, n, n, 0))


def typical_split(lam: Partition, h) -> tuple[Partition, Partition]:
    """Peel the k x l rectangle off a typical partition: (arm mu, leg nu)."""
    h = as_hook(h)
    if classify_hook(lam, h) is not HookClass.TYPICAL:
        raise ValueError(f"{lam} is not typical in H({h.k},{h.l})")
    mu = tuple(p for p in (part(lam, i) - h.l for i in range(1, h.k + 1)) if p > 0)
    lamc = conjugate(lam)
    nu = tuple(p for p in (part(lamc, j) - h.k for j in range(1, h.l + 1)) if p > 0)
    return mu, nu
