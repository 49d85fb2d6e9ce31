import pickle

import pytest
from hypothesis import given

from superschur.partitions import (Hook, HookClass, classify_hook, conjugate,
                                   enumerate_partitions, parse_partition,
                                   partitions_of, typical_split)

from conftest import add_box_successors, partitions


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((5,)) == (1,) * 5
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_classify_hook():
    assert classify_hook((3, 3, 3), (2, 2)) is HookClass.OUTSIDE
    assert classify_hook((1,), (2, 1)) is HookClass.ATYPICAL
    assert classify_hook((2, 1), (1, 1)) is HookClass.TYPICAL
    # degenerate hooks: H(0,0) contains exactly the empty partition
    assert classify_hook((), (0, 0)) is HookClass.TYPICAL
    assert classify_hook((1,), (0, 0)) is HookClass.OUTSIDE


def test_hook_rejects_negative():
    with pytest.raises(ValueError, match=r"nonnegative: Hook\(k=-1, l=2\)"):
        Hook(-1, 2)
    # the named tuple's own builders go through the same checks
    with pytest.raises(ValueError, match=r"nonnegative: Hook\(k=-1, l=1\)"):
        Hook(2, 1)._replace(k=-1)
    with pytest.raises(ValueError, match=r"nonnegative: Hook\(k=1, l=-1\)"):
        Hook._make((1, -1))


def test_hook_is_an_immutable_value():
    h = Hook(2, 1)
    assert h == Hook(2, 1) and h != Hook(1, 2) and h == (2, 1)
    assert hash(h) == hash(Hook(2, 1))
    assert {h: 1}[Hook(2, 1)] == 1 and {(2, 1): 1}[h] == 1
    assert repr(h) == "Hook(k=2, l=1)"
    assert tuple(h) == (2, 1) and h.shrink() == Hook(1, 0)
    assert pickle.loads(pickle.dumps(h)) == h
    with pytest.raises(AttributeError):
        h.k = 3
    with pytest.raises(AttributeError):
        del h.l
    assert h == Hook(2, 1)


def test_typical_implies_outside_smaller_hook():
    for k, l in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for n in range(9):
            for lam in enumerate_partitions(n):
                if classify_hook(lam, (k, l)) is HookClass.TYPICAL:
                    assert classify_hook(lam, (k - 1, l - 1)) is HookClass.OUTSIDE


def test_enumerate_examples():
    assert enumerate_partitions(4, in_hook=(2, 0)) == [(4,), (3, 1), (2, 2)]
    assert enumerate_partitions(8, self_conjugate=True) == [(4, 2, 1, 1), (3, 3, 2)]
    assert len(enumerate_partitions(4, typical=(1, 1))) == 4
    assert enumerate_partitions(0) == [()]


def test_enumerate_order_is_lex_descending():
    out = enumerate_partitions(5)
    assert out == sorted(out, reverse=True)


def _distinct_odd_count(n):
    def rec(n, max_part):
        if n == 0:
            return 1
        start = min(n, max_part)
        if start % 2 == 0:
            start -= 1
        return sum(rec(n - p, p - 2) for p in range(start, 0, -2))
    return rec(n, n)


def test_self_conjugate_equals_distinct_odd_parts():
    for n in range(31):
        assert len(enumerate_partitions(n, self_conjugate=True)) == _distinct_odd_count(n)


def test_add_box_successors():
    assert add_box_successors((1,)) == [(2,), (1, 1)]
    assert add_box_successors(()) == [(1,)]
    assert add_box_successors((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]


def test_typical_split():
    assert typical_split((3, 2), (2, 1)) == ((2, 1), ())
    assert typical_split((1, 1, 1), (1, 1)) == ((), (2,))


def test_typical_split_rectangle():
    # lam exactly the k x l box
    assert typical_split((3, 3), (2, 3)) == ((), ())


def test_typical_split_rejects_atypical():
    with pytest.raises(ValueError):
        typical_split((1,), (2, 1))


def test_typical_split_size_identity():
    for k, l in [(1, 1), (2, 1), (2, 2)]:
        for n in range(10):
            for lam in enumerate_partitions(n, typical=(k, l)):
                mu, nu = typical_split(lam, (k, l))
                assert sum(lam) == k * l + sum(mu) + sum(nu)


def test_parse_format_roundtrip():
    for text, lam in [("3,2,1", (3, 2, 1)), ("", ()), ("∅", ()), ("5", (5,))]:
        assert parse_partition(text) == lam
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,0")


PRUNE_HOOKS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 0), (3, 2)]


def test_hook_pruned_enumeration_matches_filter_oracle():
    # the pruned generator keeps exactly the hook members, in the same order
    for n in range(15):
        every = enumerate_partitions(n)
        for h in PRUNE_HOOKS:
            assert enumerate_partitions(n, in_hook=h) == [
                lam for lam in every if classify_hook(lam, h) is not HookClass.OUTSIDE]
            assert enumerate_partitions(n, typical=h) == [
                lam for lam in every if classify_hook(lam, h) is HookClass.TYPICAL]
            assert enumerate_partitions(n, typical=h, self_conjugate=True) == [
                lam for lam in every if classify_hook(lam, h) is HookClass.TYPICAL
                and lam == conjugate(lam)]
            for other in ((1, 1), (2, 0)):
                assert enumerate_partitions(n, in_hook=h, typical=other) == [
                    lam for lam in every
                    if classify_hook(lam, h) is not HookClass.OUTSIDE
                    and classify_hook(lam, other) is HookClass.TYPICAL]
                assert enumerate_partitions(n, in_hook=h, typical=other,
                                            self_conjugate=True) == [
                    lam for lam in every
                    if classify_hook(lam, h) is not HookClass.OUTSIDE
                    and classify_hook(lam, other) is HookClass.TYPICAL
                    and lam == conjugate(lam)]


def test_partitions_of_in_canonical_order():
    # built from the memoised partitions of smaller sizes, in the order
    # enumerate_partitions makes contractual; none of a negative size
    for n in range(21):
        assert partitions_of(n) == tuple(enumerate_partitions(n)), n
    for n in (-1, -3):
        assert partitions_of(n) == ()
