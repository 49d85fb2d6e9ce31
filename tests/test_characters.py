import math
import re

import pytest
from hypothesis import given, settings

from superschur import characters
from superschur.characters import (_column, _hook_weights, _mask, _pull_row,
                                   _strip_row, class_size, class_weights,
                                   default_cache, kronecker, m_bar_lambda,
                                   m_lambda, mn_character)
from superschur.partitions import (Hook, HookClass, classify_hook, conjugate,
                                   enumerate_partitions, partitions_of)
from superschur.laurent import VarTable
from superschur.residue import m_prime_residue

from conftest import add_box_successors, partitions


def test_character_table_s3():
    # rows chi^lam, columns rho in [(1,1,1), (2,1), (3,)]
    table = {(3,): (1, 1, 1),
             (2, 1): (2, 0, -1),
             (1, 1, 1): (1, -1, 1)}
    for lam, row in table.items():
        for rho, value in zip([(1, 1, 1), (2, 1), (3,)], row):
            assert mn_character(lam, rho) == value


def test_character_table_s4_spot_checks():
    assert mn_character((2, 2), (1, 1, 1, 1)) == 2
    assert mn_character((2, 2), (2, 1, 1)) == 0
    assert mn_character((2, 2), (2, 2)) == 2
    assert mn_character((2, 2), (3, 1)) == -1
    assert mn_character((2, 2), (4,)) == 0
    assert mn_character((3, 1), (4,)) == -1
    assert mn_character((2, 1, 1), (2, 2)) == -1
    # padding zeros and the order of the cycle lengths do not matter
    assert mn_character((2, 2, 0), (3, 1, 0)) == -1
    assert mn_character((3, 1), (1, 2, 1)) == 1
    assert mn_character((2,), (2, 0)) == 1


def _beta_set(lam):
    length = len(lam)
    return tuple(sorted(lam[i] + length - 1 - i for i in range(length)))


def _partition_from_beta(beta):
    beta = sorted(beta)
    lam = [b - i for i, b in enumerate(beta)]
    return tuple(p for p in reversed(lam) if p > 0)


def _mn(lam, rho):
    # border-strip removal on beta-sets: an oracle independent of the
    # column tables, which add strips instead
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    beta = _beta_set(lam)
    beta_lookup = set(beta)
    total = 0
    for b in beta:
        target = b - r
        if target < 0 or target in beta_lookup:
            continue
        jumped = sum(1 for x in beta if target < x < b)
        new_beta = tuple(target if x == b else x for x in beta)
        total += (-1) ** jumped * _mn(_partition_from_beta(new_beta), rest)
    return total


def test_character_matches_removal_oracle():
    for n in range(11):
        parts = enumerate_partitions(n)
        for rho in parts:
            for lam in parts:
                assert mn_character(lam, rho) == _mn(lam, rho), (lam, rho)


def _clear_default_cache():
    for memo in vars(default_cache()).values():
        memo.clear()


def test_cleared_cache_is_cold():
    # every memo lives in default_cache(): clearing it leaves no column
    # pinned elsewhere, so the next call rebuilds the columns it reads
    first = m_lambda((3, 1), (2, 1))
    _clear_default_cache()
    assert m_lambda((3, 1), (2, 1)) == first
    assert default_cache().chi


def test_column_grows_from_the_class_without_its_largest_part():
    # (3, 1, 1) adds a 3-strip to the column of (1, 1), which adds a 1-strip
    # to that of (1,): its suffixes are memoised, its prefix (3, 1) is not
    _clear_default_cache()
    _column((3, 1, 1))
    assert set(default_cache().chi) == {(3, 1, 1), (1, 1), (1,), ()}


def test_strip_rows_built_once_per_size_and_shape(monkeypatch):
    # every column of S_0..S_10 from a cold cache: the row of r-strips on
    # one shape is built once, however many columns add r-strips to it,
    # and every column still equals the removal oracle
    _clear_default_cache()
    built = []
    strip_row = characters._strip_row

    def counted(mask, r):
        built.append((r, mask))
        return strip_row(mask, r)

    monkeypatch.setattr(characters, "_strip_row", counted)
    wanted = set()
    for n in range(11):
        parts = enumerate_partitions(n)
        for rho in parts:
            col = _column(rho)
            if rho:
                wanted.update((rho[0], mask) for mask in _column(rho[1:]))
            values = {_mask(lam): _mn(lam, rho) for lam in parts}
            assert col == {m: v for m, v in values.items() if v}, rho
    assert len(built) == len(set(built))
    assert set(built) == wanted


def test_values_independent_of_column_order():
    # the class rho8 of S_8 is a suffix of the class rho12 of S_12, so
    # whichever column is built first lends its suffixes to the other;
    # the values must not depend on which that is
    rho12, rho8 = (4, 3, 2, 1, 1, 1), (3, 2, 1, 1, 1)
    lams = [lam for n in (8, 12) for lam in enumerate_partitions(n)]

    def values(order):
        _clear_default_cache()
        for rho in order:
            mn_character((sum(rho),), rho)
        chars = [mn_character(lam, rho12 if sum(lam) == 12 else rho8)
                 for lam in lams]
        mults = [m_lambda(lam, (2, 1)) for lam in lams]
        return chars, mults

    assert values([rho12, rho8]) == values([rho8, rho12])


def _signed(row):
    # a `_strip_row` or `_pull_row` (plus, minus), read as {mask: sign}
    plus, minus = row
    return {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)}


def test_pull_row_is_the_transpose_of_strip_row():
    # removing an r-strip from the target gives the source with the sign
    # that adding it to the source gives the target, and nothing else
    for size in range(10):
        for lam in enumerate_partitions(size):
            mask = _mask(lam)
            for r in range(1, 10):
                # both builders give one format: a pair of tuples of masks
                for row in (_strip_row(mask, r), _pull_row(mask, r)):
                    assert len(row) == 2 and all(type(part) is tuple for part in row)
                added = _signed(_strip_row(mask, r))
                pulled = _signed(_pull_row(mask, r))
                below = {_mask(mu) for mu in enumerate_partitions(size - r)} \
                    if r <= size else set()
                assert set(pulled) <= below, (lam, r)
                for target, sign in added.items():
                    assert _signed(_pull_row(target, r)).get(mask) == sign, (lam, r)
                for source, sign in pulled.items():
                    assert _signed(_strip_row(source, r)).get(mask) == sign, (lam, r)


def test_row_builders_leave_the_cache_alone():
    # both row builders are pure functions of (mask, r): building every row
    # of every shape of size <= 8 stores nothing in any memo
    _clear_default_cache()
    for size in range(9):
        for lam in enumerate_partitions(size):
            mask = _mask(lam)
            for r in range(1, 9):
                _strip_row(mask, r)
                _pull_row(mask, r)
    assert not any(vars(default_cache()).values())


WEIGHT_HOOKS = [Hook(0, 0), Hook(1, 0), Hook(0, 2), Hook(1, 1), Hook(2, 1),
                Hook(1, 2), Hook(2, 2), Hook(3, 1)]


def _full_column_weights(n, h):
    # the per-class sum over the full column of every class of S_n
    masks = [_mask(mu) for mu in enumerate_partitions(n, in_hook=h)]
    weights = {}
    for rho in enumerate_partitions(n):
        w = sum(_column(rho).get(m, 0) ** 2 for m in masks)
        if w:
            weights[rho] = class_size(rho) * w
    return weights


@pytest.mark.parametrize("sweep", [False, True])
def test_hook_weights_match_full_columns(sweep):
    # from a cold memo and after every column of S_0..S_12 is built: the
    # weights must not depend on which columns happen to be memoised
    _clear_default_cache()
    if sweep:
        for n in range(13):
            for rho in enumerate_partitions(n):
                _column(rho)
    got = {(n, h): _hook_weights(n, h) for n in range(13) for h in WEIGHT_HOOKS}
    for (n, h), weights in got.items():
        assert weights == _full_column_weights(n, h), (n, h)


def test_hook_weights_sum_over_the_smaller_set(monkeypatch):
    # at n = 10, H(2, 2) misses 2 of the 42 shapes and H(1, 1) holds 10:
    # the first sums over its complement, the second over the hook, and
    # each pulls one shape of every conjugate pair it sums: (4, 3, 3) and
    # (3, 3, 3, 1) are one pair, the 10 hooks (a, 1^(10-a)) five
    pulled = []
    pull_row = characters._pull_row

    def counted(mask, r):
        pulled.append(mask)
        return pull_row(mask, r)

    monkeypatch.setattr(characters, "_pull_row", counted)
    shapes = enumerate_partitions(10)
    for h, inside in ((Hook(2, 2), False), (Hook(1, 1), True)):
        _clear_default_cache()
        pulled.clear()
        weights = _hook_weights(10, h)
        hook = enumerate_partitions(10, in_hook=h)
        summed = hook if inside else [mu for mu in shapes if mu not in hook]
        assert len(summed) == (10 if inside else 2)
        kept = {mu for mu in summed if _mask(mu) in pulled}
        assert len(set(pulled)) == len(kept) == (5 if inside else 1), h
        assert kept | {conjugate(mu) for mu in kept} == set(summed), h
        assert weights == _full_column_weights(10, h), h


def test_conjugate_hooks_weigh_alike():
    # conjugation maps H(k, l) onto H(l, k) and squares chi^mu' = +-chi^mu
    for h in WEIGHT_HOOKS:
        if h.k != h.l:
            for n in range(11):
                assert _full_column_weights(n, h) == \
                    _full_column_weights(n, Hook(h.l, h.k)), (n, h)


def test_conjugate_hook_weights_served_from_one_entry(monkeypatch):
    # once H(2, 1) is weighed, H(1, 2) reads the same memo entry and
    # pulls no row
    def refuse(*args):
        raise AssertionError("pull row built")

    _clear_default_cache()
    for n in range(11):
        first = _hook_weights(n, Hook(2, 1))
        with monkeypatch.context() as patch:
            patch.setattr(characters, "_pull_row", refuse)
            assert _hook_weights(n, Hook(1, 2)) is first
    assert len(default_cache().weights) == 11


@pytest.mark.parametrize("full_first", [False, True])
def test_part_one_and_full_weights_in_either_order(full_first):
    # one memo entry per (n, unordered hook) serves both requests: a
    # part-1 request is served by a full table, a full one never by a
    # part-1 table, so either order gives the cold full table and the
    # cold bar class weights
    bars = ("bar", "bar_prime")
    for h in WEIGHT_HOOKS:
        for n in range(1, 11):
            _clear_default_cache()
            full = dict(_hook_weights(n, h))
            _clear_default_cache()
            cold = [dict(class_weights(mode, h, n - 1)) for mode in bars]
            _clear_default_cache()
            if full_first:
                got_full = _hook_weights(n, h)
                assert _hook_weights(n, h, part_one=True) is got_full
            else:
                part = _hook_weights(n, h, part_one=True)
                assert all(rho[-1] == 1 for rho in part), (h, n)
            got = [class_weights(mode, h, n - 1) for mode in bars]
            if not full_first:
                got_full = _hook_weights(n, h)
                assert got_full is not part
                assert _hook_weights(n, h, part_one=True) is got_full
            assert got_full == full, (h, n)
            assert got == cold, (h, n)


def test_full_weights_after_part_one_hold_every_class():
    # with k >= 1 the one-row shape lies in the hook and chi^(n) = 1, so
    # every class of S_n has a weight; the part-1 table holds those with
    # a part 1 alone, the full table built after it every class
    for h in (Hook(1, 0), Hook(1, 1), Hook(2, 1), Hook(1, 2), Hook(3, 1)):
        _clear_default_cache()
        for n in range(12):
            classes = set(partitions_of(n))
            part = _hook_weights(n, h, part_one=True)
            assert set(part) == {rho for rho in classes if rho[-1:] == (1,)}, (h, n)
            assert set(_hook_weights(n, h)) == classes, (h, n)


def test_class_weights_hold_no_zero():
    # the jump difference drops its zeros; the plain table and the bar
    # re-key, m_1(rho + 1) W(rho + 1), hold none to drop
    for h in WEIGHT_HOOKS:
        for mode in ("plain", "prime", "bar", "bar_prime"):
            for N in range(12):
                assert 0 not in class_weights(mode, h, N).values(), (h, mode, N)


def test_plain_class_weights_are_the_memo_entry():
    # where V is w_h itself nothing is copied: a jump with no smaller hook
    # is the plain weight too
    _clear_default_cache()
    for h in WEIGHT_HOOKS:
        for N in range(9):
            weights = _hook_weights(N, h)
            assert class_weights("plain", h, N) is weights, (h, N)
            if min(h.k, h.l) == 0:
                assert class_weights("prime", h, N) is weights, (h, N)


def test_class_sizes_computed_once_per_class(monkeypatch):
    # every hook of WEIGHT_HOOKS weighs the classes of S_0..S_12: each
    # class size is computed once, by the unchecked core, and read from
    # the memo after that
    sized = []
    core = characters._class_size

    def counted(rho):
        sized.append(rho)
        return core(rho)

    monkeypatch.setattr(characters, "_class_size", counted)
    _clear_default_cache()
    for h in WEIGHT_HOOKS:
        for n in range(13):
            _hook_weights(n, h)
    assert len(sized) == len(set(sized))
    assert default_cache().sizes == {rho: core(rho) for rho in sized}


def test_series_weights_store_only_parent_columns():
    # the weights of S_0..S_14 read the column of rho[1:] for each class
    # rho, never that of rho: the memo holds the sigma with |sigma| +
    # sigma_1 <= 14, not all 508 classes of S_0..S_14
    _clear_default_cache()
    for mode in ("plain", "prime"):
        for N in range(15):
            class_weights(mode, Hook(2, 2), N)
    parents = {sigma for n in range(15) for sigma in enumerate_partitions(n)
               if n + (sigma[0] if sigma else 0) <= 14}
    assert set(default_cache().chi) == parents
    assert len(parents) == 135


def test_full_hook_weights_build_no_column(monkeypatch):
    # every shape of 8 lies in H(2, 2): the complement is empty, so each
    # weight is |C_rho| z_rho = 8! and no column is read
    def refuse(*args):
        raise AssertionError("character column built")

    _clear_default_cache()
    monkeypatch.setattr(characters, "_add_strips", refuse)
    weights = _hook_weights(8, Hook(2, 2))
    assert weights == dict.fromkeys(enumerate_partitions(8), math.factorial(8))
    assert not default_cache().chi


@pytest.mark.parametrize("lam, h, call", [((2, 1), (2.0, 1), m_lambda),
                                            ((2, 1), (2, 1.5), m_bar_lambda),
                                            ((2, 1), (1.0, 1), m_prime_residue)])
def test_non_integer_hook_rejected_cold_and_warm(lam, h, call):
    # a float entry is refused by name whether or not the memo already holds
    # the weights of the equal integer hook: no result depends on memo state
    whole = tuple(int(x) for x in h)
    _clear_default_cache()
    with pytest.raises(ValueError, match=r"hook entries must be integers: Hook\("):
        call(lam, h)
    call(lam, whole)
    with pytest.raises(ValueError, match=r"hook entries must be integers: Hook\("):
        call(lam, h)


def test_character_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_characters_and_kronecker_reject_non_partitions():
    # zero parts are ignored and rho may come in any order; the rest must
    # be a partition, refused by name as given, and class_size reads rho
    # by the same rule
    for bad in [(1, 2), (2, -1, 2), (2.0, 1)]:
        for call in [lambda: mn_character(bad, (2, 1)),
                     lambda: kronecker(bad, (2, 1), (2, 1)),
                     lambda: kronecker((2, 1), (2, 1), bad)]:
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                call()
    for bad in [(2, -1, 2), (2.0, 1)]:
        for call in [lambda: mn_character((2, 1), bad), lambda: class_size(bad)]:
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                call()
    assert mn_character((2, 1, 0), (1, 0, 2)) == mn_character((2, 1), (2, 1))
    assert (kronecker((2, 1, 0), (1, 1, 1), (2, 0, 1))
            == kronecker((2, 1), (1, 1, 1), (2, 1)) == 1)


def test_class_sizes():
    assert class_size(()) == 1
    assert class_size((3,)) == 2
    assert class_size((2, 1)) == 3
    assert class_size((2, 2, 1)) == 15
    # zero parts are ignored and the order is free, as in mn_character
    assert class_size((1, 2)) == 3
    assert class_size((2, 1, 0)) == 3
    assert class_size((3, 0, 0)) == 2
    assert class_size((0,)) == 1
    for n in range(8):
        assert sum(class_size(rho) for rho in enumerate_partitions(n)) == math.factorial(n)


def _syt_count(lam):
    # standard Young tableaux, counted by recursive corner removal
    if sum(lam) == 0:
        return 1
    total = 0
    for i, p in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < p:
            shorter = lam[:i] + ((p - 1,) if p > 1 else ()) + lam[i + 1:]
            total += _syt_count(shorter)
    return total


def dimension(lam):
    # the degree of chi^lam, its value at the identity class
    return mn_character(lam, (1,) * sum(lam))


def test_dimension_matches_tableau_count():
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == _syt_count(lam)


def test_column_orthogonality_identity():
    # sum over lam of chi(lam, rho)^2 = |S_n| / |C_rho|
    for n in range(1, 7):
        for rho in enumerate_partitions(n):
            total = sum(mn_character(lam, rho) ** 2 for lam in enumerate_partitions(n))
            assert total * class_size(rho) == math.factorial(n)


@given(partitions(max_size=8))
def test_sign_twist(lam):
    # chi^{lam'}(rho) = sign(rho) * chi^{lam}(rho)
    n = sum(lam)
    for rho in enumerate_partitions(n):
        sign = (-1) ** (n - len(rho))
        assert mn_character(conjugate(lam), rho) == sign * mn_character(lam, rho)


def test_kronecker_trivial_and_sign():
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                assert kronecker((n,), mu, nu) == (1 if mu == nu else 0)
                assert kronecker((1,) * n, mu, nu) == (1 if mu == conjugate(nu) else 0)


def test_kronecker_symmetry_and_nonnegativity():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    g = kronecker(lam, mu, nu)
                    assert g >= 0
                    assert g == kronecker(lam, nu, mu)
                    assert g == kronecker(mu, lam, nu)


def test_kronecker_dimension_identity():
    # tensor square dimensions: sum_lam g(lam, mu, nu) dim(lam) = dim(mu) dim(nu)
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for mu in parts:
            for nu in parts:
                total = sum(kronecker(lam, mu, nu) * dimension(lam) for lam in parts)
                assert total == dimension(mu) * dimension(nu)


def test_kronecker_examples():
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((3, 1), (2, 2), (2, 1, 1)) == 1
    assert kronecker((2, 2), (2, 2), (2, 2)) == 1


def test_kronecker_accepts_lists():
    assert kronecker([2, 1], [2, 1], [2, 1]) == kronecker((2, 1), (2, 1), (2, 1)) == 1


def test_m_lambda_small_values():
    # hand-checked: g(lam, mu, mu) is 1 for lam one row, [mu self-conjugate]
    # for lam one column, and chi^{(2,1)} tensor-square bookkeeping for (2,1)
    assert m_lambda((), (1, 1)) == 1
    assert m_lambda((1,), (1, 1)) == 1
    assert m_lambda((2,), (1, 1)) == 2
    assert m_lambda((1, 1), (1, 1)) == 0
    assert m_lambda((2, 1), (1, 1)) == 1
    assert m_lambda((1,), (2, 1)) == 1
    assert m_lambda((2, 2), (2, 1)) == 3
    assert m_lambda((3, 1), (2, 2)) == 2


def test_m_lambda_row_counts_hook_partitions():
    # g(lam, mu, mu) = 1 for lam a single row, so m_(n) counts hook members
    for n in range(1, 7):
        for h in [(1, 1), (2, 1), (2, 2)]:
            assert m_lambda((n,), h) == len(enumerate_partitions(n, in_hook=h))


def test_m_lambda_column_counts_self_conjugate():
    # g(lam, mu, mu) = [mu self-conjugate] for lam a single column
    for n in range(1, 7):
        for h in [(1, 1), (2, 2)]:
            expected = len(enumerate_partitions(n, in_hook=h, self_conjugate=True))
            assert m_lambda((1,) * n, h) == expected


def test_m_lambda_vanishes_outside_big_hook():
    # lam with too many boxes outside H(k^2 + l^2, 2kl) cannot occur
    for k, l in [(1, 1), (2, 1)]:
        big = (k * k + l * l, 2 * k * l)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                if classify_hook(lam, big) is HookClass.OUTSIDE:
                    assert m_lambda(lam, (k, l)) == 0


def test_m_bar_lambda_is_successor_sum():
    # the branching rule, summed over the one-box extensions of lam, is the
    # oracle for the bar class function; the bar jump is its difference
    # against the next smaller hook
    from superschur.poincare import multiplicity
    for h in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1)]:
        smaller = (h[0] - 1, h[1] - 1) if min(h) > 0 else None
        for n in range(7):
            for lam in enumerate_partitions(n):
                succ = add_box_successors(lam)
                expected = sum(m_lambda(mu, h) for mu in succ)
                assert m_bar_lambda(lam, h) == expected, (lam, h)
                if smaller:
                    expected -= sum(m_lambda(mu, smaller) for mu in succ)
                got = multiplicity("bar_prime", lam, h, route="char")
                assert got == expected, (lam, h)


def test_m_lambda_matches_kronecker_oracle():
    # the class-function inner product equals the sum of Kronecker triples
    hooks = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (0, 3)]
    for n in range(9):
        parts = enumerate_partitions(n)
        for h in hooks:
            hook = enumerate_partitions(n, in_hook=h)
            for lam in parts:
                expected = sum(kronecker(lam, mu, mu) for mu in hook)
                assert m_lambda(lam, h) == expected, (lam, h)


@pytest.mark.parametrize("lam", [(10**20,), (VarTable.LIMIT + 1,)])
def test_partition_past_the_limit_named_before_any_shift(lam):
    # a valid partition too large for any character table of S_n is
    # refused by name, not with an OverflowError from the bitmask shift
    for call in (_mask, lambda lam: m_lambda(lam, (1, 1)),
                 lambda lam: m_bar_lambda(lam, (1, 1)),
                 lambda lam: characters.char_multiplicity("prime", lam, (1, 1))):
        with pytest.raises(ValueError, match=rf"\({lam[0]},\).*32767"):
            call(lam)
