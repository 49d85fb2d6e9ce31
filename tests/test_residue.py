import inspect
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from superschur import residue
from superschur.hookschur import Alphabet, graded_homs, hook_schur_eval
from superschur.laurent import InexactError, LaurentPoly, VarTable
from superschur.partitions import (Hook, HookClass, classify_hook,
                                   enumerate_partitions)
from superschur.poincare import budzik_suite, multiplicity, p_series
from superschur.residue import (_KERNELS, _kernel, constant_term_by_kernel,
                                constant_term_with_delta, delta_numerator,
                                hs_on_z, inner_product, m_bar_prime_residue,
                                m_prime_residue, residue_table, z_alphabets)

from conftest import add_box_successors, graded_hom_sequence, laurent_polys


def test_residue_table_layout():
    t = residue_table((2, 1))
    assert t.names == ("x1", "x2", "y1")
    assert residue_table((0, 0)).names == ()


def test_delta_numerator_1_1():
    t = residue_table((1, 1))
    # single x and y: no difference products, only the prefactor x^-1 y
    assert delta_numerator((1, 1)) == LaurentPoly.monomial(t, 1, (-1, 1))


def test_constant_term_of_one():
    # <1, 1> = [empty shape typical], i.e. 1 exactly when min(k, l) = 0
    for h in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (2, 2)]:
        t = residue_table(h)
        one = LaurentPoly.const(t, 1)
        expected = int(min(h) == 0)
        assert inner_product(one, one, h) == expected


def test_single_box_inner_products_1_1():
    t = residue_table((1, 1))
    x = LaurentPoly.variable(t, "x1")
    y = LaurentPoly.variable(t, "y1")
    f = x + y
    assert inner_product(f, f, (1, 1)) == 1
    assert inner_product(f, LaurentPoly.const(t, 1), (1, 1)) == 0


def test_z_alphabet_shapes():
    for k, l in [(1, 1), (2, 1), (2, 2)]:
        z0, z1 = z_alphabets((k, l))
        assert len(z0) == k * k + l * l
        assert len(z1) == 2 * k * l
        # Z0 contains exactly k + l unit monomials
        zero = (0,) * (k + l)
        assert sum(1 for e in z0.monos if e == zero) == k + l
        # every member is inverted by the exponent flip (closed under bar)
        bag = sorted(z0.monos)
        assert bag == sorted(tuple(-a for a in e) for e in z0.monos)


def test_hs_on_z_takes_a_hook_as_a_list():
    # the memoised alphabets are keyed by the hook, so a list is read as
    # its Hook first, as every other residue entry point does
    for k, l in [(1, 1), (2, 1), (1, 2)]:
        for lam in [(1,), (2, 1)]:
            assert hs_on_z(lam, [k, l]) == hs_on_z(lam, (k, l)), (lam, k, l)


def test_z_alphabets_built_once_per_hook():
    # a tuple and a Hook name one memo entry, so hs_on_z hashes the same
    # alphabet objects on every call, and one Delta numerator is built
    for k, l in [(1, 1), (2, 1), (2, 2)]:
        first = z_alphabets((k, l))
        again = z_alphabets(Hook(k, l))
        assert len(first) == len(again) == 2
        assert all(a is b for a, b in zip(first, again))
        assert delta_numerator((k, l)) is delta_numerator(Hook(k, l))


def test_hook_schur_orthonormality_typical():
    # <HS_mu, HS_nu> = 1 if mu = nu and both typical, else 0
    for h in [(1, 1), (2, 1)]:
        t = residue_table(h)
        X = Alphabet.symbols(t, [v for v in t.names if v.startswith("x")])
        Y = Alphabet.symbols(t, [v for v in t.names if v.startswith("y")])
        shapes = [lam for n in range(5) for lam in enumerate_partitions(n, in_hook=h)]
        for mu in shapes:
            for nu in shapes:
                expected = int(mu == nu
                               and classify_hook(mu, h) is HookClass.TYPICAL)
                got = inner_product(hook_schur_eval(mu, X, Y),
                                    hook_schur_eval(nu, X, Y), h)
                assert got == expected, (mu, nu, h)


def test_m_prime_small_values():
    assert m_prime_residue((), (1, 1)) == 0
    assert m_prime_residue((1,), (1, 1)) == 1
    assert m_prime_residue((), (1, 0)) == 1
    assert m_prime_residue((), (0, 0)) == 1
    assert m_prime_residue((1,), (0, 0)) == 0


def test_m_prime_degenerate_hooks_match_characters():
    # with l = 0 the jump is the plain multiplicity in H(k, 0)
    from superschur.characters import m_lambda
    for n in range(5):
        for lam in enumerate_partitions(n):
            assert m_prime_residue(lam, (1, 0)) == m_lambda(lam, (1, 0))
            assert m_prime_residue(lam, (0, 1)) == m_lambda(lam, (0, 1))


def test_m_bar_prime_is_successor_sum():
    for h in [(1, 1), (2, 1)]:
        for n in range(4):
            for lam in enumerate_partitions(n):
                expected = sum(m_prime_residue(mu, h)
                               for mu in add_box_successors(lam))
                assert m_bar_prime_residue(lam, h) == expected


def test_table_hook_mismatch_rejected():
    one = LaurentPoly.const(residue_table((1, 1)), 1)
    for ct in (constant_term_with_delta, constant_term_by_kernel):
        with pytest.raises(ValueError, match="does not match the hook"):
            ct(one, (2, 1))
    with pytest.raises(ValueError, match="does not match the hook"):
        inner_product(one, one, (1, 2))
    # the hook's own table, not one of the same length; the product in
    # inner_product refuses two tables
    other = LaurentPoly.const(VarTable(["a", "b"]), 1)
    for ct in (constant_term_with_delta, constant_term_by_kernel):
        with pytest.raises(ValueError, match="does not match the hook"):
            ct(other, (1, 1))
    with pytest.raises(ValueError, match="variable table mismatch"):
        inner_product(one, other, (1, 1))


def test_slack_independence():
    # the oracle with widened windows against the kernel every integral uses
    for h in [(1, 1), (2, 1)]:
        for n in range(4):
            for lam in enumerate_partitions(n):
                f = hs_on_z(lam, h)
                base = constant_term_by_kernel(f, h)
                assert constant_term_with_delta(f, h, 1) == base
                assert constant_term_with_delta(f, h, 2) == base


SLACK_HOOKS = [(1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_constant_term_independent_of_slack_on_random_laurent(data):
    # arbitrary Laurent f, not only hook-Schur values: checks the pruning
    # of f before the Delta-numerator product as well as the absorption,
    # and the kernel dot product against the windowed oracle
    h = data.draw(st.sampled_from(SLACK_HOOKS))
    f = data.draw(laurent_polys(table=residue_table(h), max_terms=8))
    base = constant_term_with_delta(f, h, 0)
    assert constant_term_with_delta(f, h, 1) == base
    assert constant_term_with_delta(f, h, 3) == base
    assert constant_term_by_kernel(f, h) == base


def test_slack_past_limit_rejected():
    t = residue_table((1, 1))
    with pytest.raises(ValueError, match="packing limit"):
        constant_term_with_delta(LaurentPoly.const(t, 1), (1, 1), VarTable.LIMIT + 1)
    # a term may take k slack plus its x-degree steps, so a high x-degree
    # is refused too: on (1, 1) with slack 1000, x1^32000 times the
    # numerator's x1^-1 y1 could take 32,999 steps and carry y1 to 33,000
    with pytest.raises(ValueError, match="packing limit"):
        constant_term_with_delta(LaurentPoly.monomial(t, 1, (32000, 0)), (1, 1), 1000)


def test_inexact_residue_raises():
    # the constant term of x1 x2^-1 * Delta is -1, not a multiple of 2! 0!
    t = residue_table((2, 0))
    f = LaurentPoly.monomial(t, 1, (1, -1))
    assert constant_term_with_delta(f, (2, 0)) == -1
    with pytest.raises(InexactError, match="-1 is not divisible by 2"):
        inner_product(f, LaurentPoly.const(t, 1), (2, 0))


KERNEL_HOOKS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_kernel_matches_oracle_on_hook_schur_values(h):
    for n in range(7):
        for lam in enumerate_partitions(n):
            f = hs_on_z(lam, h)
            assert constant_term_by_kernel(f, h) == constant_term_with_delta(f, h), lam


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_bar_factor_is_hook_schur_of_one_box(h):
    # the bar kernel's numerator carries the letters of Z0 u Z1 as HS_(1)
    z0, z1 = z_alphabets(h)
    assert hs_on_z((1,), h) == z0.sum_poly() + z1.sum_poly()


def _by_x_degree(f: LaurentPoly, k: int) -> list:
    """f split into its parts of one x-degree each."""
    parts = {}
    for e, c in f.terms.items():
        parts.setdefault(sum(e[:k]), {})[e] = c
    return [LaurentPoly(f.table, part) for part in parts.values()]


def _by_kernel(f: LaurentPoly, h: Hook, bar: bool) -> int:
    """CT[f HS_(1)^bar Delta] by one dot product against the kernel at the
    largest x-degree among f's terms."""
    kern = _kernel(h, residue._x_top(f, h.k), bar)
    return residue._dot(f._packed, kern)


@pytest.mark.parametrize("bar", [False, True])
def test_kernel_independent_of_growth_order(bar):
    # the memo grows with the top (the largest x-degree an integrand
    # carries), one entry per (hook, bar): integrands asked by top
    # ascending, by top descending, each from a cleared memo, and
    # interleaved with the other key one top higher must give the same
    # values and kernels, and each key ends at its own largest top
    h = Hook(2, 2)
    fs = [part for n in range(7) for lam in enumerate_partitions(n)
          for part in [hs_on_z(lam, h)] + _by_x_degree(hs_on_z(lam, h), h.k)]
    top = {id(f): max(sum(e[:h.k]) for e in f.terms) for f in fs}
    assert len(set(top.values())) > 3
    largest = max(top.values())
    one = hs_on_z((1,), h) if bar else LaurentPoly.const(residue_table(h), 1)
    want = {id(f): constant_term_with_delta(f * one, h) for f in fs}
    _KERNELS.clear()
    whole = _kernel(h, largest, bar)
    ascending = sorted(fs, key=lambda f: top[id(f)])
    for order in (ascending, ascending[::-1]):
        _KERNELS.clear()
        assert {id(f): _by_kernel(f, h, bar) for f in order} == want
        assert _KERNELS[h, bar] == (largest, whole)
    _KERNELS.clear()
    for f in ascending:
        assert _by_kernel(f, h, bar) == want[id(f)]
        _kernel(h, top[id(f)] + 1, not bar)
    assert _KERNELS[h, bar] == (largest, whole)
    assert _KERNELS[h, not bar][0] == largest + 1
    for f in fs:
        _KERNELS.clear()
        assert _by_kernel(f, h, bar) == want[id(f)]


def _x_degree(table, key, k):
    return sum(table.unpack(key)[:k])


def _cut(kern: dict, table, k: int, top: int) -> dict:
    return {key: c for key, c in kern.items() if _x_degree(table, key, k) <= top}


def _implied_box(h: Hook, top: int, bar: bool = False) -> int:
    """The box |e_i| <= k + l - 1 + (top - kl + bar) that the kernel's
    entries reach: the numerator's, widened by one per geometric step.
    The bar factor's letters of x-degree 0 or -1 widen the numerator by
    one, and those of x-degree +1 buy one more step but widen nothing."""
    return h.k + h.l - 1 + max(top - h.k * h.l + bar, 0)


def _summed_bar_kernel(h: Hook, top: int) -> dict:
    """The bar kernel the slow way, sum_z w_z [x^-(e+z)] Delta over the
    letters z of HS_(1)(Z0;Z1) with multiplicity w_z, cut to x-degree <=
    top, from the plain kernel at top + 1: a letter carries x-degree -1, 0
    or +1, so e reads the kernel at e + z, at most one higher."""
    kern = _kernel(h, top + 1)
    z0, z1 = z_alphabets(h)
    table = z0.table
    zero_key = table.zero_key
    letters = [(z - zero_key, w)
               for z, w in (z0.sum_poly() + z1.sum_poly())._packed.items()]
    summed: dict[int, int] = {}
    for key, c in kern.items():
        for shift, w in letters:
            summed[key - shift] = summed.get(key - shift, 0) + w * c
    return {key: c for key, c in summed.items()
            if c and _x_degree(table, key, h.k) <= top}


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_bar_kernel_equals_summed_bar_kernel(h):
    # the bar factor absorbed with the numerator equals the plain kernel
    # summed over the letters of HS_(1), at every top from the first one
    # the bar kernel can read to well past it, from a cleared memo
    h = Hook(*h)
    kl = h.k * h.l
    for top in range(kl - 1, 2 * kl + 3):
        _KERNELS.clear()
        assert _kernel(h, top, True) == _summed_bar_kernel(h, top), top


def _in_box(kern: dict, table, box: int) -> bool:
    """Every exponent of every key has |e_i| <= box (on an empty table,
    whose keys have no exponent, whatever the box)."""
    return all(abs(e) <= box for key in kern for e in table.unpack(key))


def _boxed_absorb(terms: dict, table, k: int, ell: int, r: int,
                  top: int) -> dict:
    """The absorption with a second cut, the box |e_i| <= r, beside the
    x-degree cut at -top (oracle for `residue._absorb`).  A term takes
    m steps of the factor (x_i^-1 y_j) only while x_i >= -r, y_j <= r and
    its x-degree stays >= -top, and once every factor touching x_i is in,
    x_i is clipped to [-r, r]."""
    field, width = table.field, VarTable.WIDTH
    above = width * len(table)
    terms = {key + (left << above): c for key, c in terms.items()
             if (left := top + _x_degree(table, key, k)) >= 0}
    for i in range(k):
        for j in range(ell):
            step = (1 << (width * (k + j))) - (1 << (width * i)) - (1 << above)
            new: dict[int, int] = {}
            for key, c in terms.items():
                bound = min(field(key, i) + r, r - field(key, k + j), key >> above)
                for m in range(bound + 1):
                    new[key] = new.get(key, 0) + c * (m + 1)
                    key += step
                    c = -c
            terms = {key: c for key, c in new.items() if c}
        terms = table.clip(terms, i, -r, r)
    exponents = (1 << above) - 1
    return {key & exponents: c for key, c in terms.items()}


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_kernel_equals_boxed_absorption(h):
    # the box the entries reach cuts nothing: the kernel, with its one
    # cut at x-degree -top, equals the absorption that also keeps every
    # term in the box its top implies, for the plain and the bar kernel
    # (the whole of HS_(1) in the numerator), at every top from kl - 1 to
    # 2 kl + 2, from a cleared memo
    h = Hook(*h)
    table = residue_table(h)
    kl = h.k * h.l
    num = delta_numerator(h)
    for bar in (False, True):
        start = num * hs_on_z((1,), h) if bar else num
        for top in range(kl - 1, 2 * kl + 3):
            terms = _boxed_absorb(start._packed, table, h.k, h.l,
                                  _implied_box(h, top, bar), top)
            want = {2 * table.zero_key - key: c for key, c in terms.items()}
            _KERNELS.clear()
            assert _kernel(h, top, bar) == want, (bar, top)


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_cut_kernel_is_whole_box_kernel_below_its_top(h):
    # the kernel at top equals a reference cut to x-degree <= top: the
    # numerator absorbed up to one past the largest top asked, and its
    # entries lie in the box that top implies, so the top alone bounds
    # the box.  The bar kernel, whose numerator carries HS_(1), equals the
    # reference summed over the letters of HS_(1), on the box its own top
    # implies
    h = Hook(*h)
    table = residue_table(h)
    kl = h.k * h.l
    tops = (kl, kl + 1, kl + 3, 2 * kl)
    far = max(tops) + 1
    terms = residue._absorb(delta_numerator(h)._packed, table, h.k, h.l,
                            far)
    whole = {2 * table.zero_key - key: c for key, c in terms.items()}
    whole_bar = {}
    for z, w in hs_on_z((1,), h)._packed.items():
        for key, c in whole.items():
            shifted = key - z + table.zero_key
            whole_bar[shifted] = whole_bar.get(shifted, 0) + w * c
    whole_bar = {key: c for key, c in whole_bar.items() if c}
    for top in tops:
        _KERNELS.clear()
        kern = _kernel(h, top)
        assert kern == _cut(whole, table, h.k, top), top
        assert _in_box(kern, table, _implied_box(h, top)), top
        _KERNELS.clear()
        bar = _kernel(h, top, True)
        assert bar == _cut(whole_bar, table, h.k, top), top
        assert _in_box(bar, table, _implied_box(h, top, True)), top


@pytest.mark.parametrize("h, D, size", [
    (Hook(3, 3), 10, 361),
    (Hook(3, 2), 12, 57),
    (Hook(3, 3), 8, 0),
])
def test_one_variable_series_builds_only_the_kernel_it_reads(h, D, size):
    # a T factor carries x-degree at most kl, and the kernel keys start at
    # kl, so a one-variable series reads one x-degree of the kernel, and
    # none before degree kl: the whole box holds 48,476 entries for (3,3)
    # at reach 10, 10,770 for (3,2) at reach 12 and 14,208 for (3,3) at 8
    _KERNELS.clear()
    series = p_series("prime", h, 1, 0, D)
    # below kl the empty kernel is neither built nor memoised
    assert len(_KERNELS[h, False][1]) == size if size else (h, False) not in _KERNELS
    assert series == p_series("prime", h, 1, 0, D, route="char")
    if h == Hook(3, 3):
        coeffs = [series.coefficient((d,)) for d in range(D + 1)]
        assert coeffs == [0] * 9 + [1, 2][:D - 8]


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_hook_schur_reach_is_at_most_size(h):
    # the bound covers every exponent and never passes |lam|.  It is
    # exactly |lam| where Z0 holds a non-constant letter: on (1, 0),
    # (0, 1) and (1, 1) every letter of Z0 is 1, so h_d(Z0;Z1) has reach
    # at most |Z1| = 2kl.  The x-degree bound that cuts the kernel of a
    # per-lam integral covers every term too
    exact = h not in ((1, 0), (0, 1), (1, 1))
    for n in range(7):
        for lam in enumerate_partitions(n):
            f = hs_on_z(lam, h)
            true = max((max(map(abs, e), default=0) for e in f.terms), default=0)
            assert true <= f.reach <= n, lam
            assert f.reach == n or not exact, lam
            top = residue._hs_top(lam, Hook(*h))
            assert all(sum(e[:h[0]]) <= top for e in f.terms), lam


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_bar_integral_matches_explicit_product(h):
    k_l = factorial(Hook(*h).k) * factorial(Hook(*h).l)
    for n in range(6):
        for lam in enumerate_partitions(n):
            f = hs_on_z(lam, h) * hs_on_z((1,), h)
            got = m_bar_prime_residue(lam, h)
            assert got == inner_product(f, LaurentPoly.const(f.table, 1), h), lam
            assert got * k_l == constant_term_with_delta(f, h), lam


def _counting_absorb(monkeypatch) -> list:
    """Wrap `residue._absorb`, recording each build's (k, l, top) and the
    terms it returned."""
    builds = []
    absorb = residue._absorb
    params = inspect.signature(absorb)

    def counted(*args, **kwargs):
        named = params.bind(*args, **kwargs).arguments
        terms = absorb(*args, **kwargs)
        builds.append((named["k"], named["ell"], named["top"], terms))
        return terms

    monkeypatch.setattr(residue, "_absorb", counted)
    return builds


@pytest.mark.parametrize("mode, h, n, m, D, degree", [
    ("prime", Hook(2, 2), 1, 0, 12, 12),
    ("prime", Hook(3, 2), 1, 1, 6, 6),
    ("bar_prime", Hook(2, 1), 1, 1, 7, 8),
    ("prime", Hook(2, 2), 2, 0, 6, 6),
    ("bar_prime", Hook(2, 1), 2, 0, 7, 8),
])
def test_one_kernel_per_series(monkeypatch, mode, h, n, m, D, degree):
    # a residue-route series sizes its kernel once, before its first
    # integral, at its largest top: D with a U factor, and at most kl per
    # T factor without.  The integrand's degree is one more with the bar
    # factor's letter, but that letter sits in the kernel's numerator, so
    # a bar series builds one kernel, at its own top, in the bar box, and
    # no plain kernel one higher; the top alone fixes the box
    bar = mode == "bar_prime"
    assert degree == D + bar
    top = D if m else min(D, h.k * h.l * n)
    builds = _counting_absorb(monkeypatch)
    _KERNELS.clear()
    p_series(mode, h, n, m, D)
    assert [build[:3] for build in builds] == [(h.k, h.l, top)]
    assert list(_KERNELS) == [(h, bar)]
    assert _KERNELS[h, bar][0] == top
    assert _in_box(_KERNELS[h, bar][1], residue_table(h), _implied_box(h, top, bar))


def test_budzik_builds_each_kernel_at_rising_tops(monkeypatch):
    # the lam of one size arrive with rising tops, and the memo is keyed
    # by the top alone, so each hook's builds (the diagonal sum adds
    # (1, 1) and (2, 0)) come at strictly rising tops, none at a top
    # already covered, each kernel in the box its top implies
    builds = _counting_absorb(monkeypatch)
    _KERNELS.clear()
    assert all(r["pass"] for r in budzik_suite(7, [(2, 2), (3, 1)]))
    # a top below kl builds nothing: (2, 2) below 4, (3, 1) below 3 and
    # (1, 1) at 0 would add 8
    assert len(builds) == 18
    tops = {}
    for k, ell, top, terms in builds:
        h = Hook(k, ell)
        assert _in_box(terms, residue_table(h), _implied_box(h, top))
        tops.setdefault((k, ell), []).append(top)
    for hook, seq in tops.items():
        assert all(a < b for a, b in zip(seq, seq[1:])), (hook, seq)


@pytest.mark.parametrize("h", [Hook(3, 3), Hook(4, 4)])
def test_jump_below_kl_is_zero_without_hook_schur(monkeypatch, h):
    # a per-lam jump fetches its kernel first, cut at _hs_top (one more
    # under the bar kernel); below kl that kernel is empty, the dot
    # product is 0, and HS_lam(Z0;Z1) is never built
    kl = h.k * h.l
    cases = [(mode, lam) for mode in ("prime", "bar_prime")
             for n in range(7) for lam in enumerate_partitions(n)
             if residue._hs_top(lam, h) + (mode == "bar_prime") < kl]
    assert len(cases) == 2 * sum(1 for n in range(7) for _ in enumerate_partitions(n))
    want = [multiplicity(mode, lam, h, route="char") for mode, lam in cases]

    def refused(*args):
        raise AssertionError("hs_on_z called below kl")

    monkeypatch.setattr(residue, "hs_on_z", refused)
    _KERNELS.clear()
    got = [multiplicity(mode, lam, h) for mode, lam in cases]
    assert got == want == [0] * len(cases)


@pytest.mark.parametrize("h", [Hook(1, 1), Hook(2, 2), Hook(3, 1)])
def test_kernel_below_kl_is_empty_whatever_the_memo(h):
    # a memo built at a higher top holds entries a lower top cannot read,
    # so the empty kernel below kl (kl - 1 for the bar kernel) must not
    # come from the memo, or a per-lam jump would build HS_lam for nothing
    # depending on what was asked before
    kl = h.k * h.l
    assert _kernel(h, 2 * kl) and _kernel(h, 2 * kl, True)
    assert _kernel(h, kl - 1) == {}
    assert _kernel(h, kl - 2, True) == {}
    assert _KERNELS[h, False][0] >= 2 * kl and _KERNELS[h, True][0] >= 2 * kl


@pytest.mark.parametrize("h, D", [(Hook(9, 9), 3), (Hook(5, 4), 12)])
def test_series_below_kl_builds_no_numerator(monkeypatch, h, D):
    # a one-variable series reads the kernel up to x-degree min(D, kl);
    # below kl the kernel is empty and built without the Delta numerator,
    # which has 595,161 terms at (5, 4) and is out of reach at (9, 9)
    want = p_series("prime", h, 1, 0, D, route="char")

    def refused(*args):
        raise AssertionError("delta_numerator built below kl")

    monkeypatch.setattr(residue, "delta_numerator", refused)
    _KERNELS.pop((h, False), None)
    assert p_series("prime", h, 1, 0, D) == want


def test_empty_kernel_builds_no_z_alphabet(monkeypatch):
    # below kl - bar the kernel is empty, so an integral ends before it
    # builds the Z alphabets (about 4k^2 letters on a (k, k) hook), their
    # variable table or any complete function, and gives what the char
    # route gives
    want = [p_series("prime", (60, 60), 1, 0, 5, route="char"),
            p_series("bar_prime", (40, 40), 1, 1, 4, route="char")]

    def refused(*args):
        raise AssertionError("Z alphabets built for an empty kernel")

    monkeypatch.setattr(residue, "z_alphabets", refused)
    monkeypatch.setattr(residue, "graded_homs", refused)
    monkeypatch.setattr(residue, "residue_table", refused)
    assert [p_series("prime", (60, 60), 1, 0, 5),
            p_series("bar_prime", (40, 40), 1, 1, 4)] == want
    assert m_prime_residue((3, 3), (100, 100)) == 0
    assert m_bar_prime_residue((3, 3), (100, 100)) == 0


def test_kernel_past_limit_rejected():
    # the bar factor's letters reach one past the top, and the refusal
    # names that value
    with pytest.raises(ValueError, match="past the packing limit"):
        _kernel(Hook(1, 1), VarTable.LIMIT + 1)
    with pytest.raises(ValueError, match=f"top {VarTable.LIMIT + 1}, counting "
                       "the bar letter, is past the packing limit"):
        _kernel(Hook(1, 1), VarTable.LIMIT, True)


@pytest.mark.parametrize("h", KERNEL_HOOKS)
def test_kernel_reads_only_x_degree_kl_and_up(h):
    # the kernel keys f's exponent e at [x^-e] Delta, and every entry of
    # Delta has x-degree <= -kl, so every key has x-degree >= kl; the bar
    # factor's letters carry at most +1, so the bar kernel's keys have
    # x-degree >= kl - 1
    h = Hook(*h)
    table = residue_table(h)
    kl = h.k * h.l
    kern = _kernel(h, 2 * kl + 2)
    assert kern and min(_x_degree(table, key, h.k) for key in kern) >= kl
    bar = _kernel(h, 2 * kl + 2, True)
    assert bar and min(_x_degree(table, key, h.k) for key in bar) >= kl - 1


@pytest.mark.parametrize("h", [Hook(2, 2), Hook(3, 2), Hook(3, 3)])
def test_bar_kernel_absorbs_only_terms_above_its_cut(monkeypatch, h):
    # every term of the Delta numerator has x-degree -kl and a letter of
    # HS_(1) adds -1, 0 or +1, so only the letters of x-degree >= kl - top
    # go into the product that _absorb receives: each of its terms has
    # x-degree >= -top, and the kernel is the summed one all the same
    table = residue_table(h)
    kl = h.k * h.l
    received = []
    absorb = residue._absorb

    def recorded(terms, *args):
        received.append(terms)
        return absorb(terms, *args)

    monkeypatch.setattr(residue, "_absorb", recorded)
    for top in (kl - 1, kl):
        _KERNELS.pop((h, True), None)
        received.clear()
        kern = _kernel(h, top, True)
        assert len(received) == 1
        assert min(_x_degree(table, key, h.k) for key in received[0]) >= -top
        assert kern == _summed_bar_kernel(h, top)


@pytest.mark.parametrize("h", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
@pytest.mark.parametrize("odd", [False, True])
def test_graded_homs_equal_complete_functions_cut_at_floor(h, odd):
    # the buckets kept are exact: h_d of the plain X-then-Y recurrence,
    # split by x-degree, on every bucket at or above the floor, and
    # nothing below it
    h = Hook(*h)
    z0, z1 = z_alphabets(h)
    X, Y = (z1, z0) if odd else (z0, z1)
    D = 10
    for floor in (h.k * h.l, 0, -D):
        graded = graded_homs(X, Y, h.k, floor, D)
        assert len(graded) == D + 1
        assert graded == graded_hom_sequence(X, Y, h.k, floor, D), floor


@pytest.mark.parametrize("h", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_complete_functions_on_z_have_positive_coefficients(h):
    # every letter of Z0 and Z1 has coefficient 1, so no term of a
    # complete function cancels and every bucket kept holds a term
    h = Hook(*h)
    z0, z1 = z_alphabets(h)
    for X, Y in ((z0, z1), (z1, z0)):
        for hd in graded_homs(X, Y, h.k, -12, 8):
            for g, bucket in hd.items():
                assert not bucket.is_zero(), (X is z0, g)
                assert all(c > 0 for c in bucket.terms.values()), (X is z0, g)
