import re
import sys
from itertools import permutations, product

import pytest

from superschur import characters, hookschur, poincare, residue
from superschur.characters import (_hook_weights, class_weights, default_cache,
                                   m_bar_lambda, m_lambda)
from superschur.hookschur import Alphabet, hook_schur_eval
from superschur.laurent import InexactError, LaurentPoly, VarTable, exact_quotient
from superschur.partitions import Hook, enumerate_partitions
from math import factorial

from superschur.poincare import (MODES, ROUTES, budzik_cases, budzik_suite,
                                 check_derivative_relation, lemmas_suite,
                                 multiplicity, p_series, series_table,
                                 univariate_coefficients, verify_budzik)
from superschur.qseries import closed_form_series
from superschur.residue import m_bar_prime_residue, m_prime_residue


def test_m_prime_char_examples():
    def jump(lam, h):
        return multiplicity("prime", lam, h, route="char")
    assert jump((), (1, 1)) == 0
    assert jump((1,), (1, 1)) == 1
    assert jump((), (1, 0)) == 1
    assert jump((2,), (1, 1)) == 2  # both size-2 shapes, none in H(0,0)


def test_routes_agree_on_jump():
    for h in [(1, 1), (2, 1), (1, 2)]:
        for n in range(5):
            for lam in enumerate_partitions(n):
                assert m_prime_residue(lam, h) == multiplicity(
                    "prime", lam, h, route="char"), (lam, h)


def test_routes_agree_on_bar_jump():
    for h in [(1, 1), (2, 1)]:
        for n in range(4):
            for lam in enumerate_partitions(n):
                assert m_bar_prime_residue(lam, h) == multiplicity(
                    "bar_prime", lam, h, route="char")


def _jump(m, lam, h):
    # m(k, l) - m(k-1, l-1), the subtrahend 0 when no smaller hook exists
    h = Hook(*h)
    if min(h.k, h.l) == 0:
        return m(lam, h)
    return m(lam, h) - m(lam, Hook(h.k - 1, h.l - 1))


def test_multiplicity_table():
    oracle = {
        ("plain", "residue"): m_lambda,
        ("plain", "char"): m_lambda,
        ("bar", "residue"): m_bar_lambda,
        ("bar", "char"): m_bar_lambda,
        ("prime", "residue"): m_prime_residue,
        ("prime", "char"): lambda lam, h: _jump(m_lambda, lam, h),
        ("bar_prime", "residue"): m_bar_prime_residue,
        ("bar_prime", "char"): lambda lam, h: _jump(m_bar_lambda, lam, h),
    }
    assert set(oracle) == {(mode, route) for mode in MODES for route in ROUTES}
    for h in [(1, 0), (0, 2), (1, 1), (2, 1), (2, 2)]:
        for n in range(6):
            for lam in enumerate_partitions(n):
                for (mode, route), want in oracle.items():
                    got = multiplicity(mode, lam, h, route=route)
                    assert got == want(lam, h), (mode, route, lam, h)


def test_multiplicity_rejects_bad_choice():
    with pytest.raises(ValueError, match="'jump'.*'plain', 'prime'"):
        multiplicity("jump", (1,), (1, 1))
    with pytest.raises(ValueError, match="'Char'.*'residue', 'char'"):
        multiplicity("prime", (1,), (1, 1), route="Char")
    # plain and bar read no route, but a bad one is still refused
    with pytest.raises(ValueError, match="'typo'"):
        multiplicity("plain", (1,), (1, 1), route="typo")


def _per_lambda_entry_points():
    yield from (m_lambda, m_bar_lambda, m_prime_residue, m_bar_prime_residue)
    for mode in MODES:
        for route in ROUTES:
            yield lambda lam, h, mode=mode, route=route: multiplicity(
                mode, lam, h, route=route)


def test_per_lambda_multiplicities_reject_non_partitions():
    # both cores (the class sum and the residue jump) drop zero parts and
    # refuse the rest by name, so the two routes agree on every input
    for f in _per_lambda_entry_points():
        for bad in [(1, 2), (2, -1), (2.0, 1)]:
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                f(bad, (1, 1))
        want = f((2, 1), (1, 1))
        assert f((2, 1, 0), (1, 1)) == want and f([2, 1], (1, 1)) == want


def test_lemmas_suite_rows():
    rows = lemmas_suite(2, [(1, 1)], 3)
    jumps = [r for r in rows if r["check"] == "bar_jump"]
    assert [r["lambda"] for r in jumps] == [[], [1], [2], [1, 1]]
    assert [r["check"] for r in rows[len(jumps):]] == ["derivative"] * 2
    assert all(r["pass"] for r in rows)


def test_verify_budzik_report_shape():
    report = verify_budzik((2, 1), (1, 1))
    assert report["pass"] is True
    assert report["lhs"] == report["rhs"]
    assert report["eq_a_lhs"] == report["eq_a_rhs"]
    assert report["lambda"] == [2, 1] and (report["k"], report["l"]) == (1, 1)


def test_budzik_suite_serial_equals_parallel():
    hooks = [(1, 1)]
    serial = budzik_suite(3, hooks, jobs=1)
    parallel = budzik_suite(3, hooks, jobs=2)
    assert serial == parallel
    assert len(serial) == len(budzik_cases(3, hooks))
    assert all(r["pass"] for r in serial)


@pytest.mark.parametrize("max_size, jobs, cpus, pool", [
    (0, 64, 2, None),   # one case: no pool, however many jobs are asked for
    (3, 64, 3, 3),      # capped at the CPU count
    (1, 8, 8, 2),       # capped at the case count
    (3, 2, 8, 2),       # the jobs asked for
    (3, 8, None, None),  # CPU count unknown: serial
])
def test_budzik_suite_pool_size(monkeypatch, max_size, jobs, cpus, pool):
    # a fake pool records its size and maps in this process, so no worker
    # process starts
    import concurrent.futures
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *items):
            return map(fn, *items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(poincare.os, "cpu_count", lambda: cpus)
    hooks = [(1, 1)]
    got = budzik_suite(max_size, hooks, jobs=jobs)
    assert sizes == ([] if pool is None else [pool])
    assert got == budzik_suite(max_size, hooks, jobs=1)


def test_p_series_one_even_variable_matches_closed_form():
    D = 10
    for h in [(1, 1), (2, 1), (2, 2)]:
        series = p_series("prime", h, 1, 0, D, route="char")
        got = univariate_coefficients(series, D)
        want = list(closed_form_series("traces_n1", h, D).coeffs)
        assert got == want, h


def test_p_series_one_odd_variable_matches_closed_form():
    D = 10
    for h in [(1, 1), (2, 1), (2, 2)]:
        series = p_series("prime", h, 0, 1, D, route="char")
        got = univariate_coefficients(series, D)
        want = list(closed_form_series("supertraces_01", h, D).coeffs)
        assert got == want, h


def test_p_series_routes_agree_multivariate():
    for mode in ("prime", "bar_prime"):
        a = p_series(mode, (1, 1), 1, 1, 4, route="residue")
        b = p_series(mode, (1, 1), 1, 1, 4, route="char")
        assert a == b


def test_p_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        p_series("prime", (1, 1), 0, 0, 4)
    with pytest.raises(ValueError):
        p_series("prime", (1, 1), 1, 0, -1)
    with pytest.raises(ValueError):
        p_series("mystery", (1, 1), 1, 0, 4)
    # a misspelt route must not fall through to the character route
    with pytest.raises(ValueError, match="'Residue'.*'residue', 'char'"):
        p_series("prime", (1, 1), 1, 0, 3, route="Residue")
    with pytest.raises(ValueError, match="'typo'"):
        check_derivative_relation((1, 1), 1, 3, True, route="typo")
    # a negative variable count is named as given, not as a shifted hook
    with pytest.raises(ValueError, match="nonnegative, got n=-1, m=3"):
        p_series("plain", (1, 1), -1, 3, 4)
    with pytest.raises(ValueError, match="nonnegative, got n=3, m=-2"):
        p_series("plain", (1, 1), 3, -2, 4)
    # a degree past the packing limit is refused up front on both routes,
    # not after the class weights of every smaller degree
    for route in ROUTES:
        with pytest.raises(ValueError, match="40000 is past the packing limit 32767"):
            p_series("prime", (1, 1), 1, 0, 40000, route=route)


def test_univariate_coefficients_read_no_terms_mapping(monkeypatch):
    # one packed lookup per degree: the tuple-keyed mapping is never built,
    # and degrees past the packing limit read 0
    D = 12
    series = p_series("prime", (2, 1), 1, 0, D, route="char")
    want = [series.terms.get((d,), 0) for d in range(D + 1)]
    assert any(want)

    def refuse(self):
        raise AssertionError("univariate_coefficients read LaurentPoly.terms")
    monkeypatch.setattr(LaurentPoly, "terms", property(refuse))
    assert univariate_coefficients(series, D) == want
    past = univariate_coefficients(series, VarTable.LIMIT + 2)
    assert past[:D + 1] == want and not any(past[D + 1:])


def test_univariate_coefficients_rejects_multivariate():
    with pytest.raises(ValueError):
        univariate_coefficients(p_series("plain", (1, 1), 1, 1, 2), 2)


def test_series_table_names():
    assert series_table(2, 1).names == ("t1", "t2", "u1")


def test_derivative_relations():
    for h in [(1, 1), (1, 0)]:
        for primed in (False, True):
            ok, report = check_derivative_relation(h, 1, 4, primed, route="char")
            assert ok, report


def _per_lambda_series(mode, h, n, m, D, route="char"):
    # the assembly before power sums and before the Cauchy pairing: one
    # multiplicity and one Jacobi-Trudi determinant per lam in the (n, m)
    # hook, since no other HS_lam(T;U) is nonzero (the hook theorem)
    table = series_table(n, m)
    T = Alphabet.symbols(table, table.names[:n])
    U = Alphabet.symbols(table, table.names[n:])
    total = LaurentPoly.zero(table)
    for d in range(D + 1):
        for lam in enumerate_partitions(d, in_hook=(n, m)):
            c = multiplicity(mode, lam, h, route)
            if c:
                total = total + hook_schur_eval(lam, T, U) * c
    return total


# (n, m) -> D, about 1 s over the four modes
ORACLE_DEGREES = {(1, 0): 14, (0, 1): 14, (2, 0): 11, (1, 1): 10, (3, 0): 10,
                  (2, 1): 9, (0, 2): 11, (1, 2): 8}


@pytest.mark.parametrize("mode", MODES)
def test_p_series_char_equals_per_lambda_oracle(mode):
    for h in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]:
        for (n, m), D in ORACLE_DEGREES.items():
            got = p_series(mode, h, n, m, D, route="char")
            assert got == _per_lambda_series(mode, h, n, m, D), (mode, h, n, m, D)


# (n, m) -> D for the residue route against its per-lam integrals
RESIDUE_ORACLE_DEGREES = {(1, 0): 8, (0, 1): 8, (2, 0): 7, (1, 1): 7,
                          (0, 2): 6, (2, 1): 5}


@pytest.mark.parametrize("mode", ("prime", "bar_prime"))
@pytest.mark.parametrize("h", [(0, 0), (1, 0), (0, 1), (0, 2), (2, 0), (1, 1),
                               (3, 1), (1, 3)])
def test_p_series_residue_equals_per_lambda_oracle(mode, h):
    # one and two blocks, one and two factors in a block, and hooks where
    # the kernel reads every x-degree (kl = 0)
    for (n, m), D in RESIDUE_ORACLE_DEGREES.items():
        got = p_series(mode, h, n, m, D, route="residue")
        want = _per_lambda_series(mode, h, n, m, D, route="residue")
        assert got == want, (mode, h, n, m, D)


def _product_walk_series(mode, h, n, m, D):
    # the power-sum assembly on full polynomials: p_rho(T;U) grows by
    # appending a part r <= rho's last one and multiplying by p_r with
    # LaurentPoly.__mul__, and every monomial is kept, sorted or not
    h = Hook(*h)
    table = series_table(n, m)
    weights = [class_weights(mode, h, N) for N in range(D + 1)]
    power = [None]
    for r in range(1, D + 1):
        power.append(LaurentPoly(table, {
            tuple(r if j == i else 0 for j in range(n + m)):
            1 if i < n or r % 2 else -1 for i in range(n + m)}))
    sums = [LaurentPoly.zero(table)] * (D + 1)

    def walk(rho, size, p):
        w = weights[size].get(rho)
        if w:
            sums[size] = sums[size] + p * w
        for r in range(min(rho[-1] if rho else D, D - size), 0, -1):
            walk(rho + (r,), size + r, p * power[r])

    walk((), 0, LaurentPoly.const(table, 1))
    b = mode.startswith("bar")
    return LaurentPoly(table, {
        e: exact_quotient(c, factorial(N + b), "oracle class sum")
        for N, acc in enumerate(sums) for e, c in acc.terms.items()})


@pytest.mark.parametrize("mode", MODES)
def test_sorted_monomial_walk_equals_product_walk(mode):
    # two or more variables in a block, both blocks at once, and the empty
    # hook, whose walk stops at degree 0
    for h in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 2)]:
        for (n, m), D in {(1, 0): 9, (0, 1): 9, (2, 1): 8, (1, 2): 8,
                          (0, 3): 8, (4, 0): 8}.items():
            got = p_series(mode, h, n, m, D, route="char")
            assert got == _product_walk_series(mode, h, n, m, D), (mode, h, n, m, D)


def _top_down_class_sums(weights, n, width):
    # the class walk before Horner form: p_rho for every class, grown
    # top-down from the class without its largest part by the same move
    # rows, each weighted copy added into the sums of its degree
    top = max((N for N, v in enumerate(weights) if v), default=0)
    monos = [(0,) * width]
    ids = {monos[0]: 0}
    moves = [{} for _ in range(top + 1)]  # moves[r][id]: (target, factor, ...)

    def targets(k: int, r: int) -> tuple:
        e = monos[k]
        row = []
        for lo, hi in ((0, n), (n, width)):
            sign = -1 if lo == n and r % 2 == 0 else 1
            for i in range(lo, hi):
                v = e[i]
                if i > lo and e[i - 1] == v:
                    continue
                w = v + r
                j = i  # w goes before the entries of the block below it
                while j > lo and e[j - 1] < w:
                    j -= 1
                f = e[:j] + (w,) + e[j:i] + e[i + 1:]
                t = ids.get(f)
                if t is None:
                    t = ids[f] = len(monos)
                    monos.append(f)
                row += t, sign * f[lo:hi].count(w)
        return tuple(row)

    sums = [{} for _ in range(top + 1)]
    sums[0][0] = weights[0].get((), 0)  # p_() = 1, the monomial of id 0
    # (r, rho, |rho|, p_rho): visit (r,) + rho, r >= rho_1
    stack = [(r, (), 0, {0: 1}) for r in range(top, 0, -1)]
    while stack:
        r, rho, size, p = stack.pop()
        row_of = moves[r]
        q = {}
        get = q.get
        for k, c in p.items():
            row = row_of.get(k)
            if row is None:
                row = row_of[k] = targets(k, r)
            pairs = iter(row)
            for t, f in zip(pairs, pairs):
                q[t] = get(t, 0) + f * c
        rho, size = (r,) + rho, size + r
        w = weights[size].get(rho)
        if w:
            acc = sums[size]
            get = acc.get
            for k, c in q.items():
                acc[k] = get(k, 0) + w * c
        stack.extend((s, rho, size, q) for s in range(top - size, r - 1, -1))
    return monos, sums


def _by_monomial(monos, sums):
    return [{monos[k]: c for k, c in acc.items() if c} for acc in sums]


@pytest.mark.parametrize("mode", MODES)
def test_bottom_up_walk_equals_top_down_walk(mode):
    # three even variables on two hooks, and two or three odd ones, where
    # even powers carry a sign
    for h, n, m, D in (((2, 2), 3, 0, 14), ((1, 1), 3, 0, 14),
                       ((2, 1), 1, 2, 10), ((2, 1), 0, 3, 9)):
        weights = [class_weights(mode, Hook(*h), N) for N in range(D + 1)]
        got = _by_monomial(*poincare._class_sums(weights, n, n + m))
        want = _by_monomial(*_top_down_class_sums(weights, n, n + m))
        assert got == want, (mode, h, n, m, D)


def _stack_depth():
    # the frames below this call, counted as the recursion limit counts
    # them: C calls in between take a place too
    def down(k):
        try:
            return down(k + 1)
        except RecursionError:
            return k
    return sys.getrecursionlimit() - down(0)


def test_class_walk_keeps_its_own_stack():
    # the first call fills the column memo, which recurses once per part;
    # the walk then runs on its own stack, so the same series is summed
    # again under a limit just above this test's frame depth
    want = p_series("plain", (2, 1), 1, 0, 16, route="char")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 10)
    try:
        got = p_series("plain", (2, 1), 1, 0, 16, route="char")
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_sorted_monomial_walk_multiplies_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("LaurentPoly.__mul__ called")
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    for mode in MODES:
        assert not p_series(mode, (2, 2), 3, 0, 14, route="char").is_zero()


def test_p_series_class_sums_are_checked_exact(monkeypatch):
    # one weight of S_3 off by 1 leaves every class sum that reads it
    # indivisible by 3!: the plain and prime series in degree 3, the bar
    # series in degree 2 (rho = (2, 1) ends in one part 1, so m_1 = 1) and
    # the per-lam m_lambda((3,)), since chi^(3) is 1 on every class
    h = Hook(1, 1)
    weights = dict(_hook_weights(3, h))
    weights[2, 1] += 1
    monkeypatch.setitem(default_cache().weights, (3, h), weights)
    for mode in ("plain", "prime", "bar"):
        with pytest.raises(InexactError, match="Poincare"):
            p_series(mode, h, 1, 0, 3, route="char")
    with pytest.raises(InexactError, match="hook multiplicity"):
        m_lambda((3,), h)
    # only the part-1 table of S_3 memoised and patched: the bar series
    # reads it, while the plain series builds the full table, which then
    # takes the entry and serves the bar series too
    _cold()
    want = p_series("plain", h, 1, 0, 3, route="char")
    bar = p_series("bar", h, 1, 0, 2, route="char")
    _cold()
    part = _hook_weights(3, h, part_one=True)
    assert set(part) == {(2, 1), (1, 1, 1)}
    monkeypatch.setitem(part, (2, 1), part[2, 1] + 1)
    with pytest.raises(InexactError, match="Poincare"):
        p_series("bar", h, 1, 0, 2, route="char")
    assert p_series("plain", h, 1, 0, 3, route="char") == want
    assert p_series("bar", h, 1, 0, 2, route="char") == bar


def test_character_series_take_no_per_lambda_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-lambda path taken")
    # poincare binds no hook_schur_eval: refused in the modules that do
    for owner, name in ((hookschur, "hook_schur_eval"), (residue, "hook_schur_eval"),
                        (poincare, "char_multiplicity"),
                        (characters, "char_multiplicity"), (characters, "m_lambda"),
                        (characters, "m_bar_lambda")):
        monkeypatch.setattr(owner, name, refuse)
    for mode in MODES:
        assert not p_series(mode, (2, 1), 2, 1, 6, route="char").is_zero()
    for mode in ("plain", "bar"):
        assert not p_series(mode, (2, 1), 2, 1, 6, route="residue").is_zero()


def test_residue_series_take_no_per_lambda_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-lambda path taken")
    for owner, name in ((hookschur, "hook_schur_eval"), (residue, "hook_schur_eval"),
                        (poincare, "multiplicity"), (poincare, "m_prime_residue"),
                        (poincare, "m_bar_prime_residue"),
                        (residue, "m_prime_residue"), (residue, "m_bar_prime_residue")):
        monkeypatch.setattr(owner, name, refuse)
    for mode in ("prime", "bar_prime"):
        assert not p_series(mode, (2, 1), 2, 1, 6, route="residue").is_zero()


def test_empty_hook_series_build_no_column(monkeypatch):
    # no mu of positive size lies in H(0, 0): the weights need no character
    # column and the walk stops at degree 0
    def refuse(*args):
        raise AssertionError("character column built")
    monkeypatch.setattr(default_cache(), "chi", {})
    monkeypatch.setattr(default_cache(), "weights", {})
    monkeypatch.setattr(characters, "_add_strips", refuse)
    want = {"plain": 1, "prime": 1, "bar": 0, "bar_prime": 0}
    for mode in MODES:
        got = p_series(mode, (0, 0), 3, 0, 16, route="char")
        assert got == LaurentPoly.const(series_table(3, 0), want[mode]), mode


def _tuple_slice(big, n):
    # the linear slice before packed keys: every term of the (n+1)-variable
    # series unpacked to a tuple, those linear in t_{n+1} packed back into
    # the n-variable table
    return LaurentPoly(series_table(n, 0),
                       {e[:n]: c for e, c in big.terms.items() if e[n] == 1})


def test_linear_slice_equals_tuple_slice():
    for (h, n, D), primed, route in product(
            (((2, 2), 1, 10), ((2, 1), 2, 9), ((1, 1), 3, 8)), (False, True), ROUTES):
        ok, report = check_derivative_relation(h, n, D, primed, route=route)
        big = p_series("prime" if primed else "plain", h, n + 1, 0, D, route=route)
        bar = p_series("bar_prime" if primed else "bar", h, n, 0, D - 1, route=route)
        lin = _tuple_slice(big, n)
        assert not lin.is_zero()
        assert report["linear_slice"] == str(lin), (h, n, D, primed, route)
        assert ok == (lin == bar) and ok, (h, n, D, primed, route)


@pytest.mark.parametrize("route", ROUTES)
def test_derivative_check_spreads_no_series_of_n_plus_one_variables(route, monkeypatch):
    # the slice is taken from the sorted values: only n-variable tables
    # are spread, the slice and the concomitant series
    widths = []
    spread = poincare._spread

    def counted(table, n, D, values):
        widths.append(len(table))
        return spread(table, n, D, values)

    monkeypatch.setattr(poincare, "_spread", counted)
    for h, n, D in (((2, 2), 1, 10), ((2, 1), 2, 8)):
        for primed in (False, True):
            widths.clear()
            ok, _ = check_derivative_relation(h, n, D, primed, route=route)
            assert ok and widths == [n, n], (h, n, D, primed, widths)


@pytest.mark.parametrize("n", [0, -1, -2])
@pytest.mark.parametrize("route", ROUTES)
def test_derivative_check_rejects_n_below_one(n, route, monkeypatch):
    # refused by name before any series is built
    def refuse(*args):
        raise AssertionError("series built")

    monkeypatch.setattr(poincare, "_class_sums", refuse)
    monkeypatch.setattr(poincare, "cauchy_pairing", refuse)
    for primed in (False, True):
        with pytest.raises(ValueError, match=f"n >= 1.*n={n}"):
            check_derivative_relation((2, 2), n, 6, primed, route=route)


def _cold():
    for memo in vars(default_cache()).values():
        memo.clear()
    poincare._WALKS.clear()
    poincare._packed_orderings.cache_clear()


SLICE_HOOKS = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2),
               (3, 2)]


@pytest.mark.parametrize("route", ROUTES)
def test_part_one_stream_is_the_full_stream_filtered(route):
    # with part_one the character sums read only the classes with a part
    # 1 and the pairing skips the other alpha, from cold memos, where the
    # part-1 weight tables come first: the values left are exactly those
    # of the full stream whose T block has a part 1, in T alone and with
    # one U variable
    for h in SLICE_HOOKS:
        _cold()
        for n, m, D in ((2, 0, 10), (3, 0, 9), (4, 0, 8), (2, 1, 8), (3, 1, 7),
                        (4, 1, 6)):
            for mode in MODES:
                got = list(poincare._sorted_series(mode, h, n, m, D, route,
                                                   part_one=True))
                want = [(e, c) for e, c in poincare._sorted_series(
                    mode, h, n, m, D, route) if 1 in e[:n]]
                assert dict(got) == dict(want), (h, n, m, D, mode)
                assert len(got) == len(want), (h, n, m, D, mode)
    assert not list(poincare._sorted_series("prime", (2, 1), 0, 2, 6, route,
                                            part_one=True))


def _full_stream_report(h, n, D, primed, route):
    # the derivative check on the whole (n+1)-variable stream, filtered to
    # the alpha with a part 1 after every value is computed
    values = poincare._sorted_series("prime" if primed else "plain", h,
                                     n + 1, 0, D, route)
    lin = poincare._spread(series_table(n, 0), n, D - 1, (
        (a[:i] + a[i + 1:], c) for a, c in values if 1 in a
        for i in (a.index(1),)))
    bar = p_series("bar_prime" if primed else "bar", h, n, 0, D - 1, route=route)
    return lin == bar, str(lin), str(bar)


@pytest.mark.parametrize("route", ROUTES)
def test_derivative_check_equals_the_full_stream_check(route):
    for h, n, D, primed in product(SLICE_HOOKS, (1, 2, 3), (6, 7, 8, 9),
                                   (False, True)):
        ok, report = check_derivative_relation(h, n, D, primed, route=route)
        assert ok and report["pass"], (h, n, D, primed)
        assert (ok, report["linear_slice"], report["bar_series"]) == \
            _full_stream_report(h, n, D, primed, route), (h, n, D, primed)


def test_series_independent_of_memo_state():
    # the walk tables of one split serve every series on it, grown by a
    # larger degree and read by a smaller one: each series equals the one
    # summed from cleared memos, whichever degree came first
    h = Hook(2, 2)
    order = [(D, n, mode) for D in (9, 14) for n in (2, 3) for mode in MODES]
    cold = {}
    for key in order:
        _cold()
        cold[key] = p_series(key[2], h, key[1], 0, key[0], route="char")
    for keys in (order, order[::-1]):
        _cold()
        for D, n, mode in keys:
            assert p_series(mode, h, n, 0, D, route="char") == cold[D, n, mode], (D, n, mode)


def test_move_rows_built_once_per_split(monkeypatch):
    built = []
    move_row = poincare._move_row

    def counted(monos, ids, n, k, r):
        built.append((n, len(monos[k]), monos[k], r))
        return move_row(monos, ids, n, k, r)

    monkeypatch.setattr(poincare, "_move_row", counted)
    _cold()
    # the plain H(2, 2) weights are positive on every class, since the
    # trivial shape lies in the hook, so the first walk meets every
    # monomial of the split through degree 10 and builds every row
    p_series("plain", (2, 2), 2, 1, 10, route="char")
    first = len(built)
    assert first
    for mode in MODES:
        for h in ((2, 2), (2, 1), (1, 1)):
            p_series(mode, h, 2, 1, 10, route="char")
    assert len(built) == first
    # a larger degree extends the rows; another split has its own
    p_series("prime", (2, 2), 2, 1, 12, route="char")
    assert len(built) > first
    p_series("prime", (2, 2), 1, 2, 10, route="char")
    assert {b[:2] for b in built} == {(2, 3), (1, 3)}
    assert len(built) == len(set(built))


def test_packed_orderings_equal_distinct_permutations():
    width = VarTable.WIDTH
    for size in range(5):
        for block in product(range(4), repeat=size):
            for lo in (0, 2):
                want = {sum(v << width * (lo + i) for i, v in enumerate(p))
                        for p in permutations(block)}
                got = poincare._packed_orderings(block, lo)
                # a cached result is shared by every caller, so it is a tuple
                assert isinstance(got, tuple), block
                assert sorted(got) == sorted(want), (block, lo)


@pytest.mark.parametrize("route", ROUTES)
def test_series_in_many_variables_nests_no_frame_per_variable(route):
    # a block's orderings place only its nonzero entries, and the Cauchy
    # walk jumps past a sorted block's trailing zeros, so neither nests a
    # frame per variable: in 1,200 variables through degree 1 the (1, 0)
    # jump series is 1 + t_1 + ... + t_1200 on both routes
    series = p_series("prime", (1, 0), 1200, 0, 1, route=route)
    zero, width = series.table.zero_key, VarTable.WIDTH
    want = [zero] + [zero + (1 << width * i) for i in range(1200)]
    assert series._packed == dict.fromkeys(want, 1)
