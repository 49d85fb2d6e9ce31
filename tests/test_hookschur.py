import random
import re
from itertools import (combinations, combinations_with_replacement,
                       permutations)

import pytest

from superschur import hookschur
from superschur.hookschur import (_HOM_CACHE, Alphabet, _det, graded_homs,
                                  hook_schur_def, hook_schur_eval,
                                  hook_schur_factorized, hook_schur_jp,
                                  super_hom_sequence)
from superschur.laurent import LaurentPoly, VarTable
from superschur.partitions import (HookClass, check_partition, classify_hook,
                                   conjugate, enumerate_partitions)
from superschur.residue import z_alphabets

from conftest import graded_hom_sequence, hom_sequence_x_then_y

T21 = VarTable(["x1", "x2", "y1"])
X21 = Alphabet.symbols(T21, ["x1", "x2"])
Y21 = Alphabet.symbols(T21, ["y1"])

T11 = VarTable(["x1", "y1"])
X11 = Alphabet.symbols(T11, ["x1"])
Y11 = Alphabet.symbols(T11, ["y1"])

T22 = VarTable(["x1", "x2", "y1", "y2"])
X22 = Alphabet.symbols(T22, ["x1", "x2"])
Y22 = Alphabet.symbols(T22, ["y1", "y2"])


def schur_eval(lam, A):
    # s_lam(A) is the hook Schur function with no odd letters; zero when
    # the shape is taller than the alphabet
    return hook_schur_eval(lam, A, Alphabet(A.table, ()))


def _sym(table, name):
    return LaurentPoly.variable(table, name)


def test_schur_matches_tableaux():
    for n in range(6):
        for lam in enumerate_partitions(n, in_hook=(2, 0)):
            assert schur_eval(lam, X22) == hook_schur_def(lam, X22, Alphabet(T22, ()))
        for lam in enumerate_partitions(n, in_hook=(1, 0)):
            assert schur_eval(lam, Y21) == hook_schur_def(lam, Y21, Alphabet(T21, ()))


def test_schur_tall_shape_vanishes():
    assert schur_eval((1, 1, 1), X22).is_zero()
    assert schur_eval((2, 2, 1), X22).is_zero()


@pytest.mark.parametrize("formula", [
    hook_schur_eval, hook_schur_def, hook_schur_jp,
    lambda lam, X, Y: hook_schur_factorized(lam, X, Y)],
    ids=["eval", "def", "jp", "factorized"])
def test_hook_schur_formulas_reject_non_partitions(formula):
    # each formula drops zero parts and refuses the rest by name, so the
    # four agree on every input
    for bad in [(1, 2), (2, -1), (2.0, 1)]:
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            formula(bad, X21, Y21)
    assert formula((2, 0, 1), X21, Y21) == formula((2, 1), X21, Y21)


def test_factorization_2_1_example():
    # HS_(2,1)(x1,x2; y1) = (x1 + y1)(x2 + y1)(x1 + x2)
    x1, x2, y1 = (_sym(T21, v) for v in ("x1", "x2", "y1"))
    expected = (x1 + y1) * (x2 + y1) * (x1 + x2)
    assert hook_schur_eval((2, 1), X21, Y21) == expected


def test_atypical_1_1_1_example():
    # HS_(1,1,1)(x1; y1) = y1^2 (x1 + y1)
    x1, y1 = (_sym(T11, v) for v in ("x1", "y1"))
    expected = y1 * y1 * (x1 + y1)
    assert hook_schur_eval((1, 1, 1), X11, Y11) == expected


def test_single_box_is_full_sum():
    assert hook_schur_eval((1,), X22, Y22) == X22.sum_poly() + Y22.sum_poly()


def test_duality_conjugate_swap():
    for n in range(6):
        for lam in enumerate_partitions(n):
            assert hook_schur_eval(lam, X21, Y21) == hook_schur_eval(
                conjugate(lam), Y21, X21)


def test_specializes_to_schur():
    empty = Alphabet(T22, ())
    for n in range(6):
        for lam in enumerate_partitions(n, in_hook=(2, 0)):
            assert hook_schur_eval(lam, X22, empty) == schur_eval(lam, X22)


def test_three_formulas_agree():
    for n in range(5):
        for lam in enumerate_partitions(n):
            for X, Y in [(X11, Y11), (X21, Y21)]:
                via_def = hook_schur_def(lam, X, Y)
                assert hook_schur_eval(lam, X, Y) == via_def
                assert hook_schur_jp(lam, X, Y) == via_def
                kind = classify_hook(lam, (len(X), len(Y)))
                if kind is HookClass.TYPICAL:
                    assert hook_schur_factorized(lam, X, Y) == via_def


def test_check_formulas_take_no_determinant(monkeypatch):
    # the three formulas that check hook_schur_eval share none of its code:
    # with the determinant, the complete functions and the fast route all
    # raising, they still give the values the fast route gave before
    shapes = [lam for n in range(5) for lam in enumerate_partitions(n)]
    want = {lam: hook_schur_eval(lam, X21, Y21) for lam in shapes}

    def refuse(*args, **kwargs):
        raise AssertionError("a check formula called the fast route")

    for name in ("_jacobi_trudi", "super_hom_sequence", "graded_homs",
                 "hook_schur_eval"):
        monkeypatch.setattr(hookschur, name, refuse)
    for lam in shapes:
        assert hook_schur_def(lam, X21, Y21) == want[lam]
        assert hook_schur_jp(lam, X21, Y21) == want[lam]
        if classify_hook(lam, (2, 1)) is HookClass.TYPICAL:
            assert hook_schur_factorized(lam, X21, Y21) == want[lam]


TABC = VarTable(["a", "b", "c"])
XABC = Alphabet(TABC, [(1, 0, 0), (1, 0, 0), (0, 1, 0)])  # a, a, b
YABC = Alphabet(TABC, [(0, 0, 1), (0, 1, -1)])             # c, b/c
EMPTY_ABC = Alphabet(TABC, ())


@pytest.mark.parametrize("X, Y, size", [
    (XABC, YABC, 5),            # a repeated letter, a Laurent letter
    (XABC, EMPTY_ABC, 5),       # x letters only
    (EMPTY_ABC, YABC, 5),       # y letters only
    (*z_alphabets((1, 1)), 4),  # the residue alphabets: unit letters repeat
])
def test_tableaux_letter_rules_on_awkward_alphabets(X, Y, size):
    for n in range(size + 1):
        for lam in enumerate_partitions(n):
            assert hook_schur_def(lam, X, Y) == hook_schur_eval(lam, X, Y)


def test_vanishing_iff_outside_hook():
    for n in range(7):
        for lam in enumerate_partitions(n):
            for X, Y in [(X11, Y11), (X21, Y21), (X22, Y22)]:
                h = (len(X), len(Y))
                value = hook_schur_eval(lam, X, Y)
                outside = classify_hook(lam, h) is HookClass.OUTSIDE
                assert value.is_zero() == outside


def test_factorized_rejects_atypical():
    with pytest.raises(ValueError):
        hook_schur_factorized((1,), X21, Y21)


def test_cauchy_like_product_alphabets():
    # HS over a union alphabet expands by the coproduct at a single box
    X = Alphabet.symbols(T22, ["x1"])
    Xb = Alphabet.symbols(T22, ["x2"])
    lhs = hook_schur_eval((1,), Alphabet(T22, X.monos + Xb.monos), Y22)
    assert lhs == hook_schur_eval((1,), X, Y22) + Xb.sum_poly()


def test_monomial_alphabet_entries():
    # alphabets may carry Laurent monomials, not just symbols
    t = VarTable(["a", "b"])
    A = Alphabet(t, [(1, -1), (-1, 1)])
    B = Alphabet(t, ())
    # s_(2) = h_2 = a^2 b^-2 + 1 + a^-2 b^2
    expected = (LaurentPoly.monomial(t, 1, (2, -2)) + LaurentPoly.const(t, 1)
                + LaurentPoly.monomial(t, 1, (-2, 2)))
    assert hook_schur_eval((2,), A, B) == expected


@pytest.mark.parametrize("monos, match", [
    # an entry in the old (coefficient, exponents) form is refused by name
    ([(1, (1, 0))], re.escape("exponents must be integers: (1, (1, 0))")),
    ([(1,)], "length does not match"),
    ([(1, 0, 0)], "length does not match"),
    ([(1.5, 0)], re.escape("exponents must be integers: (1.5, 0)")),
    ([(VarTable.LIMIT + 1, 0)], "past the packing limit")])
def test_alphabet_rejects_non_unit_or_misfit_entries(monos, match):
    with pytest.raises(ValueError, match=match):
        Alphabet(VarTable(["a", "b"]), monos)


def test_super_hom_sequence_on_laurent_alphabets():
    # h_r(X;Y) = sum_{i+j=r} h_i(X) e_j(Y), with h_i and e_j summed over
    # multisets and sets of entries.  X holds a repeat, the unit monomial
    # and a Laurent letter; Y holds Laurent letters too.
    t = VarTable(["a", "b"])
    X = Alphabet(t, [(1, 0), (1, 0), (0, 0), (-1, 1)])
    Y = Alphabet(t, [(0, 1), (1, -1), (-1, 0)])

    def sum_of_products(A, choose, r):
        total = LaurentPoly.zero(t)
        for idx in choose(range(len(A)), r):
            term = LaurentPoly.const(t, 1)
            for i in idx:
                term = term * A.entry(i)
            total = total + term
        return total

    expected = []
    for r in range(7):
        expected.append(sum(
            (sum_of_products(X, combinations_with_replacement, i)
             * sum_of_products(Y, combinations, r - i) for i in range(r + 1)),
            LaurentPoly.zero(t)))
    # the memo entry for (X, Y) grows and is sliced; no answer may depend
    # on what earlier calls left in it
    _HOM_CACHE.pop((X, Y), None)
    for upto in (2, 6, 4):
        hs = super_hom_sequence(X, Y, upto)
        assert len(hs) == upto + 1
        assert hs == expected[:upto + 1]
    assert expected == hom_sequence_x_then_y(X, Y, 6)
    assert super_hom_sequence(Y, X, 6) == hom_sequence_x_then_y(Y, X, 6)


@pytest.mark.parametrize("floor", [3, 0, -2])
def test_graded_homs_on_laurent_alphabets(floor):
    # graded over k = 1, the x-degree is a's exponent: -1, 0 or +1 on
    # every letter, with a repeat, the unit monomial and Laurent letters.
    # The buckets kept are exactly the oracle's at or above the floor
    t = VarTable(["a", "b"])
    X = Alphabet(t, [(1, 0), (1, 0), (0, 0), (-1, 1)])
    Y = Alphabet(t, [(0, 1), (1, -1), (-1, 0)])
    for A, B in ((X, Y), (Y, X)):
        assert graded_homs(A, B, 1, floor, 6) == \
            graded_hom_sequence(A, B, 1, floor, 6)


def test_super_hom_sequence_keeps_its_entry_when_a_build_raises(monkeypatch):
    # a larger upto builds the list again; a build that raised must leave
    # the entry it found, not a half-built one
    t = VarTable(["a", "b"])
    X = Alphabet(t, [(1, 0), (0, 1)])
    Y = Alphabet(t, [(1, 1)])
    _HOM_CACHE.pop((X, Y), None)
    assert super_hom_sequence(X, Y, 2) == hom_sequence_x_then_y(X, Y, 2)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(hookschur, "graded_homs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        super_hom_sequence(X, Y, 5)
    assert _HOM_CACHE[X, Y] == hom_sequence_x_then_y(X, Y, 2)
    monkeypatch.undo()
    assert super_hom_sequence(X, Y, 5) == hom_sequence_x_then_y(X, Y, 5)


def test_complete_functions_carry_their_exponent_bound():
    # h_10 of {a^2} is a^20: its bound is 10 letters of exponent 2, so a
    # product that would pass the packing limit is refused, not wrapped
    t = VarTable(["a"])
    h10 = graded_homs(Alphabet(t, [(2,)]), Alphabet(t, ()), 0, 0, 10)[10][0]
    assert h10 == LaurentPoly.monomial(t, 1, (20,))
    with pytest.raises(ValueError, match="packing limit"):
        h10 * LaurentPoly.monomial(t, 1, (VarTable.LIMIT - 10,))


def test_graded_homs_count_each_y_letter_once():
    # X = {1} and Y = {a, 1/a}: every h_R past degree 1 is 2 + a + 1/a,
    # whose exponents stay within 1 at any degree, so a top past the
    # packing limit still builds
    t = VarTable(["a"])
    hs = graded_homs(Alphabet(t, [(0,)]),
                     Alphabet(t, [(1,), (-1,)]), 0, 0, VarTable.LIMIT + 1)
    assert len(hs) == VarTable.LIMIT + 2
    assert hs[-1][0].coefficient((0,)) == 2
    assert hs[-1][0] == hs[2][0]


def test_graded_homs_refuse_a_letter_above_x_degree_one():
    # the cut counts at most one x-degree per letter, so a letter a^2
    # graded over k = 1 would make it drop buckets that reach the floor
    t = VarTable(["a", "b"])
    X = Alphabet(t, [(2, 0)])
    with pytest.raises(ValueError, match="x-degree above 1"):
        graded_homs(X, Alphabet(t, ()), 1, 0, 3)
    assert graded_homs(X, Alphabet(t, ()), 0, 0, 3) == \
        graded_hom_sequence(X, Alphabet(t, ()), 0, 0, 3)


@pytest.mark.parametrize("h", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_super_hom_sequence_letter_order(h):
    # Y first, then X's constants, then the rest of X: the same h_r as X
    # then Y, in both orientations of the residue alphabets
    z0, z1 = z_alphabets(h)
    for X, Y in ((z0, z1), (z1, z0)):
        assert super_hom_sequence(X, Y, 6) == hom_sequence_x_then_y(X, Y, 6)


@pytest.mark.parametrize("xs, ys", [
    ([(1, 0, 0), (1, 0, 0)], [(0, 0, 1)]),  # repeated variable
    ([(1, 0, 0)], [(1, 0, 0)]),             # X and Y overlap
    ([(1, 1, 0)], [(0, 0, 1)]),             # product x1*x2
    ([(-1, 0, 0)], [(0, 0, 1)]),            # inverse x1^-1
])
def test_jp_rejects_non_plain_or_shared_variables(xs, ys):
    with pytest.raises(ValueError):
        hook_schur_jp((1,), Alphabet(T21, xs), Alphabet(T21, ys))


def test_jp_checks_the_shape_once(monkeypatch):
    # the shape is checked once per call, not once per (sigma, tau) term
    want = hook_schur_def((3, 2, 1), X22, Y22)
    calls = []

    def counted(parts):
        calls.append(parts)
        return check_partition(parts)

    monkeypatch.setattr(hookschur, "check_partition", counted)
    assert hook_schur_jp((3, 2, 1), X22, Y22) == want
    assert len(calls) == 1


def _leibniz_det(mat, table):
    """Sum over permutations of sign times the product of the picked
    entries (oracle)."""
    total = LaurentPoly.zero(table)
    for perm in permutations(range(len(mat))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        term = LaurentPoly.const(table, (-1) ** inversions)
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        total = total + term
    return total


def test_det_matches_leibniz_oracle():
    rng = random.Random(8)

    def entry():
        if rng.random() < 0.3:
            return LaurentPoly.zero(T21)
        return LaurentPoly(T21, {tuple(rng.randint(-2, 2) for _ in range(3)):
                                 rng.choice([-3, -2, -1, 1, 2, 3])
                                 for _ in range(rng.randint(1, 3))})

    for size in range(5):
        for _ in range(20):
            mat = [[entry() for _ in range(size)] for _ in range(size)]
            assert _det(mat, T21) == _leibniz_det(mat, T21)
    # a one-entry minor is the entry itself, not a copy of it
    p = _sym(T21, "x1") + 2
    assert _det([[p]], T21) is p
