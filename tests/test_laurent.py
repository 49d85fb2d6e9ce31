import itertools
import os
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import superschur
from superschur.laurent import (InexactError, LaurentPoly, VarTable, divide_exact,
                               exact_quotient)

from conftest import TABLE2, laurent_polys

X = LaurentPoly.variable(TABLE2, "x")
Y = LaurentPoly.variable(TABLE2, "y")
XY_INV = LaurentPoly.monomial(TABLE2, 1, (1, -1))


def test_multiply_examples():
    assert (1 - XY_INV) * (1 + XY_INV) == 1 - LaurentPoly.monomial(TABLE2, 1, (2, -2))
    f = X + 2 * Y
    assert f * LaurentPoly.const(TABLE2, 1) == f
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert LaurentPoly.const(TABLE2, 3) == 3
    assert X != 1


def test_table_mismatch_rejected():
    other = LaurentPoly.variable(VarTable(["x", "z"]), "x")
    with pytest.raises(ValueError):
        (X + Y) * other


def test_coefficient_examples():
    f = X + 2 + LaurentPoly.monomial(TABLE2, 1, (-1, 0))
    assert f.coefficient((0, 0)) == 2
    assert f.coefficient((-1, 0)) == 1
    assert LaurentPoly.zero(TABLE2).coefficient((3, 3)) == 0
    # exponents no term can have read 0: past the limit, the wrong length,
    # not integers
    edge = VarTable.LIMIT
    g = f + LaurentPoly.monomial(TABLE2, 3, (edge, -edge))
    for exps in [(edge + 1, 0), (0, -edge - 1), (), (1,), (1, 0, 0),
                 (1.0, 0), (0, 0.5), ("1", 0), (None, 0)]:
        assert g.coefficient(exps) == 0, exps
    assert g.coefficient([1, 0]) == 1 and g.coefficient((edge, -edge)) == 3


def test_degree_range():
    f = X * X + LaurentPoly.monomial(TABLE2, 1, (-1, 0))
    assert f.degree_range("x") == (-1, 2)
    assert (Y ** 3).degree_range("x") == (0, 0)
    assert LaurentPoly.const(TABLE2, 5).degree_range("x") == (0, 0)
    with pytest.raises(ValueError):
        LaurentPoly.zero(TABLE2).degree_range("x")


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=50)
def test_ring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(laurent_polys(), laurent_polys())
@settings(max_examples=50)
def test_constant_term_convolution(f, g):
    expected = sum(c * g.coefficient(tuple(-a for a in e))
                   for e, c in f.terms.items())
    assert (f * g).coefficient((0, 0)) == expected


@given(laurent_polys(), laurent_polys())
@settings(max_examples=50)
def test_degree_range_of_product(f, g):
    if f.is_zero() or g.is_zero():
        return
    fg = f * g
    if fg.is_zero():  # coefficient cancellation can kill the product
        return
    for v in ("x", "y"):
        flo, fhi = f.degree_range(v)
        glo, ghi = g.degree_range(v)
        lo, hi = fg.degree_range(v)
        assert lo >= flo + glo and hi <= fhi + ghi


@given(laurent_polys(), laurent_polys())
@settings(max_examples=50)
def test_divide_exact_roundtrip(f, g):
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f


def _divide_oracle(f, g):
    # tuple-keyed leading-term elimination in lex order, first variable first
    n = len(f.table)
    rem = dict(f.terms.items())
    gterms = dict(g.terms.items())
    fmin = [min(e[i] for e in rem) for i in range(n)]
    fmax = [max(e[i] for e in rem) for i in range(n)]
    gmin = [min(e[i] for e in gterms) for i in range(n)]
    gmax = [max(e[i] for e in gterms) for i in range(n)]
    gkey = max(gterms)
    gcoef = gterms[gkey]
    quo = {}
    while rem:
        fkey = max(rem)
        qkey = tuple(a - b for a, b in zip(fkey, gkey))
        ok = all(fmin[i] - gmax[i] <= qkey[i] <= fmax[i] - gmin[i] for i in range(n))
        if not ok:
            raise InexactError("polynomial division is not exact")
        qc = exact_quotient(rem[fkey], gcoef, "polynomial division")
        quo[qkey] = qc
        for e, c in gterms.items():
            key = tuple(a + b for a, b in zip(qkey, e))
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return LaurentPoly(f.table, quo)


def _quotient_or_inexact(divide, f, g):
    try:
        return divide(f, g)
    except InexactError:
        return InexactError


@given(laurent_polys(), laurent_polys())
@settings(max_examples=100)
def test_divide_exact_matches_tuple_oracle(f, g):
    # the packed-key elimination leads with the last variable, the oracle
    # with the first: an exact quotient is unique, and an inexact division
    # raises in both orders
    if f.is_zero() or g.is_zero():
        return
    for num in (f * g, f):
        want = _quotient_or_inexact(_divide_oracle, num, g)
        assert _quotient_or_inexact(divide_exact, num, g) == want, (num, g)


def test_divide_exact_rejects_inexact():
    with pytest.raises(InexactError):
        divide_exact(X + 1, Y + 1)
    with pytest.raises(InexactError):
        divide_exact(3 * X, 2 * X)


def test_exact_quotient():
    assert exact_quotient(12, 4, "twelve by four") == 3
    assert exact_quotient(-12, 4, "minus twelve by four") == -3
    with pytest.raises(InexactError, match="seven by two: 7 is not divisible by 2"):
        exact_quotient(7, 2, "seven by two")


def test_inexact_division_raises_under_optimize():
    # python -O strips asserts; the exactness check must survive it
    code = ("from superschur.laurent import (InexactError, LaurentPoly, VarTable,\n"
            "                                divide_exact, exact_quotient)\n"
            "t = VarTable(['x'])\n"
            "for divide in (lambda: divide_exact(LaurentPoly.const(t, 3),\n"
            "                                    LaurentPoly.const(t, 2)),\n"
            "               lambda: exact_quotient(3, 2, 'three by two')):\n"
            "    try:\n"
            "        divide()\n"
            "    except InexactError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n")
    # the directory that holds the superschur package imported here
    root = os.path.dirname(os.path.dirname(os.path.abspath(superschur.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    # without the check the division loops forever on this input
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_serialization_graded_lex():
    f = X + Y * Y + 2
    assert str(f) == "1 * y^2 + 1 * x^1 + 2 * 1"
    assert str(LaurentPoly.zero(TABLE2)) == "0"


def test_invert_variables():
    f = X + Y ** 2
    assert f.invert_variables() == (LaurentPoly.monomial(TABLE2, 1, (-1, 0))
                                    + LaurentPoly.monomial(TABLE2, 1, (0, -2)))


def tuple_product(f: dict, g: dict) -> dict:
    """Reference product on tuple-keyed terms: the kernel before packing."""
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


HALF = VarTable.LIMIT // 2
TABLES = {n: VarTable([f"v{i}" for i in range(n)]) for n in (0, 1, 3, 5)}


@st.composite
def term_pairs(draw):
    # small exponents of both signs, and exponents near half the field limit,
    # so that a product of two terms reaches the edge of a field
    n = draw(st.sampled_from(sorted(TABLES)))
    exps = st.one_of(st.integers(-3, 3), st.integers(HALF - 2, HALF),
                     st.integers(-HALF, -HALF + 2))
    terms = st.dictionaries(st.tuples(*[exps] * n), st.integers(-5, 5), max_size=6)
    return TABLES[n], draw(terms), draw(terms)


@given(term_pairs())
@settings(max_examples=100)
def test_packed_kernel_matches_tuple_oracle(case):
    table, ft, gt = case
    f, g = LaurentPoly(table, ft), LaurentPoly(table, gt)
    fg = tuple_product(ft, gt)
    assert dict((f * g).terms.items()) == fg
    assert dict((f + g).terms.items()) == nonzero(
        {e: ft.get(e, 0) + gt.get(e, 0) for e in {*ft, *gt}})
    assert dict((f - g).terms.items()) == nonzero(
        {e: ft.get(e, 0) - gt.get(e, 0) for e in {*ft, *gt}})
    assert dict(f.invert_variables().terms.items()) == {
        tuple(-a for a in e): c for e, c in nonzero(ft).items()}
    for e in {*ft, *gt, *fg}:
        assert f.coefficient(e) == ft.get(e, 0)
        assert (f * g).coefficient(e) == fg.get(e, 0)
    # the tuple-keyed view: keys, lookups and length round-trip
    assert len(f.terms) == len(nonzero(ft))
    assert set(f.terms) == set(nonzero(ft))
    assert all(f.terms[e] == c for e, c in nonzero(ft).items())
    assert f.terms == nonzero(ft)


def test_terms_view_is_read_only():
    f = X + 2 * Y
    with pytest.raises(TypeError):
        f.terms[(0, 0)] = 1
    assert f.terms.get((5, 5)) is None
    assert (1, 0) in f.terms and (0, 0) not in f.terms


def test_exponent_past_limit_rejected():
    edge = VarTable.LIMIT
    assert LaurentPoly.monomial(TABLE2, 1, (edge, -edge)).coefficient((edge, -edge)) == 1
    with pytest.raises(ValueError, match=str(edge)):
        LaurentPoly.monomial(TABLE2, 1, (edge + 1, 0))
    with pytest.raises(ValueError, match=str(edge)):
        LaurentPoly(TABLE2, {(0, -edge - 1): 1})


def test_non_integer_exponent_rejected():
    # the refusal names the vector; a lookup still reads 0
    for exps in [(1.5, 0), (0, 1.0), ("1", 0)]:
        with pytest.raises(ValueError, match=re.escape(str(exps))):
            TABLE2.pack(exps)
        with pytest.raises(ValueError, match="exponents must be integers"):
            LaurentPoly(TABLE2, {exps: 1})


def test_unpack_reads_each_field_with_its_sign():
    # the one-pass read agrees with `field`, at the packing limit too
    edge = VarTable.LIMIT
    for n, table in TABLES.items():
        for exps in itertools.product((-edge, -1, 0, 1, edge), repeat=n):
            key = table.pack(exps)
            assert table.unpack(key) == exps
            assert tuple(table.field(key, i) for i in range(n)) == exps


def test_product_past_limit_raises():
    half = VarTable.LIMIT // 2 + 1
    # x^half * x^half would carry out of the x field into y's
    f = LaurentPoly.monomial(TABLE2, 1, (half, 0))
    with pytest.raises(ValueError, match="packing limit"):
        f * f
    with pytest.raises(ValueError, match="packing limit"):
        f ** 2
    g = LaurentPoly.monomial(TABLE2, 1, (0, -VarTable.LIMIT))
    with pytest.raises(ValueError, match="packing limit"):
        g * (Y + 1)
    # the bound grows through sums and products, not only from the inputs
    with pytest.raises(ValueError, match="packing limit"):
        ((f + 1) * X) * (f + Y)


MONOMIALS = st.one_of(
    # the constants 1 and -1 are what `+` and `-` pass
    st.sampled_from([1, -1]).map(lambda c: LaurentPoly.const(TABLE2, c)),
    st.builds(
        lambda c, e: LaurentPoly.monomial(TABLE2, c, e),
        st.integers(min_value=-5, max_value=5).filter(bool),
        st.tuples(st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=-3, max_value=3))))


def tuple_add_product(f: LaurentPoly, mono: LaurentPoly, g: LaurentPoly) -> dict:
    """Reference f + mono * g on tuple-keyed terms."""
    out = dict(f.terms.items())
    for e, c in tuple_product(dict(mono.terms.items()), dict(g.terms.items())).items():
        out[e] = out.get(e, 0) + c
    return nonzero(out)


@given(laurent_polys(), MONOMIALS, laurent_polys())
def test_add_monomial_times_matches_product(f, mono, g):
    got = f._add_monomial_times(mono, g)
    assert dict(got.terms.items()) == tuple_add_product(f, mono, g)
    # an empty g adds nothing, and bounds nothing
    assert got.reach == (max(f.reach, mono.reach + g.reach) if g._packed
                         else f.reach)
    # an int operand of + and - is the constant polynomial
    one, minus_one, three = (LaurentPoly.const(TABLE2, c) for c in (1, -1, 3))
    assert dict((f + 3).terms.items()) == tuple_add_product(f, one, three)
    assert dict((3 + f).terms.items()) == tuple_add_product(f, one, three)
    assert dict((f - 3).terms.items()) == tuple_add_product(f, minus_one, three)
    assert dict((3 - f).terms.items()) == tuple_add_product(three, minus_one, f)


def test_add_monomial_times_full_cancellation():
    f = LaurentPoly(TABLE2, {(2, 0): 3, (1, 1): -1})
    g = LaurentPoly(TABLE2, {(1, -1): 3, (0, 0): -1})
    mono = LaurentPoly.monomial(TABLE2, -1, (1, 1))
    assert f._add_monomial_times(mono, g).is_zero()
    assert f._add_monomial_times(mono, LaurentPoly.zero(TABLE2)) == f


@given(laurent_polys())
def test_product_with_zero_has_reach_zero(f):
    # a zero factor makes the zero polynomial, whatever the other's bound;
    # hook-Schur determinants multiply entries by empty minors
    zero = LaurentPoly.zero(TABLE2)
    for got in (f * zero, zero * f, f * 0, 0 * f):
        assert got.is_zero() and got.reach == 0
    assert (f + zero).reach == f.reach


def test_add_monomial_times_past_limit_raises():
    half = VarTable.LIMIT // 2 + 1
    f = LaurentPoly.monomial(TABLE2, 1, (half, 0))
    with pytest.raises(ValueError, match="packing limit"):
        X._add_monomial_times(f, f)
