import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

import superschur
from superschur.laurent import InexactError, LaurentPoly, VarTable, divide_exact

from conftest import TABLE2, laurent_polys

X = LaurentPoly.variable(TABLE2, "x")
Y = LaurentPoly.variable(TABLE2, "y")
XY_INV = LaurentPoly.monomial(TABLE2, 1, (1, -1))


def test_multiply_examples():
    assert (1 - XY_INV) * (1 + XY_INV) == 1 - LaurentPoly.monomial(TABLE2, 1, (2, -2))
    f = X + 2 * Y
    assert f * LaurentPoly.const(TABLE2, 1) == f
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_table_mismatch_rejected():
    other = LaurentPoly.variable(VarTable(["x", "z"]), "x")
    with pytest.raises(ValueError):
        (X + Y) * other


def test_coefficient_examples():
    f = X + 2 + LaurentPoly.monomial(TABLE2, 1, (-1, 0))
    assert f.coefficient((0, 0)) == 2
    assert f.coefficient((-1, 0)) == 1
    assert LaurentPoly.zero(TABLE2).coefficient((3, 3)) == 0


def test_degree_range():
    f = X * X + LaurentPoly.monomial(TABLE2, 1, (-1, 0))
    assert f.degree_range("x") == (-1, 2)
    assert (Y ** 3).degree_range("x") == (0, 0)
    assert LaurentPoly.const(TABLE2, 5).degree_range("x") == (0, 0)
    with pytest.raises(ValueError):
        LaurentPoly.zero(TABLE2).degree_range("x")


def test_substitute_examples():
    t = VarTable(["x1", "x2", "x", "y"])
    x1, x2 = (LaurentPoly.variable(t, v) for v in ("x1", "x2"))
    img = {"x1": LaurentPoly.monomial(t, 1, (0, 0, 1, -1)),
           "x2": LaurentPoly.monomial(t, 1, (0, 0, -1, 1))}
    assert (x1 + x2).substitute(img) == (LaurentPoly.monomial(t, 1, (0, 0, 1, -1))
                                         + LaurentPoly.monomial(t, 1, (0, 0, -1, 1)))
    f = x1 + 3 * x2
    assert f.substitute({"x1": x1, "x2": x2}) == f
    # sign squares away
    neg = {"x1": LaurentPoly.monomial(t, -1, (0, 0, -1, 1))}
    assert (x1 ** 2).substitute(neg) == LaurentPoly.monomial(t, 1, (0, 0, -2, 2))
    with pytest.raises(ValueError):
        f.substitute({"x1": x1 + x2})


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
def test_substitute_distributes_over_multiply(f, g):
    img = {"x": LaurentPoly.monomial(TABLE2, -1, (0, 1)),
           "y": LaurentPoly.monomial(TABLE2, 1, (1, 1))}
    assert (f * g).substitute(img) == f.substitute(img) * g.substitute(img)


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


def test_divide_exact_rejects_inexact():
    with pytest.raises(InexactError):
        divide_exact(X + 1, Y + 1)
    with pytest.raises(InexactError):
        divide_exact(3 * X, 2 * X)


def test_inexact_division_raises_under_optimize():
    # python -O strips asserts; the exactness check must survive it
    code = ("from superschur.laurent import (InexactError, LaurentPoly, VarTable,\n"
            "                                divide_exact)\n"
            "t = VarTable(['x'])\n"
            "try:\n"
            "    divide_exact(LaurentPoly.const(t, 3), LaurentPoly.const(t, 2))\n"
            "except InexactError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
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
