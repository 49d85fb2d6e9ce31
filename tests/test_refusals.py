import re

import pytest

from superschur.characters import kronecker
from superschur.hookschur import (Alphabet, graded_homs, hook_schur_def,
                                  hook_schur_eval, hook_schur_jp)
from superschur.laurent import LaurentPoly, VarTable, divide_exact
from superschur.partitions import enumerate_partitions
from superschur.poincare import check_derivative_relation

T1 = VarTable(["x1", "y1"])
T2 = VarTable(["a", "b"])
X1, Y1 = Alphabet.symbols(T1, ["x1"]), Alphabet.symbols(T1, ["y1"])
Y2 = Alphabet.symbols(T2, ["b"])
A_SQUARED = Alphabet(T2, [(2, 0)])
P1 = LaurentPoly.variable(T1, "x1")


@pytest.mark.parametrize("call, error, message", [
    (lambda: hook_schur_eval((1,), X1, Y2), ValueError, "alphabet table mismatch"),
    (lambda: hook_schur_def((1,), X1, Y2), ValueError, "alphabet table mismatch"),
    (lambda: hook_schur_jp((1,), X1, Y2), ValueError, "alphabet table mismatch"),
    (lambda: kronecker((2,), (1, 1), (3,)), ValueError,
     "partitions must have equal size"),
    (lambda: enumerate_partitions(-1), ValueError, "n must be nonnegative"),
    (lambda: check_derivative_relation((1, 1), 1, 0, False), ValueError,
     "needs degree >= 1, got 0"),
    (lambda: VarTable(["a", "a"]), ValueError, "duplicate variable names"),
    (lambda: P1 ** -1, ValueError, "exponent must be a nonnegative integer"),
    (lambda: divide_exact(P1, LaurentPoly.zero(T1)), ZeroDivisionError,
     "division by zero polynomial"),
    (lambda: graded_homs(A_SQUARED, Alphabet(T2, ()), 0, 0, VarTable.LIMIT // 2 + 1),
     ValueError, f"reach exponent {VarTable.LIMIT + 1}, past the packing limit"),
    # an entry in the old (coefficient, exponents) form on three variables
    (lambda: Alphabet(VarTable(["a", "b", "c"]), [(1, (1, 0, 0))]), ValueError,
     "exponent vector length does not match table: (1, (1, 0, 0)) has 2 "
     "entries, the table 3 variables"),
    (lambda: Alphabet.symbols(T2, ["z"]), ValueError,
     "no variable 'z' in VarTable(a, b)"),
    (lambda: Alphabet(T2, [5]), ValueError,
     "alphabet entries must be exponent tuples or lists: 5"),
    (lambda: Alphabet(T2, [None]), ValueError,
     "alphabet entries must be exponent tuples or lists: None"),
    (lambda: Alphabet(T2, ["ab"]), ValueError,
     "alphabet entries must be exponent tuples or lists: 'ab'"),
], ids=["eval-tables", "tableaux-tables", "jp-tables", "kronecker-sizes",
        "negative-size", "derivative-degree-0", "duplicate-names",
        "negative-power", "divide-by-zero", "homs-past-limit",
        "alphabet-entry-length", "unknown-variable", "alphabet-entry-int",
        "alphabet-entry-none", "alphabet-entry-str"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
