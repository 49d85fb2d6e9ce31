"""Exact sparse multivariate Laurent polynomials over the integers.

Coefficients are arbitrary-precision ints; exponent vectors are dense
tuples over a fixed variable table, negative exponents allowed.  No
floating point anywhere.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class InexactError(ArithmeticError):
    """An exact division left a remainder: a bug in the expansion, not bad
    input.  Raised explicitly so that `python -O` cannot skip the check."""


class VarTable:
    """Ordered list of distinct variable names, fixed for its lifetime."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self.names)})"


class LaurentPoly:
    """Sparse Laurent polynomial: map from exponent tuples to nonzero ints.

    Treat instances as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, int]):
        self.table = table
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, c: int) -> "LaurentPoly":
        return cls(table, {(0,) * len(table): c})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "LaurentPoly":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return cls(table, {tuple(e): 1})

    @classmethod
    def monomial(cls, table: VarTable, coeff: int, exps: tuple) -> "LaurentPoly":
        if len(exps) != len(table):
            raise ValueError("exponent vector length does not match table")
        return cls(table, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple) -> int:
        return self.terms.get(tuple(exps), 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.table), 0)

    def single_term(self) -> tuple[int, tuple]:
        """(coeff, exps) of the unique term; raises if not a monomial."""
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        ((e, c),) = self.terms.items()
        return c, e

    def degree_range(self, var: str) -> tuple[int, int]:
        """(min, max) exponent of `var` over all terms; rejects zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree range")
        i = self.table.index(var)
        exps = [e[i] for e in self.terms]
        return min(exps), max(exps)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.table != other.table:
            raise ValueError("variable table mismatch")

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.table, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return LaurentPoly(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.const(self.table, 1)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        return isinstance(other, LaurentPoly) and self.table == other.table \
            and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    # -- structural operations ---------------------------------------

    def substitute(self, images: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Map each named variable to a signed unit monomial; exact image.

        Variables absent from `images` are left alone.  Images must live
        over the same table and be single monomials with coefficient +-1.
        """
        monos = {}
        for name, img in images.items():
            self._check(img)
            c, e = img.single_term()
            if c not in (1, -1):
                raise ValueError(f"image of {name} is not a signed unit monomial")
            monos[self.table.index(name)] = (c, e)
        n = len(self.table)
        out: dict[tuple, int] = {}
        for exps, coeff in self.terms.items():
            new = [0] * n
            sign = 1
            for i, a in enumerate(exps):
                if i in monos:
                    c, e = monos[i]
                    if a % 2 and c == -1:
                        sign = -sign
                    for j, ej in enumerate(e):
                        new[j] += a * ej
                else:
                    new[i] += a
            key = tuple(new)
            s = out.get(key, 0) + sign * coeff
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return LaurentPoly(self.table, out)

    def invert_variables(self) -> "LaurentPoly":
        """f(x1,...,xn) -> f(x1^-1,...,xn^-1)."""
        return LaurentPoly(self.table, {tuple(-a for a in e): c
                                        for e, c in self.terms.items()})

    def truncate(self, max_degree: int, var_names=None) -> "LaurentPoly":
        """Drop terms whose exponent sum over `var_names` exceeds max_degree.

        Intended for power-series work with nonnegative exponents.
        """
        if var_names is None:
            idx = range(len(self.table))
        else:
            idx = [self.table.index(v) for v in var_names]
        return LaurentPoly(self.table, {
            e: c for e, c in self.terms.items()
            if sum(e[i] for i in idx) <= max_degree
        })

    # -- serialization -----------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in descending graded-lexicographic order (deterministic)."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"{v}^{a}" for v, a in zip(self.table.names, exps) if a]
            parts.append(f"{coeff} * " + (" ".join(factors) if factors else "1"))
        return " + ".join(parts)

    __repr__ = __str__


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division f/g of Laurent polynomials; InexactError if inexact.

    Lex leading-term elimination.  Termination guard: every quotient
    exponent must lie in the window forced by the degree ranges of f and g.
    """
    f._check(g)
    if f.is_zero():
        return f
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    n = len(f.table)
    fmin = [min(e[i] for e in f.terms) for i in range(n)]
    fmax = [max(e[i] for e in f.terms) for i in range(n)]
    gmin = [min(e[i] for e in g.terms) for i in range(n)]
    gmax = [max(e[i] for e in g.terms) for i in range(n)]
    gkey = max(g.terms)
    gcoef = g.terms[gkey]
    rem = dict(f.terms)
    quo: dict[tuple, int] = {}
    while rem:
        fkey = max(rem)
        qkey = tuple(a - b for a, b in zip(fkey, gkey))
        ok = all(fmin[i] - gmax[i] <= qkey[i] <= fmax[i] - gmin[i] for i in range(n))
        qc, r = divmod(rem[fkey], gcoef)
        if not ok or r:
            raise InexactError("polynomial division is not exact")
        quo[qkey] = qc
        for e, c in g.terms.items():
            key = tuple(a + b for a, b in zip(qkey, e))
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return LaurentPoly(f.table, quo)
