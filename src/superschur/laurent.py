"""Exact sparse multivariate Laurent polynomials over the integers.

Coefficients are arbitrary-precision ints; exponent vectors range over a
fixed variable table, negative exponents allowed.  No floating point
anywhere.

Internally each exponent vector is packed into one int (Kronecker
substitution): field i holds e_i + 2^(WIDTH-1) at bit WIDTH*i, so a
product adds two ints per term pair instead of zipping tuples.  Every
polynomial carries `reach`, a bound on |e_i| over its terms; a product
whose bound could pass `VarTable.LIMIT` raises before it is formed, so a
carry into the next field can never happen.  The public API speaks
tuples: constructors take tuple-keyed mappings, and `.terms` is a
read-only tuple-keyed mapping (`types.MappingProxyType`) built when read.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from itertools import compress
from types import MappingProxyType
from typing import Iterable


class InexactError(ArithmeticError):
    """An exact division left a remainder: a bug in the expansion, not bad
    input.  Raised explicitly so that `python -O` cannot skip the check."""


def exact_quotient(total: int, divisor: int, what: str) -> int:
    """total / divisor for ints that must divide exactly; InexactError
    naming `what`, the total and the divisor otherwise."""
    q, r = divmod(total, divisor)
    if r:
        raise InexactError(f"{what}: {total} is not divisible by {divisor}")
    return q


_LITTLE = sys.byteorder == "little"  # big-endian bytes list the last field first


class VarTable:
    """Ordered list of distinct variable names, fixed for its lifetime.

    Owns the packing of exponent vectors into ints: `pack`, `unpack`, and
    `zero_key`, the packed form of the zero vector.
    """

    WIDTH = 16  # bits per packed exponent field: `unpack` reads them as C shorts
    LIMIT = (1 << (WIDTH - 1)) - 1  # largest |exponent| a field holds
    _MASK = (1 << WIDTH) - 1
    _BIAS = 1 << (WIDTH - 1)

    __slots__ = ("names", "_index", "zero_key")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self.zero_key = sum(self._BIAS << (self.WIDTH * i) for i in range(len(names)))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """The position of `name`; ValueError naming it and the table if
        the table has no such variable."""
        i = self._index.get(name)
        if i is None:
            raise ValueError(f"no variable {name!r} in {self!r}")
        return i

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self.names)})"

    def pack(self, exps) -> int:
        """The packed key of an exponent vector; ValueError for a
        non-integer exponent or one past LIMIT."""
        if len(exps) != len(self.names):
            raise ValueError(f"exponent vector length does not match table: "
                             f"{exps} has {len(exps)} entries, the table "
                             f"{len(self.names)} variables")
        key = self.zero_key
        for i, a in enumerate(exps):
            if not isinstance(a, int):
                raise ValueError(f"exponents must be integers: {exps}")
            if abs(a) > self.LIMIT:
                raise ValueError(f"exponent {a} is past the packing limit {self.LIMIT}")
            key += a << (self.WIDTH * i)
        return key

    def unpack(self, key: int) -> tuple:
        """The exponent vector of a packed key, read in one pass: flipping
        each field's bias bit leaves e_i as a signed 16-bit integer."""
        fields = memoryview((key ^ self.zero_key).to_bytes(
            2 * len(self.names), sys.byteorder)).cast("h")
        return tuple(fields if _LITTLE else fields[::-1])

    def field(self, key: int, i: int) -> int:
        """Exponent of variable i in a packed key."""
        return ((key >> (self.WIDTH * i)) & self._MASK) - self._BIAS

    def clip(self, packed: dict, i: int, lo: int, hi: int) -> dict:
        """The packed terms whose exponent of variable i lies in [lo, hi]."""
        shift, mask = self.WIDTH * i, self._MASK
        lo, hi = lo + self._BIAS, hi + self._BIAS
        return {key: c for key, c in packed.items() if lo <= (key >> shift) & mask <= hi}


class LaurentPoly:
    """Sparse Laurent polynomial: map from exponent tuples to nonzero ints.

    Treat instances as immutable; all arithmetic returns new objects.
    `_packed` maps packed exponent keys to coefficients; `residue` reads
    it directly for its constant-term extraction, and `poincare` builds a
    series straight into it with `_from_packed`.
    """

    __slots__ = ("table", "_packed", "reach")

    def __init__(self, table: VarTable, terms: Mapping[tuple, int]):
        packed = {}
        reach = 0
        for e, c in terms.items():
            if c:
                packed[table.pack(e)] = c
                reach = max(reach, max(map(abs, e), default=0))
        self.table = table
        self._packed = packed
        self.reach = reach

    @classmethod
    def _from_packed(cls, table: VarTable, packed: dict, reach: int) -> "LaurentPoly":
        """Wrap an already packed dict of nonzero coefficients."""
        poly = object.__new__(cls)
        poly.table = table
        poly._packed = packed
        poly.reach = reach
        return poly

    @property
    def terms(self) -> Mapping[tuple, int]:
        """Read-only {exponent tuple: coefficient} mapping, built when read."""
        unpack = self.table.unpack
        return MappingProxyType({unpack(key): c for key, c in self._packed.items()})

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls._from_packed(table, {}, 0)

    @classmethod
    def const(cls, table: VarTable, c: int) -> "LaurentPoly":
        return cls._from_packed(table, {table.zero_key: c} if c else {}, 0)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "LaurentPoly":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return cls(table, {tuple(e): 1})

    @classmethod
    def monomial(cls, table: VarTable, coeff: int, exps: tuple) -> "LaurentPoly":
        return cls(table, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def coefficient(self, exps: tuple) -> int:
        """One packed lookup; 0 for exponents no term can have: the wrong
        length, past `VarTable.LIMIT`, or not integers."""
        try:
            return self._packed.get(self.table.pack(tuple(exps)), 0)
        except (TypeError, ValueError):
            return 0

    def degree_range(self, var: str) -> tuple[int, int]:
        """(min, max) exponent of `var` over all terms; rejects zero."""
        if not self._packed:
            raise ValueError("zero polynomial has no degree range")
        i = self.table.index(var)
        exps = [self.table.field(key, i) for key in self._packed]
        return min(exps), max(exps)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.table != other.table:
            raise ValueError("variable table mismatch")

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        return self._add_monomial_times(LaurentPoly.const(self.table, 1), other)

    __radd__ = __add__

    def _add_monomial_times(self, mono: "LaurentPoly", other: "LaurentPoly") -> "LaurentPoly":
        """self + mono * other for a one-term `mono`, in one pass: each term
        of `other` is shifted by mono's key and added into a copy of self,
        so the product is never formed on its own.  `+` and `-` pass
        mono = 1 and -1, and exact division passes each quotient term.
        An empty `other` adds nothing and returns self, bound and all."""
        self._check(mono)
        self._check(other)
        if not other._packed:
            return self
        ((shift, c),) = mono._packed.items()
        shift -= self.table.zero_key
        reach = mono.reach + other.reach
        if reach > VarTable.LIMIT:
            raise ValueError(f"product exponent bound {reach} is past the "
                             f"packing limit {VarTable.LIMIT}")
        terms = dict(self._packed)
        get = terms.get
        for key, b in other._packed.items():
            key += shift
            s = get(key, 0) + c * b
            if s:
                terms[key] = s
            else:
                del terms[key]
        return LaurentPoly._from_packed(self.table, terms, max(self.reach, reach))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_packed(
            self.table, {key: -c for key, c in self._packed.items()}, self.reach)

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        return self._add_monomial_times(LaurentPoly.const(self.table, -1), other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.table)
            return LaurentPoly._from_packed(
                self.table, {key: c * other for key, c in self._packed.items()},
                self.reach)
        self._check(other)
        a, b = self._packed, other._packed
        if len(a) > len(b):
            a, b = b, a
        if not a:  # the zero polynomial bounds no exponent
            return LaurentPoly.zero(self.table)
        reach = self.reach + other.reach
        if reach > VarTable.LIMIT:
            raise ValueError(f"product exponent bound {reach} is past the "
                             f"packing limit {VarTable.LIMIT}")
        zero_key = self.table.zero_key
        if len(a) == 1:  # a monomial shifts keys injectively: no collisions
            ((ka, ca),) = a.items()
            ka -= zero_key
            return LaurentPoly._from_packed(
                self.table, {ka + kb: ca * cb for kb, cb in b.items()}, reach)
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            ka -= zero_key
            for kb, cb in b.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return LaurentPoly._from_packed(
            self.table, {key: c for key, c in out.items() if c}, reach)

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
            and self._packed == other._packed

    # -- structural operations ---------------------------------------

    def invert_variables(self) -> "LaurentPoly":
        """f(x1,...,xn) -> f(x1^-1,...,xn^-1)."""
        twice_zero = 2 * self.table.zero_key
        return LaurentPoly._from_packed(
            self.table, {twice_zero - key: c for key, c in self._packed.items()},
            self.reach)

    # -- serialization -----------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in descending graded-lexicographic order (deterministic)."""
        unpack = self.table.unpack
        return sorted(((unpack(key), c) for key, c in self._packed.items()),
                      key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def __str__(self) -> str:
        if not self._packed:
            return "0"
        parts = []
        names = self.table.names
        for exps, coeff in self.sorted_terms():
            factors = [f"{v}^{a}" for v, a in compress(zip(names, exps), exps)]
            parts.append(f"{coeff} * " + (" ".join(factors) if factors else "1"))
        return " + ".join(parts)

    __repr__ = __str__


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division f/g of Laurent polynomials; InexactError if inexact.

    Leading-term elimination on the packed keys.  The largest key leads in
    lex order with the last variable compared first, a monomial order on
    Z^n, so each step takes one quotient term and adds its negative times g
    with `_add_monomial_times`.  Termination guard: every quotient exponent
    must lie in the window forced by the degree ranges of f and g.
    """
    f._check(g)
    if f.is_zero():
        return f
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    table = f.table
    ranges = [(f.degree_range(var), g.degree_range(var)) for var in table.names]
    window = [(flo - ghi, fhi - glo) for (flo, fhi), (glo, ghi) in ranges]
    glead = max(g._packed)
    gexps, gcoef = table.unpack(glead), g._packed[glead]
    shift = table.zero_key - glead
    rem, quo, reach = f, {}, 0
    while rem._packed:
        lead = max(rem._packed)
        exps = [a - b for a, b in zip(table.unpack(lead), gexps)]
        if not all(lo <= a <= hi for a, (lo, hi) in zip(exps, window)):
            raise InexactError("polynomial division is not exact")
        c = exact_quotient(rem._packed[lead], gcoef, "polynomial division")
        mono = LaurentPoly.monomial(table, -c, exps)
        rem = rem._add_monomial_times(mono, g)
        quo[lead + shift] = c
        reach = max(reach, mono.reach)
    return LaurentPoly._from_packed(table, quo, reach)
