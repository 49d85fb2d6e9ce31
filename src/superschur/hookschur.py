"""Schur, skew Schur, and hook Schur functions on finite monomial alphabets.

Three routes are provided: the definitional sum over sub-shapes, the
Jozefiak-Pragacz symmetrized rational sum, and the factorization formula
for typical shapes.  Evaluation on large monomial alphabets expands the
generating product of the super complete functions and takes one
Jacobi-Trudi determinant in them; tableau enumeration is kept as an
independent cross-check oracle.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .laurent import LaurentPoly, VarTable, divide_exact
from .partitions import (Hook, HookClass, Partition, as_hook, classify_hook,
                         conjugate, part, typical_split)


class Alphabet:
    """Ordered multiset of signed Laurent monomials over a shared table.

    Repeats and the constant monomial 1 are permitted.  Hashable so that
    the complete-function and hook-Schur caches can key on it.
    """

    __slots__ = ("table", "monos")

    def __init__(self, table: VarTable, monos: Sequence[tuple[int, tuple]]):
        for coeff, exps in monos:
            if coeff not in (1, -1):
                raise ValueError("alphabet entries must be signed unit monomials")
            if len(exps) != len(table):
                raise ValueError("exponent vector length does not match table")
        self.table = table
        self.monos = tuple((c, tuple(e)) for c, e in monos)

    @classmethod
    def empty(cls, table: VarTable) -> "Alphabet":
        return cls(table, ())

    @classmethod
    def symbols(cls, table: VarTable, names: Sequence[str]) -> "Alphabet":
        monos = []
        for name in names:
            e = [0] * len(table)
            e[table.index(name)] = 1
            monos.append((1, tuple(e)))
        return cls(table, monos)

    @classmethod
    def from_polys(cls, table: VarTable, polys: Sequence[LaurentPoly]) -> "Alphabet":
        monos = []
        for p in polys:
            c, e = p.single_term()
            monos.append((c, e))
        return cls(table, monos)

    def __len__(self) -> int:
        return len(self.monos)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Alphabet) and self.table == other.table
                and self.monos == other.monos)

    def __hash__(self) -> int:
        return hash((self.table, self.monos))

    def union(self, other: "Alphabet") -> "Alphabet":
        if self.table != other.table:
            raise ValueError("variable table mismatch")
        return Alphabet(self.table, self.monos + other.monos)

    def entry(self, i: int) -> LaurentPoly:
        c, e = self.monos[i]
        return LaurentPoly.monomial(self.table, c, e)

    def sum_poly(self) -> LaurentPoly:
        total = LaurentPoly.zero(self.table)
        for c, e in self.monos:
            total = total + LaurentPoly.monomial(self.table, c, e)
        return total


# -- complete functions and Jacobi-Trudi ------------------------------

_HOM_CACHE: dict = {}
_HS_CACHE: dict = {}


def super_hom_sequence(X: Alphabet, Y: Alphabet, upto: int) -> list[LaurentPoly]:
    """Complete functions h_0..h_upto of the super alphabet X;Y, the
    coefficients of prod (1 - x z)^-1 prod (1 + y z).

    One memo entry per alphabet pair holds h_0..h_R, the last column col,
    where col[i] is h_R of the first i letters, and the letters as
    monomials.  Degree R + 1 takes col[i+1] = col[i] + x * prev[i+1] for
    an x letter and col[i] + y * prev[i] for a y letter, each in one pass,
    so a larger `upto` extends the entry and a smaller one slices it.

    The product commutes, so any letter order gives the same h_R; the
    cheap one takes Y's letters first, then X's constants, then the rest
    of X.  A y letter enters at most once and a constant moves no
    exponent, so every column entry over those letters is a sum of the
    terms of e_j(Y), j <= |Y|, and only X's other letters work on the
    full-size polynomials.
    """
    entry = _HOM_CACHE.get((X, Y))
    if entry is None:
        one = LaurentPoly.const(X.table, 1)
        zero = (0,) * len(X.table)
        monos = (Y.monos + tuple(m for m in X.monos if m[1] == zero)
                 + tuple(m for m in X.monos if m[1] != zero))
        letters = [LaurentPoly.monomial(X.table, c, e) for c, e in monos]
        entry = _HOM_CACHE[(X, Y)] = [[one], [one] * (len(letters) + 1), letters]
    hs, col, letters = entry
    ny = len(Y)
    while len(hs) <= upto:
        prev, col = col, [LaurentPoly.zero(X.table)]
        for i, z in enumerate(letters):
            col.append(col[i]._add_monomial_times(z, prev[i] if i < ny else prev[i + 1]))
        hs.append(col[-1])
    entry[1] = col
    return hs[:upto + 1]


def _det(mat: list[list[LaurentPoly]], table: VarTable) -> LaurentPoly:
    """Determinant of a square LaurentPoly matrix; minor expansion with
    memoization on the surviving column set.  A one-column minor is its
    entry itself, not a copy."""
    n = len(mat)
    if n == 0:
        return LaurentPoly.const(table, 1)
    memo: dict[tuple, LaurentPoly] = {}

    def rec(cols: tuple) -> LaurentPoly:
        row = n - len(cols)
        if len(cols) == 1:
            return mat[row][cols[0]]
        hit = memo.get(cols)
        if hit is not None:
            return hit
        total = LaurentPoly.zero(table)
        for idx, c in enumerate(cols):
            entry = mat[row][c]
            if entry.is_zero():
                continue
            sub = rec(cols[:idx] + cols[idx + 1:])
            term = entry * sub
            total = total + term if idx % 2 == 0 else total - term
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def _jacobi_trudi(lam: Partition, mu: Partition, X: Alphabet,
                  Y: Alphabet) -> LaurentPoly:
    """det[h_{lam_i - mu_j - i + j}(X;Y)], the skew Jacobi-Trudi determinant
    of lam/mu in the super complete functions."""
    table = X.table
    height = len(lam)
    if height == 0:
        return LaurentPoly.const(table, 1)
    hs = super_hom_sequence(X, Y, lam[0] + height - 1)
    zero = LaurentPoly.zero(table)

    def entry(i: int, j: int) -> LaurentPoly:
        d = lam[i] - part(mu, j + 1) - i + j
        return hs[d] if 0 <= d < len(hs) else zero

    return _det([[entry(i, j) for j in range(height)] for i in range(height)],
                table)


def hook_schur_eval(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """HS_lam(X;Y) through the super Jacobi-Trudi determinant (fast route).

    Uses the duality HS_lam(X;Y) = HS_lam'(Y;X) to keep the determinant
    at size min(height, width).
    """
    if X.table != Y.table:
        raise ValueError("alphabet table mismatch")
    if not lam:
        return LaurentPoly.const(X.table, 1)
    key = (tuple(lam), X, Y)
    hit = _HS_CACHE.get(key)
    if hit is not None:
        return hit
    if len(lam) > lam[0]:
        result = hook_schur_eval(conjugate(lam), Y, X)
    else:
        result = _jacobi_trudi(lam, (), X, Y)
    _HS_CACHE[key] = result
    return result


def schur_eval(lam: Partition, A: Alphabet) -> LaurentPoly:
    """s_lam(A); zero when the shape is taller than the alphabet."""
    return hook_schur_eval(lam, A, Alphabet.empty(A.table))


def skew_schur_eval(lam: Partition, mu: Partition, A: Alphabet) -> LaurentPoly:
    """s_{lam/mu}(A) by the skew Jacobi-Trudi determinant."""
    if any(part(mu, i) > part(lam, i) for i in range(1, len(mu) + 1)):
        raise ValueError(f"{mu} is not contained in {lam}")
    return _jacobi_trudi(lam, mu, A, Alphabet.empty(A.table))


# -- tableau oracles ----------------------------------------------------

def skew_schur_by_tableaux(lam: Partition, mu: Partition, A: Alphabet) -> LaurentPoly:
    """s_{lam/mu}(A) by direct semistandard-filling enumeration (oracle)."""
    table = A.table
    n_letters = len(A)
    rows = [(part(mu, i + 1), part(lam, i + 1)) for i in range(len(lam))]
    total = LaurentPoly.zero(table)

    def fill(i: int, prev_row: dict, acc: LaurentPoly):
        nonlocal total
        if i == len(rows):
            total = total + acc
            return
        lo, hi = rows[i]

        def fill_row(j: int, last: int, row_acc: LaurentPoly, row_vals: dict):
            if j == hi:
                fill(i + 1, row_vals, row_acc)
                return
            floor = last
            above = prev_row.get(j)
            if above is not None:
                floor = max(floor, above + 1)
            for v in range(floor, n_letters + 1):
                fill_row(j + 1, v, row_acc * A.entry(v - 1), {**row_vals, j: v})

        fill_row(lo, 1, acc, {})

    fill(0, {}, LaurentPoly.const(table, 1))
    return total


def schur_by_tableaux(lam: Partition, A: Alphabet) -> LaurentPoly:
    return skew_schur_by_tableaux(lam, (), A)


# -- the three hook-Schur formulas --------------------------------------

def sub_partitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam (componentwise)."""
    def rec(i: int, cap: int):
        if i == len(lam):
            yield ()
            return
        for p in range(min(lam[i], cap), -1, -1):
            if p == 0:
                yield ()
                return
            for rest in rec(i + 1, p):
                yield (p,) + rest
    yield from rec(0, lam[0] if lam else 0)


def hook_schur_def(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Definitional route: sum over mu of s_mu(X) s_{(lam/mu)'}(Y).

    The conjugate on the skew factor is required for the hook theorem and
    the factorization formula to hold (witness (1,1,1) with one x, one y).
    """
    if X.table != Y.table:
        raise ValueError("alphabet table mismatch")
    table = X.table
    lamc = conjugate(lam)
    total = LaurentPoly.zero(table)
    for mu in sub_partitions(lam):
        sx = schur_eval(mu, X)
        if sx.is_zero():
            continue
        total = total + sx * skew_schur_eval(lamc, conjugate(mu), Y)
    return total


def f_lambda(lam: Partition, h, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Product of (x_i + y_j) over the boxes of lam, with variables beyond
    the hook reading as zero."""
    h = as_hook(h)
    if len(X) != h.k or len(Y) != h.l:
        raise ValueError("alphabet sizes must match the hook")
    table = X.table
    result = LaurentPoly.const(table, 1)
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            factor = LaurentPoly.zero(table)
            if i <= h.k:
                factor = factor + X.entry(i - 1)
            if j <= h.l:
                factor = factor + Y.entry(j - 1)
            if factor.is_zero():
                return LaurentPoly.zero(table)
            result = result * factor
    return result


def _plain_names(A: Alphabet) -> list[str]:
    names = []
    for c, e in A.monos:
        if c != 1 or sum(abs(a) for a in e) != 1 or sum(e) != 1:
            raise ValueError("alphabet entry is not a plain variable")
        names.append(A.table.names[e.index(1)])
    if len(set(names)) != len(names):
        raise ValueError("repeated variables make the symmetrized sum singular")
    return names


def _sign(perm: Sequence[int]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def hook_schur_jp(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Jozefiak-Pragacz route: the sum over (sigma, tau) in S_k x S_l of
    sign(sigma) sign(tau) f_lam(X_sigma; Y_tau) times the staircase
    monomials of the permuted alphabets X_sigma and Y_tau, divided exactly
    by the Vandermonde products of X and Y.  X and Y must be disjoint sets
    of plain variables.
    """
    if X.table != Y.table:
        raise ValueError("alphabet table mismatch")
    table = X.table
    xnames = _plain_names(X)
    ynames = _plain_names(Y)
    if set(xnames) & set(ynames):
        raise ValueError("X and Y must be disjoint variable sets")
    h = Hook(len(X), len(Y))
    numerator = LaurentPoly.zero(table)
    for sigma in permutations(range(h.k)):
        for tau in permutations(range(h.l)):
            Xs = Alphabet(table, [X.monos[i] for i in sigma])
            Ys = Alphabet(table, [Y.monos[j] for j in tau])
            term = f_lambda(lam, h, Xs, Ys) * (_sign(sigma) * _sign(tau))
            for A in (Xs, Ys):
                for i in range(len(A)):
                    term = term * A.entry(i) ** (len(A) - 1 - i)
            numerator = numerator + term
    vandermonde = LaurentPoly.const(table, 1)
    for names in (xnames, ynames):
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                vandermonde = vandermonde * (LaurentPoly.variable(table, names[i])
                                             - LaurentPoly.variable(table, names[j]))
    if numerator.is_zero():
        return numerator
    return divide_exact(numerator, vandermonde)


def hook_schur_factorized(lam: Partition, h, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Factorization route for typical shapes: the full rectangle product
    times s_mu(X) s_nu(Y)."""
    h = as_hook(h)
    if classify_hook(lam, h) is not HookClass.TYPICAL:
        raise ValueError(f"{lam} is not typical in H({h.k},{h.l})")
    if len(X) != h.k or len(Y) != h.l:
        raise ValueError("alphabet sizes must match the hook")
    table = X.table
    mu, nu = typical_split(lam, h)
    result = schur_eval(mu, X) * schur_eval(nu, Y)
    for i in range(h.k):
        for j in range(h.l):
            result = result * (X.entry(i) + Y.entry(j))
    return result
