"""Schur and hook Schur functions on finite monomial alphabets.

An alphabet's letters are Laurent monomials with coefficient 1, each an
exponent tuple (`Alphabet`), so the super complete functions have only
positive coefficients.  Evaluation on large alphabets (`hook_schur_eval`)
expands the generating product of the super complete functions and takes
one Jacobi-Trudi determinant in them.  One builder makes those complete
functions (`graded_homs`), one in-place pass per letter of their
generating product, to a given degree: ungraded and memoised for the
determinant (`super_hom_sequence`), and split by x-degree and cut at a
floor for the Cauchy pairing of `residue`.  Three routes check the
evaluation and share none of its code: the definitional one, which
enumerates the (k, l)-semistandard tableaux of Berele and Regev; the
Jozefiak-Pragacz symmetrized rational sum; and the factorization formula
for typical shapes, whose Schur factors are the definitional route with
Y empty.  Each drops the zero parts of a shape and refuses by name one
that is not then a partition.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import inf
from operator import add
from typing import Sequence

from .laurent import LaurentPoly, VarTable, divide_exact
from .partitions import Partition, check_partition, conjugate, typical_split


class Alphabet:
    """Ordered multiset of Laurent monomials with coefficient 1 over a
    shared table, each entry its exponent tuple.

    Repeats and the constant monomial 1 are permitted; an entry that does
    not fit the table is refused by name.  Hashable so that the
    complete-function memo can key on it.
    """

    __slots__ = ("table", "monos")

    def __init__(self, table: VarTable, monos: Sequence[tuple]):
        monos = tuple(monos)
        for exps in monos:
            if not isinstance(exps, (tuple, list)):
                raise ValueError(f"alphabet entries must be exponent tuples "
                                 f"or lists: {exps!r}")
            table.pack(exps)
        self.table = table
        self.monos = tuple(map(tuple, monos))

    @classmethod
    def symbols(cls, table: VarTable, names: Sequence[str]) -> "Alphabet":
        monos = []
        for name in names:
            e = [0] * len(table)
            e[table.index(name)] = 1
            monos.append(e)
        return cls(table, monos)

    def __len__(self) -> int:
        return len(self.monos)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Alphabet) and self.table == other.table
                and self.monos == other.monos)

    def __hash__(self) -> int:
        return hash((self.table, self.monos))

    def entry(self, i: int) -> LaurentPoly:
        return LaurentPoly.monomial(self.table, 1, self.monos[i])

    def sum_poly(self) -> LaurentPoly:
        return LaurentPoly(self.table, Counter(self.monos))


# -- complete functions and Jacobi-Trudi ------------------------------

_HOM_CACHE: dict = {}


def graded_homs(X: Alphabet, Y: Alphabet, k: int, floor: int,
                top: int) -> list[dict]:
    """h_0, ..., h_top of X;Y, the coefficients of prod (1 - x u)^-1
    prod (1 + y u), each as {x-degree: LaurentPoly} over the x-degrees
    >= floor, to be read, not changed.  The x-degree of a term is the sum
    of its first k exponents: k = 0 grades nothing, floor 0 cuts nothing.

    The generating product, one letter at a time and in place, over
    packed dicts h[R] = {x-degree: {key: coefficient}}: a y letter adds
    y * h[R - 1] into h[R] with R running down, so it enters once, and an
    x letter with R running up, so it repeats.  Any letter order gives
    the same h_R; the cheap one takes Y's letters first, then X's
    constants, then the rest of X.  A y letter enters at most once and a
    constant moves no exponent, so every bucket over those letters is a
    sum of the terms of e_j(Y), j <= |Y|, and only X's other letters work
    on the full-size buckets.  Graded, Y goes plus-first and X
    minus-first.  Every letter has coefficient 1, so every coefficient
    is positive: no term cancels and no bucket empties, and a pass only
    adds.

    After letter i, a term of h_R can still gain the letters from i on,
    and letter i again if it is in X.  With no letter above x-degree 1
    they add at most top - R (ValueError otherwise), and while no X
    letter of x-degree +1 is left, one per Y letter of x-degree +1 left.
    A bucket they cannot lift to floor is dropped: every term it would
    feed stays below floor, so the buckets kept are exact.

    A term of h_R is R letters, each y letter at most once, so no
    exponent passes reach(R) = min(R a, R a_X + sum_y a_y), a being a
    letter's largest |exponent|; ValueError before any work if reach(top)
    is past the packing limit, and each h_R carries reach(R)."""
    table, zero = X.table, (0,) * len(X.table)
    letters = (sorted(Y.monos, key=lambda e: -sum(e[:k]))
               + sorted(X.monos, key=lambda e: (sum(e[:k]), e != zero)))
    ny, size = len(Y), len(letters)
    grades = [sum(e[:k]) for e in letters]
    if max(grades, default=0) > 1:
        raise ValueError("a letter of x-degree above 1 would void the cut")
    widths = [max(map(abs, e), default=0) for e in letters]
    a, a_x = max(widths, default=0), max(widths[ny:], default=0)
    sum_y = sum(widths[:ny])
    reach = [min(R * a, R * a_x + sum_y) for R in range(top + 1)]
    if reach[-1] > VarTable.LIMIT:
        raise ValueError(f"complete functions through degree {top} reach "
                         f"exponent {reach[-1]}, past the packing limit "
                         f"{VarTable.LIMIT}")
    # lows[i]: the least x-degree a bucket needs after the first i letters
    lows = [-inf if any(s > 0 for s in grades[max(i - 1, ny):])
            else floor - sum(s > 0 for s in grades[i:ny]) for i in range(size + 1)]
    h: list[dict] = [{} for _ in range(top + 1)]
    if lows[0] <= 0:
        h[0][0] = {table.zero_key: 1}
    for i, (e, s) in enumerate(zip(letters, grades)):
        shift, low = table.pack(e) - table.zero_key, lows[i + 1]
        rises = lows[i] < low
        for R in range(top, -1, -1) if i < ny else range(top + 1):
            if rises:
                h[R] = {g: t for g, t in h[R].items() if g >= low}
            if not R:
                continue
            out, cut = h[R], max(low, floor - (top - R))
            for g, src in h[R - 1].items():
                g += s
                if g < cut:
                    continue
                dst = out.get(g)
                if dst is None:
                    out[g] = {key + shift: b for key, b in src.items()}
                    continue
                get = dst.get
                for key, b in src.items():
                    key += shift
                    dst[key] = get(key, 0) + b
    wrap, hs = LaurentPoly._from_packed, []
    for hr, r in zip(h, reach):
        hd = {}
        for g, t in hr.items():
            if g >= floor:
                hd[g] = wrap(table, t, r)
        hs.append(hd)
    return hs


def super_hom_sequence(X: Alphabet, Y: Alphabet, upto: int) -> list[LaurentPoly]:
    """h_0..h_upto of the super alphabet X;Y, ungraded.  One memo entry per
    alphabet pair holds the list `graded_homs` built over k = 0; a larger
    `upto` builds it again to that degree, and a smaller one slices it.
    The entry is replaced only by a finished build, so a build that raised
    leaves the entry it found."""
    hs = _HOM_CACHE.get((X, Y))
    if hs is None or len(hs) <= upto:
        zero = LaurentPoly.zero(X.table)
        hs = _HOM_CACHE[X, Y] = [hd.get(0, zero)
                                 for hd in graded_homs(X, Y, 0, 0, upto)]
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


def _jacobi_trudi(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """det[h_{lam_i - i + j}(X;Y)], the Jacobi-Trudi determinant of lam in
    the super complete functions."""
    table = X.table
    height = len(lam)
    if height == 0:
        return LaurentPoly.const(table, 1)
    hs = super_hom_sequence(X, Y, lam[0] + height - 1)
    zero = LaurentPoly.zero(table)

    def entry(i: int, j: int) -> LaurentPoly:
        d = lam[i] - i + j
        return hs[d] if d >= 0 else zero

    return _det([[entry(i, j) for j in range(height)] for i in range(height)],
                table)


def hook_schur_eval(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """HS_lam(X;Y) through the super Jacobi-Trudi determinant (fast route).

    Uses the duality HS_lam(X;Y) = HS_lam'(Y;X) to keep the determinant
    at size min(height, width).  Memoises nothing: the complete functions
    it reads are memoised per alphabet pair (`super_hom_sequence`).
    """
    if X.table != Y.table:
        raise ValueError("alphabet table mismatch")
    lam = check_partition(p for p in lam if p)
    if lam and len(lam) > lam[0]:
        return hook_schur_eval(conjugate(lam), Y, X)
    return _jacobi_trudi(lam, X, Y)


# -- the definitional route: tableau enumeration -------------------------

def hook_schur_def(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Definitional route: the sum over the (k, l)-semistandard tableaux
    of lam of the product of their letters (Berele-Regev), k = |X| and
    l = |Y|.

    Letters 1..k are X's entries and k+1..k+l are Y's; rows and columns
    weakly increase, an x letter does not repeat down a column and a y
    letter does not repeat along a row.  So a cell takes at least
    v + (v > k) after its left neighbour v and above + (above <= k) below
    its upper neighbour, where 0 stands for a cell off the shape.  With Y
    empty these are the semistandard tableaux of s_lam(X).
    """
    if X.table != Y.table:
        raise ValueError("alphabet table mismatch")
    lam = check_partition(p for p in lam if p)
    letters = X.monos + Y.monos
    k, n = len(X), len(letters)
    cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
    grid = [[0] * p for p in lam]
    terms: dict[tuple, int] = {}

    def fill(c: int, exps: tuple):
        if c == len(cells):
            terms[exps] = terms.get(exps, 0) + 1
            return
        i, j = cells[c]
        left = grid[i][j - 1] if j else 0
        above = grid[i - 1][j] if i else 0
        for v in range(max(left + (left > k), above + (above <= k)), n + 1):
            grid[i][j] = v
            fill(c + 1, tuple(map(add, exps, letters[v - 1])))

    fill(0, (0,) * len(X.table))
    return LaurentPoly(X.table, terms)


# -- the other two hook-Schur formulas ------------------------------------

def _f_lambda(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Product of (x_i + y_j) over the boxes of the partition lam, with
    variables beyond the hook (|X|, |Y|) reading as zero."""
    table = X.table
    result = LaurentPoly.const(table, 1)
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            factor = LaurentPoly.zero(table)
            if i <= len(X):
                factor = factor + X.entry(i - 1)
            if j <= len(Y):
                factor = factor + Y.entry(j - 1)
            if factor.is_zero():
                return LaurentPoly.zero(table)
            result = result * factor
    return result


def _plain_names(A: Alphabet) -> list[str]:
    names = []
    for e in A.monos:
        if sum(map(abs, e)) != 1 or sum(e) != 1:
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
    lam = check_partition(p for p in lam if p)
    numerator = LaurentPoly.zero(table)
    for sigma in permutations(range(len(X))):
        for tau in permutations(range(len(Y))):
            Xs = Alphabet(table, [X.monos[i] for i in sigma])
            Ys = Alphabet(table, [Y.monos[j] for j in tau])
            term = _f_lambda(lam, Xs, Ys) * (_sign(sigma) * _sign(tau))
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


def hook_schur_factorized(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """Factorization route for shapes typical in the hook (|X|, |Y|): the
    full rectangle product times s_mu(X) s_nu(Y)."""
    mu, nu = typical_split(check_partition(p for p in lam if p), (len(X), len(Y)))
    result = (hook_schur_def(mu, X, Alphabet(X.table, ()))
              * hook_schur_def(nu, Y, Alphabet(Y.table, ())))
    for i in range(len(X)):
        for j in range(len(Y)):
            result = result * (X.entry(i) + Y.entry(j))
    return result
