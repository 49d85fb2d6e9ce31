"""Contour integrals as exact constant-term extraction.

The kernel Delta has numerator prod_{i!=j}(1 - x_i x_j^-1) (and the same
in y) and denominator prod_{i,j}(1 + x_i y_j^-1)(1 + x_i^-1 y_j).  The
contour ordering |x| > |y| is realized algebraically: each denominator
pair is rewritten as x_i^-1 y_j * sum_{m>=0} (m+1)(-x_i^-1 y_j)^m, so no
numeric radius exists anywhere.  Truncation of each geometric factor is
per-term and exact: a term can only reach the constant term if its x
exponents stay nonnegative and its y exponents nonpositive while factors
are absorbed.  `slack` widens every truncation window; results must be
independent of it (the truncation-stability invariant).
"""

from __future__ import annotations

from math import factorial

from .hookschur import Alphabet, hook_schur_eval
from .laurent import LaurentPoly, VarTable, exact_quotient
from .partitions import Partition, as_hook

def residue_table(h) -> VarTable:
    h = as_hook(h)
    return VarTable([f"x{i}" for i in range(1, h.k + 1)]
                    + [f"y{j}" for j in range(1, h.l + 1)])


def delta_numerator(table: VarTable, h) -> LaurentPoly:
    """Finite part of Delta after the geometric rewrite: the difference
    products times the monomial prefactor prod x_i^-l prod y_j^k."""
    h = as_hook(h)
    k, ell = h.k, h.l
    result = LaurentPoly.const(table, 1)
    for block, count in ((0, k), (k, ell)):
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                e = [0] * len(table)
                e[block + i] = 1
                e[block + j] = -1
                result = result * (1 - LaurentPoly.monomial(table, 1, tuple(e)))
    pre = [-ell] * k + [k] * ell
    return result * LaurentPoly.monomial(table, 1, tuple(pre))


def constant_term_with_delta(f: LaurentPoly, h, slack: int = 0) -> int:
    """Exact constant term of f * Delta, with Delta expanded per the
    |x| > |y| ordering.  Factors are absorbed grouped by x index then y
    index; after all factors touching x_i are in, terms off x_i = 0 are
    discarded (they cannot reach the constant term).  Works on packed
    exponent keys: absorbing one factor of (x_i^-1 y_j) adds `step`."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = f.table
    if len(table) != k + ell:
        raise ValueError("polynomial table does not match the hook")
    if slack > VarTable.LIMIT:
        raise ValueError(f"slack {slack} is past the packing limit {VarTable.LIMIT}")
    field, clip, limit = table.field, table.clip, VarTable.LIMIT
    num = delta_numerator(table, h)
    # x exponents only ever decrease, y only increase: a term must reach
    # x_i >= -slack and y_j <= slack after num, and must stay there
    terms = f._packed
    for i in range(k):
        terms = clip(terms, i, -slack - num.degree_range(table.names[i])[1], limit)
    for j in range(k, k + ell):
        terms = clip(terms, j, -limit, slack - num.degree_range(table.names[j])[0])
    terms = (LaurentPoly._from_packed(table, terms, f.reach) * num)._packed
    for i in range(k):
        terms = clip(terms, i, -slack, limit)
    for j in range(k, k + ell):
        terms = clip(terms, j, -limit, slack)
    width = VarTable.WIDTH
    for i in range(k):
        for j in range(ell):
            step = (1 << (width * (k + j))) - (1 << (width * i))
            new: dict[int, int] = {}
            get = new.get
            for key, c in terms.items():
                bound = min(field(key, i) + slack, slack - field(key, k + j))
                # the m-th term of the factor is (m + 1) (-x_i^-1 y_j)^m
                for m in range(bound + 1):
                    new[key] = get(key, 0) + c * (m + 1)
                    key += step
                    c = -c
            terms = {key: c for key, c in new.items() if c}
        terms = clip(terms, i, -slack, slack)
    return terms.get(table.zero_key, 0)


def _integral(f: LaurentPoly, h, slack: int) -> int:
    """(k! l!)^-1 x constant term of f * Delta, which must be exact."""
    h = as_hook(h)
    return exact_quotient(constant_term_with_delta(f, h, slack),
                          factorial(h.k) * factorial(h.l),
                          "constant term over k! l! (expansion bug)")


def inner_product(f: LaurentPoly, g: LaurentPoly, h, slack: int = 0) -> int:
    """<f, g> = (k! l!)^-1 x constant term of f(X;Y) g(X^-1;Y^-1) Delta."""
    if f.table != g.table:
        raise ValueError("variable table mismatch")
    return _integral(f * g.invert_variables(), h, slack)


def z_alphabets(h) -> tuple[VarTable, Alphabet, Alphabet]:
    """The monomial multisets Z0 = X X^-1 u Y Y^-1 (size k^2 + l^2,
    including k + l unit monomials) and Z1 = X Y^-1 u X^-1 Y (size 2kl)."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = residue_table(h)
    n = len(table)

    def mono(up: int = None, down: int = None) -> tuple[int, tuple]:
        e = [0] * n
        if up is not None:
            e[up] += 1
        if down is not None:
            e[down] -= 1
        return (1, tuple(e))

    z0 = [mono(i, j) for i in range(k) for j in range(k)]
    z0 += [mono(k + i, k + j) for i in range(ell) for j in range(ell)]
    z1 = [mono(i, k + j) for i in range(k) for j in range(ell)]
    z1 += [mono(k + j, i) for i in range(k) for j in range(ell)]
    return table, Alphabet(table, z0), Alphabet(table, z1)


def hs_on_z(lam: Partition, h) -> LaurentPoly:
    """HS_lam(Z0;Z1) as a Laurent polynomial in the hook's variables."""
    return hook_schur_eval(tuple(lam), *z_alphabets(h)[1:])


def m_prime_residue(lam: Partition, h, slack: int = 0) -> int:
    """<HS_lam(Z0;Z1), 1> -- the integral form of the multiplicity jump."""
    return _integral(hs_on_z(lam, h), h, slack)


def m_bar_prime_residue(lam: Partition, h, slack: int = 0) -> int:
    """Same integral with the extra factor sum_{z in Z0 u Z1} z."""
    _, z0, z1 = z_alphabets(h)
    return _integral(hs_on_z(lam, h) * (z0.sum_poly() + z1.sum_poly()), h, slack)
