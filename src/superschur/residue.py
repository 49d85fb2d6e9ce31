"""Contour integrals as exact constant-term extraction.

The kernel Delta has numerator prod_{i!=j}(1 - x_i x_j^-1) (and the same
in y) and denominator prod_{i,j}(1 + x_i y_j^-1)(1 + x_i^-1 y_j).  The
contour ordering |x| > |y| is realized algebraically: each denominator
pair is rewritten as x_i^-1 y_j * sum_{m>=0} (m+1)(-x_i^-1 y_j)^m, so no
numeric radius exists anywhere.  Truncation of each geometric factor is
per-term and exact: absorbing a factor only lowers x exponents and raises
y exponents, so a term that leaves a box |e_i| <= r never returns to it.

The constant term CT[f Delta] = sum_e f_e [x^-e] Delta is linear in f.
Every integral is therefore one dot product of f against Delta's
expansion on a box |e_i| <= R covering f's reach, built per hook by
absorbing the factors into the Delta numerator.  R is the reach asked for,
with no overshoot: a series knows its largest reach before its first
integral and sizes the kernel once (`reserve_kernel`); a caller that asks
for a larger reach later rebuilds it at that reach.
`constant_term_with_delta` keeps the per-integrand expansion as the
reference, inside windows widened by `slack`; the tests check that the
kernel agrees with it for every slack.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .hookschur import Alphabet, hook_schur_eval
from .laurent import LaurentPoly, VarTable, exact_quotient
from .partitions import Hook, Partition, as_hook

def residue_table(h) -> VarTable:
    h = as_hook(h)
    return VarTable([f"x{i}" for i in range(1, h.k + 1)]
                    + [f"y{j}" for j in range(1, h.l + 1)])


@lru_cache(maxsize=None)
def delta_numerator(table: VarTable, h) -> LaurentPoly:
    """Finite part of Delta after the geometric rewrite: the difference
    products times the monomial prefactor prod x_i^-l prod y_j^k.
    Memoised: every kernel rebuilt for a larger reach starts from it."""
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


def _absorb(terms: dict, table: VarTable, k: int, ell: int, r: int) -> dict:
    """Packed terms times every geometric factor, grouped by x index then
    y index, keeping only what can land in the box |e_i| <= r.  Absorbing
    one factor of (x_i^-1 y_j) adds `step`; x exponents only ever fall and
    y exponents only rise, so a term is dropped as soon as x_i < -r or
    y_j > r, and once every factor touching x_i is in, x_i is clipped to
    [-r, r].  Exact on that box."""
    field, width = table.field, VarTable.WIDTH
    for i in range(k):
        for j in range(ell):
            step = (1 << (width * (k + j))) - (1 << (width * i))
            new: dict[int, int] = {}
            get = new.get
            for key, c in terms.items():
                bound = min(field(key, i) + r, r - field(key, k + j))
                # the m-th term of the factor is (m + 1) (-x_i^-1 y_j)^m
                for m in range(bound + 1):
                    new[key] = get(key, 0) + c * (m + 1)
                    key += step
                    c = -c
            terms = {key: c for key, c in new.items() if c}
        terms = table.clip(terms, i, -r, r)
    return terms


def _check_table(table: VarTable, h) -> None:
    if len(table) != h.k + h.l:
        raise ValueError("polynomial table does not match the hook")


def constant_term_with_delta(f: LaurentPoly, h, slack: int = 0) -> int:
    """Exact constant term of f * Delta, with Delta expanded per the
    |x| > |y| ordering, inside windows widened by `slack` (the oracle).
    f is multiplied by the Delta numerator and every geometric factor is
    absorbed into the product, keeping the box |e_i| <= slack."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = f.table
    _check_table(table, h)
    if slack > VarTable.LIMIT:
        raise ValueError(f"slack {slack} is past the packing limit {VarTable.LIMIT}")
    clip, limit = table.clip, VarTable.LIMIT
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
    return _absorb(terms, table, k, ell, slack).get(table.zero_key, 0)


# hook -> (R, {packed key of -e: [x^e] Delta for |e_i| <= R})
_KERNELS: dict = {}


def _kernel(table: VarTable, h, reach: int) -> dict:
    """Delta's expansion on the box |e_i| <= reach, keyed so that f's key
    e finds [x^-e] Delta.  Built by one absorption of the Delta numerator
    and memoised per hook; a larger reach rebuilds it at exactly that
    reach.  A build costs about reach^(k+l-1), so callers that know their
    largest reach ask for it first (`reserve_kernel`).  ValueError past
    the packing limit."""
    hit = _KERNELS.get(h)
    if hit is not None and hit[0] >= reach:
        return hit[1]
    if reach > VarTable.LIMIT:
        raise ValueError(f"kernel reach {reach} is past the packing limit "
                         f"{VarTable.LIMIT}")
    terms = _absorb(delta_numerator(table, h)._packed, table, h.k, h.l, reach)
    for i in range(h.k, len(table)):
        terms = table.clip(terms, i, -reach, reach)
    twice_zero = 2 * table.zero_key
    kern = {twice_zero - key: c for key, c in terms.items()}
    _KERNELS[h] = (reach, kern)
    return kern


def reserve_kernel(h, reach: int) -> None:
    """Size the hook's kernel now for every integrand of reach up to
    `reach`, so that a series of integrals builds it once."""
    h = as_hook(h)
    _kernel(z_alphabets(h)[0], h, reach)


def constant_term_by_kernel(f: LaurentPoly, h) -> int:
    """Exact constant term of f * Delta as one dot product, sum_e f_e
    [x^-e] Delta, against the memoised kernel."""
    h = as_hook(h)
    _check_table(f.table, h)
    a, b = f._packed, _kernel(f.table, h, f.reach)
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(c * get(key, 0) for key, c in a.items())


def _over_k_l(total: int, h: Hook) -> int:
    return exact_quotient(total, factorial(h.k) * factorial(h.l),
                          "constant term over k! l! (expansion bug)")


def _integral(f: LaurentPoly, h) -> int:
    """(k! l!)^-1 x constant term of f * Delta by the kernel, which must be
    exact."""
    h = as_hook(h)
    return _over_k_l(constant_term_by_kernel(f, h), h)


def inner_product(f: LaurentPoly, g: LaurentPoly, h) -> int:
    """<f, g> = (k! l!)^-1 x constant term of f(X;Y) g(X^-1;Y^-1) Delta."""
    if f.table != g.table:
        raise ValueError("variable table mismatch")
    return _integral(f * g.invert_variables(), h)


def z_alphabets(h) -> tuple[VarTable, Alphabet, Alphabet]:
    """The monomial multisets Z0 = X X^-1 u Y Y^-1 (size k^2 + l^2,
    including k + l unit monomials) and Z1 = X Y^-1 u X^-1 Y (size 2kl).
    Built once per hook: (k, l) and Hook(k, l) share one entry."""
    return _z_alphabets(as_hook(h))


@lru_cache(maxsize=None)
def _z_alphabets(h: Hook) -> tuple[VarTable, Alphabet, Alphabet]:
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


def m_prime_residue(lam: Partition, h) -> int:
    """<HS_lam(Z0;Z1), 1> -- the integral form of the multiplicity jump."""
    return _integral(hs_on_z(lam, h), h)


def m_bar_prime_residue(lam: Partition, h) -> int:
    """Same integral with the extra factor sum_{z in Z0 u Z1} z, which is
    HS_(1)(Z0;Z1).  The product is never formed: HS_lam is paired with the
    kernel shifted by each distinct z, weighted by its multiplicity,
    sum_z sum_e f_e [x^-(e+z)] Delta, on a kernel of one more reach."""
    h = as_hook(h)
    f = hs_on_z(lam, h)
    table = f.table
    get = _kernel(table, h, f.reach + 1).get
    terms = f._packed.items()
    total = 0
    for z, w in hs_on_z((1,), h)._packed.items():
        shift = z - table.zero_key
        total += w * sum(c * get(key + shift, 0) for key, c in terms)
    return _over_k_l(total, h)
