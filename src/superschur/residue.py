"""Contour integrals as exact constant-term extraction.

The kernel Delta has numerator prod_{i!=j}(1 - x_i x_j^-1) (and the same
in y) and denominator prod_{i,j}(1 + x_i y_j^-1)(1 + x_i^-1 y_j).  The
contour ordering |x| > |y| is realized algebraically: each denominator
pair is rewritten as x_i^-1 y_j * sum_{m>=0} (m+1)(-x_i^-1 y_j)^m, so no
numeric radius exists anywhere.  Absorbing a factor only lowers x
exponents and raises y exponents, so its truncation is exact (below).

The constant term CT[f Delta] = sum_e f_e [x^-e] Delta is linear in f.
Every integral is therefore one dot product of f against Delta's
expansion (the kernel), built per hook by absorbing the factors into the
Delta numerator.  `constant_term_with_delta` keeps the per-integrand
expansion as the reference, inside windows widened by `slack`, the only
windows in the module; the tests check that the kernel agrees with it
for every slack.

Call the sum of the x exponents of a term its x-degree.  Every entry of
Delta has x-degree -kl - s after s geometric steps: the difference
products have x-degree 0, the prefactor prod x_i^-l prod y_j^k has -kl,
and each step x_i^-1 y_j lowers it by one.  So CT[f Delta] reads only the
terms of f of x-degree >= kl.  The bar integrals carry the extra factor
HS_(1)(Z0;Z1), the sum of the letters of Z0 and Z1.  The letters of Z0
have x-degree 0 and those of Z1 have +1 (x_i y_j^-1) or -1 (x_i^-1 y_j),
so with that factor f is read from x-degree kl - 1.  A series by the
Cauchy pairing (`cauchy_pairing`) draws its complete functions from
`hookschur.graded_homs` cut to the x-degrees some kernel entry can read.

The other way round, an f whose terms have x-degree <= T reads only the
entries with x-degree >= -T, T the kernel's top.  There is one kernel
builder (`_kernel`), keyed by (hook, bar).  With `bar` the factor
HS_(1) goes into the Delta numerator, since the constant term is linear
in it.  The absorption stops each term once its x-degree falls below -T,
its only cut.  The cut is exact, because steps only lower the x-degree.
It also bounds the box the entries reach (see `_kernel`), so no box cuts
a term.  A per-lam integral takes T from lam (`_hs_top`), not from f's
terms.  The kernel is memoised per (hook, bar) by its top alone; a
request above it rebuilds at the new top.  A series knows its largest
top before its first integral and sizes the kernel once.  Below kl - bar
the kernel is empty, and no integral builds a numerator, a Z alphabet or
a hook Schur function for it.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .hookschur import Alphabet, graded_homs, hook_schur_eval
from .laurent import LaurentPoly, VarTable, exact_quotient
from .partitions import Hook, Partition, as_hook, check_partition

def residue_table(h) -> VarTable:
    h = as_hook(h)
    return VarTable([f"x{i}" for i in range(1, h.k + 1)]
                    + [f"y{j}" for j in range(1, h.l + 1)])


@lru_cache(maxsize=None)
def delta_numerator(h) -> LaurentPoly:
    """Finite part of Delta after the geometric rewrite: the difference
    products times the monomial prefactor prod x_i^-l prod y_j^k.
    Memoised once per hook, as `z_alphabets` is: every kernel rebuilt for
    a larger top starts from it, and (k, l) and Hook(k, l) share one
    entry, since a Hook equals and hashes as its tuple."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = residue_table(h)
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


def _absorb(terms: dict, table: VarTable, k: int, ell: int, top: int) -> dict:
    """Packed terms times every geometric factor, grouped by x index then
    y index, keeping only what stays at x-degree >= -top.  Absorbing one
    factor of (x_i^-1 y_j) adds `step` and lowers the x-degree by one, so
    a term is dropped as soon as its x-degree falls below -top: that cut
    is the only one, and it is exact.  Each term carries top plus its
    x-degree, the steps it may still take, in a field above its
    exponents, which every step lowers by one."""
    width = VarTable.WIDTH
    above = width * len(table)
    terms = {key + (left << above): c for key, c in terms.items()
             if (left := top + _x_degree(table, key, k)) >= 0}
    for i in range(k):
        for j in range(ell):
            step = (1 << (width * (k + j))) - (1 << (width * i)) - (1 << above)
            new: dict[int, int] = {}
            get = new.get
            for key, c in terms.items():
                # the m-th term of the factor is (m + 1) (-x_i^-1 y_j)^m
                for m in range((key >> above) + 1):
                    new[key] = get(key, 0) + c * (m + 1)
                    key += step
                    c = -c
            terms = {key: c for key, c in new.items() if c}
    exponents = (1 << above) - 1
    return {key & exponents: c for key, c in terms.items()}


def _x_degree(table: VarTable, key: int, k: int) -> int:
    """The sum of the x exponents of a packed key."""
    return sum(table.field(key, i) for i in range(k))


def _x_top(f: LaurentPoly, k: int) -> int:
    """The largest x-degree among f's terms (0 for f = 0), summed once per
    distinct x part: the x fields are the low ones."""
    table, low = f.table, (1 << (VarTable.WIDTH * k)) - 1
    xs = {key & low for key in f._packed}
    return max((_x_degree(table, key, k) for key in xs), default=0)


def _check_table(table: VarTable, h) -> None:
    if table != residue_table(h):
        raise ValueError("polynomial table does not match the hook")


def constant_term_with_delta(f: LaurentPoly, h, slack: int = 0) -> int:
    """Exact constant term of f * Delta, with Delta expanded per the
    |x| > |y| ordering, inside windows widened by `slack` (the oracle).
    f is multiplied by the Delta numerator, the product is clipped to
    x_i >= -slack and y_j <= slack, and every geometric factor is absorbed
    into it down to x-degree -k slack."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = f.table
    _check_table(table, h)
    clip, limit = table.clip, VarTable.LIMIT
    num = delta_numerator(h)
    # a term takes at most k slack plus its x-degree steps, each moving
    # one x and one y exponent by one
    reach = f.reach + num.reach
    if (k + 1) * reach + k * slack > limit:
        raise ValueError(f"slack {slack} on exponents up to {reach} is past "
                         f"the packing limit {limit}")
    # x exponents only ever decrease, y only increase: a term must reach
    # x_i >= -slack and y_j <= slack after num
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
    return _absorb(terms, table, k, ell, k * slack).get(table.zero_key, 0)


# (hook, bar) -> (T, {packed key of -e: [x^e] HS_(1)^bar Delta for
# x-degree(-e) <= T})
_KERNELS: dict = {}


def _kernel(h: Hook, top: int, bar: bool = False) -> dict:
    """Delta's expansion, times the bar factor HS_(1)(Z0;Z1) when `bar`,
    cut to the keys of x-degree <= top, keyed so that f's key e finds
    [x^-e] HS_(1)^bar Delta.  An integrand whose terms have x-degree <= top
    reads nothing else.  The constant term is linear in the numerator, so
    the bar factor goes into it, and only its letters of x-degree
    >= kl - top: the numerator has x-degree -kl, and the other letters put
    every term below -top.  One absorption stops each term once its
    x-degree falls below -top, its only cut.  The cut is exact, because
    every geometric step lowers the x-degree by one.  No box cuts a term:
    a kept entry took at most top - kl + bar steps from a numerator within
    k + l - 1 + bar, and only a letter of x-degree +1 buys the extra step,
    which moves no exponent outward, so it lies in the box
    k + l - 1 + top - kl + bar.  Below kl - bar the kernel is empty,
    whatever the memo holds, and no numerator is built.  Memoised per
    (hook, bar) by its top; a request above it rebuilds at the new top.
    ValueError past the packing limit, which with k, l >= 1 bounds every
    exponent too."""
    if top + bar > VarTable.LIMIT:
        what = f"{top + bar}, counting the bar letter," if bar else top
        raise ValueError(f"kernel top {what} is past the packing limit "
                         f"{VarTable.LIMIT}")
    kl = h.k * h.l
    if top < kl - bar:
        return {}
    hit = _KERNELS.get((h, bar))
    if hit is not None and hit[0] >= top:
        return hit[1]
    num = delta_numerator(h)
    table = num.table
    if bar:
        z0, z1 = z_alphabets(h)
        num = num * Alphabet(table, [z for z in z0.monos + z1.monos
                                     if sum(z[:h.k]) >= kl - top]).sum_poly()
    terms = _absorb(num._packed, table, h.k, h.l, top)
    twice_zero = 2 * table.zero_key
    kern = {twice_zero - key: c for key, c in terms.items()}
    _KERNELS[h, bar] = (top, kern)
    return kern


def _dot(a: dict, b: dict) -> int:
    """sum_key a[key] b[key] over packed terms, looked up from the larger."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(c * get(key, 0) for key, c in a.items())


def constant_term_by_kernel(f: LaurentPoly, h) -> int:
    """Exact constant term of f * Delta as one dot product, sum_e f_e
    [x^-e] Delta, against the memoised kernel cut to the largest x-degree
    among f's terms."""
    h = as_hook(h)
    _check_table(f.table, h)
    return _dot(f._packed, _kernel(h, _x_top(f, h.k)))


def _over_k_l(total: int, h: Hook) -> int:
    return exact_quotient(total, factorial(h.k) * factorial(h.l),
                          "constant term over k! l! (expansion bug)")


def inner_product(f: LaurentPoly, g: LaurentPoly, h) -> int:
    """<f, g> = (k! l!)^-1 CT[f(X;Y) g(X^-1;Y^-1) Delta], by the kernel."""
    h = as_hook(h)
    return _over_k_l(constant_term_by_kernel(f * g.invert_variables(), h), h)


@lru_cache(maxsize=None)
def z_alphabets(h) -> tuple[Alphabet, Alphabet]:
    """The monomial multisets Z0 = X X^-1 u Y Y^-1 (size k^2 + l^2,
    including k + l unit monomials) and Z1 = X Y^-1 u X^-1 Y (size 2kl).
    Built once per hook: (k, l) and Hook(k, l) share one entry, since a
    Hook equals and hashes as its tuple."""
    h = as_hook(h)
    k, ell = h.k, h.l
    table = residue_table(h)
    n = len(table)

    def mono(up: int = None, down: int = None) -> tuple:
        e = [0] * n
        if up is not None:
            e[up] += 1
        if down is not None:
            e[down] -= 1
        return tuple(e)

    z0 = [mono(i, j) for i in range(k) for j in range(k)]
    z0 += [mono(k + i, k + j) for i in range(ell) for j in range(ell)]
    z1 = [mono(i, k + j) for i in range(k) for j in range(ell)]
    z1 += [mono(k + j, i) for i in range(k) for j in range(ell)]
    return Alphabet(table, z0), Alphabet(table, z1)


def hs_on_z(lam: Partition, h) -> LaurentPoly:
    """HS_lam(Z0;Z1) as a Laurent polynomial in the hook's variables; h is
    a Hook or any (k, l) pair."""
    return hook_schur_eval(lam, *z_alphabets(as_hook(h)))


def _hs_top(lam: Partition, h: Hook) -> int:
    """A bound on the x-degree of HS_lam(Z0;Z1), read off lam rather than
    summed over its terms: a row of a tableau holds each letter of Z1 at
    most once, kl of them carry +1, and every other letter at most 0."""
    kl = h.k * h.l
    return sum(min(part, kl) for part in lam)


def _jump(lam: Partition, h, bar: bool) -> int:
    """(k! l!)^-1 sum_e HS_lam(Z0;Z1)_e kernel[e], with the kernel (times
    the bar factor when `bar`) cut at `_hs_top` and fetched first: an
    empty one makes the value 0, so neither HS_lam nor the Z alphabets
    are built unless some entry can read them.  Zero parts of lam are
    dropped; ValueError naming lam if the rest is not a partition."""
    lam = check_partition(p for p in lam if p)
    h = as_hook(h)
    kern = _kernel(h, _hs_top(lam, h), bar)
    return _over_k_l(_dot(hs_on_z(lam, h)._packed, kern), h) if kern else 0


def m_prime_residue(lam: Partition, h) -> int:
    """<HS_lam(Z0;Z1), 1> -- the integral form of the multiplicity jump:
    one dot product of HS_lam against the kernel, cut at `_hs_top`, and 0
    without HS_lam when that top is below kl."""
    return _jump(lam, h, False)


def m_bar_prime_residue(lam: Partition, h) -> int:
    """Same integral with the extra factor sum_{z in Z0 u Z1} z, which is
    HS_(1)(Z0;Z1): one dot product of HS_lam against the kernel whose
    numerator carries that factor, cut at `_hs_top`, so the product with
    HS_lam is never formed, and 0 without HS_lam when that top is below
    kl - 1."""
    return _jump(lam, h, True)


def cauchy_pairing(h, n: int, m: int, D: int, bar: bool,
                   part_one: bool = False):
    """Yield (alpha + beta, <prod_i h_alpha_i(Z0;Z1) prod_j h_beta_j(Z1;Z0),
    1>) for the nonzero values, with the bar factor HS_(1)(Z0;Z1) inside
    the integral when `bar`, over the alpha of n and beta of m parts,
    each sorted descending, with |alpha| + |beta| <= D; with `part_one`,
    over the alpha with a part 1 alone.

    By the super Cauchy identity (Berele-Regev; Macdonald I.4), sum_lam
    HS_lam(Z0;Z1) HS_lam(T;U) = prod_t sum_d h_d(Z0;Z1) t^d prod_u sum_d
    h_d(Z1;Z0) u^d, so this is the coefficient of t^alpha u^beta in the
    series of the jump (`bar`: of the bar jump); both sides are symmetric
    within T and within U.  The prefix products are kept along a
    depth-first walk over the sorted exponents, and the last factor is
    paired with the kernel without forming the product.  The kernel reads
    x-degree >= need = kl (kl - 1 with the bar factor), h_d(Z0;Z1) carries
    at most kl and h_d(Z1;Z0) at most d, so each factor needs its
    x-degrees >= need less what the other factors can carry, and a prefix
    its x-degrees >= need less what the factors still to come can carry.
    So a product carries at most top = min(D, kl n) with no U factor, and
    D with one.  The kernel, with the bar factor in its numerator when
    `bar`, is fetched first and once, at that top, which bounds its box
    too.  Below need it is empty, and the walk ends before any Z alphabet
    or complete function is built.  A part 1 of a sorted alpha is its last
    nonzero part, so with `part_one` the walk leaves every alpha whose T
    block closes, or can no longer close, without a 1, before its product
    or pairing is formed."""
    h = as_hook(h)
    kl = h.k * h.l
    need = kl - bar
    top = D if m else min(D, kl * n)
    kern = _kernel(h, top, bar)
    if not kern or part_one and not n:
        return
    width = n + m
    # floors: need less kl per other T factor, less D with another U factor
    t_floor = need - kl * (n - 1) - (D if m else 0)
    u_floor = need - kl * n - (D if m > 1 else 0)
    z0, z1 = z_alphabets(h)
    table = z0.table
    cols = [graded_homs(z0, z1, h.k, t_floor, D) if n else None,
            graded_homs(z1, z0, h.k, u_floor, D) if m else None]
    zero_key = table.zero_key
    get = kern.get

    def pair(F: dict, G: dict) -> int:
        total = 0
        for ga, f in F.items():
            for gb, g in G.items():
                if ga + gb < need:
                    continue
                a, b = f._packed, g._packed
                if len(a) > len(b):
                    a, b = b, a
                for ka, ca in a.items():
                    ka -= zero_key
                    total += ca * sum(cb * get(ka + kb, 0) for kb, cb in b.items())
        return total

    def times(F: dict, G: dict, low: int) -> dict:
        # every bucket has only positive coefficients, so no sum or
        # product of them is empty
        out: dict = {}
        for ga, f in F.items():
            for gb, g in G.items():
                grade = ga + gb
                if grade >= low:
                    out[grade] = out[grade] + f * g if grade in out else f * g
        return out

    def walk(p: int, exps: tuple, left: int, prefix: dict):
        top = left if p in (0, n) else min(left, exps[-1])
        col = cols[p >= n]
        # the factors after this one carry at most `rest` with a U factor
        # among them, else kl per T factor
        t_after, u_after = max(n - p - 1, 0), width - max(p + 1, n)
        for e in range(top + 1):
            # a zero ends its sorted block: the walk jumps past the zeros
            # after it, each a factor h_0 = 1, so it nests one frame per
            # nonzero exponent, not one per variable
            q = p + 1 if e else (n if p < n else width)
            # with part_one, leave a T block that closes after no 1, or
            # that can no longer hold one after e > 1
            if part_one and p < n and (
                    (p == 0 or exps[-1] != 1) if e == 0
                    else e > 1 and (q == n or e == left)):
                continue
            exps_e = exps + (e,) + (0,) * (q - p - 1)
            if q == width:
                value = pair(prefix, col[e])
                if value:
                    yield exps_e, _over_k_l(value, h)
                continue
            rest = left - e
            carry = rest if u_after else min(rest, kl * t_after)
            prefix_e = times(prefix, col[e], need - carry) if e else prefix
            if prefix_e:
                yield from walk(q, exps_e, rest, prefix_e)

    yield from walk(0, (), D, {0: LaurentPoly.const(table, 1)})
