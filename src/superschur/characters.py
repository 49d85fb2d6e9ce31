"""Symmetric-group characters, Kronecker coefficients, and the tensor
multiplicities summed over a hook.

Characters are built a whole column at a time by the Murnaghan–Nakayama
rule read in the adding direction: p_rho = sum_lam chi^lam(rho) s_lam,
multiplying in one p_r at a time, and p_r s_mu adds every border strip of
size r to mu with sign (-1)^(height - 1) (Macdonald, Symmetric Functions
and Hall Polynomials, I.7).  A column is a dict {beta-set bitmask of lam:
chi^lam(rho)} of the nonzero values; the column of rho extends that of
rho without its largest part, a suffix of rho and so a class of a smaller
S_n, by strips of size rho_1.  The column extended is then the smallest
one available, of size n - rho_1, and one memo serves every n; so does
the memo of the r-strips on each shape, one row per (r, shape), which
holds the shapes at the other end of a strip as (plus, minus) tuples of
masks split by the strip's sign.  Each multiplicity mode is one class
function V of S_N (`class_weights`), built from the hook weight w_h(rho)
= |C_rho| sum_{mu in h, |mu| = n} chi^mu(rho)^2, which is computed once
per (n, h) without the column of rho: each chi^mu(rho) is read in the
removal direction, a signed sum over the mu less one rho_1-strip in the
column of rho[1:] (`_pull_row`, the transpose of the adding row, built
afresh for each weight table), and the sum runs over the smaller of h
and its complement, since sum_{all mu} chi^mu(rho)^2 = n!/|C_rho|
(column orthogonality).  As chi^{mu'} = +-chi^mu, where mu' is the
conjugate shape, a pair {mu, mu'} of that set is read once and counted
twice; conjugation maps H(k, l) onto H(l, k), so w_(k,l) = w_(l,k) and
one memo entry serves both orders of a hook.  So a series through
degree n needs only the columns of the classes rho[1:], the sigma with
|sigma| + sigma_1 <= n.  The bar modes, and a series slice linear in one
variable, read only the classes with a part 1, and weigh only those.
A multiplicity is one inner product, (1/(N + b)!) sum_rho chi^lam(rho)
V(rho) with b = 1 for the bar modes, and the Poincare series reads the
same V against power sums.
Every memo of this module lives in `default_cache()`.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial

from .laurent import VarTable, exact_quotient
from .partitions import (Hook, Partition, as_hook, check_partition, conjugate,
                         partitions_of)


class _Memo:
    """In-process memo of the character data: columns, strip rows, class
    sizes, hook weights and Kronecker coefficients.

    Not safe for concurrent mutation; each worker process has its own.
    """

    def __init__(self):
        self.chi: dict[tuple, dict[int, int]] = {}
        self.kron: dict[tuple, int] = {}
        self.strips: dict[int, dict[int, tuple]] = {}
        self.sizes: dict[tuple, int] = {}
        self.weights: dict[tuple, dict] = {}


_MEMO = _Memo()
_ZEROS = repeat(0)  # map(col.get, keys, _ZEROS) reads absent keys as 0


def default_cache() -> _Memo:
    return _MEMO


def _mask(lam: Partition) -> int:
    """Beta-set of lam, a partition with no zero part, with |lam| beads,
    as a bitmask: bead i sits at lam_i + |lam| - i for i = 1..|lam|, the
    missing parts read as 0.
    ValueError past VarTable.LIMIT, before any shift: no character table
    of S_n that large can be enumerated, and the same limit caps series
    degrees."""
    n = sum(lam)
    if n > VarTable.LIMIT:
        raise ValueError(f"partition {lam} has size {n}, past the limit "
                         f"{VarTable.LIMIT} of a character table")
    mask = (1 << (n - len(lam))) - 1
    for i, p in enumerate(lam):
        mask |= 1 << (p + n - 1 - i)
    return mask


def _column(rho: Partition) -> dict[int, int]:
    """{_mask(lam): chi^lam(rho)} over the lam with a nonzero value, grown
    from the column of rho[1:] by strips of size rho[0]."""
    col = _MEMO.chi.get(rho)
    if col is None:
        col = _add_strips(_column(rho[1:]), rho[0]) if rho else {0: 1}
        _MEMO.chi[rho] = col
    return col


def _add_strips(prev: dict[int, int], r: int) -> dict[int, int]:
    rows = _MEMO.strips.setdefault(r, {})
    col: dict[int, int] = {}
    get = col.get
    for mask, c in prev.items():
        plus, minus = rows.get(mask) or rows.setdefault(mask, _strip_row(mask, r))
        for key in plus:
            col[key] = get(key, 0) + c
        for key in minus:
            col[key] = get(key, 0) - c
    # a copy holds the nonzero values in no more space than they need
    return {key: c for key, c in col.items() if c} if 0 in col.values() else col


def _strip_row(mask: int, r: int) -> tuple:
    """(plus, minus): the masks of the shapes that add an r-strip to that
    of `mask`, split by the sign (-1)^(height - 1) of the strip."""
    # r more low beads keep the bead count equal to the size; moving a bead
    # from b to an empty b + r adds an r-strip whose height is one more
    # than the number of beads strictly between
    between = (1 << r - 1) - 1
    beads = (mask << r) | (1 << r) - 1
    movable = beads & ~(beads >> r)  # beads b with b + r empty
    plus, minus = [], []
    while movable:
        bit = movable & -movable
        movable ^= bit
        key = beads ^ bit ^ (bit << r)
        odd = ((beads >> bit.bit_length()) & between).bit_count() & 1
        (minus if odd else plus).append(key)
    return tuple(plus), tuple(minus)


def _cycle_type(rho) -> Partition:
    """rho's nonzero parts, descending; ValueError naming rho unless every
    part is a nonnegative integer."""
    if not all(isinstance(r, int) and r >= 0 for r in rho):
        raise ValueError(f"cycle lengths must be nonnegative integers: {rho}")
    return tuple(sorted((r for r in rho if r), reverse=True))


def mn_character(lam: Partition, rho: Partition) -> int:
    """chi^lam evaluated at the class of cycle type rho, exactly: one
    lookup in the memoised column of rho.  Zero parts of lam or rho are
    ignored, and rho may come in any order; ValueError naming lam or rho
    if the rest is not a partition."""
    cycles = _cycle_type(rho)
    if sum(lam) != sum(cycles):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    return _column(cycles).get(_mask(check_partition(p for p in lam if p)), 0)


def class_size(rho: Partition) -> int:
    """Conjugacy class size in S_n for cycle type rho: n!/prod(i^a_i a_i!).
    rho is read, or refused by name, as by `mn_character`."""
    return _class_size(_cycle_type(rho))


def _class_size(rho: Partition) -> int:
    """n!/prod(i^a_i a_i!) for a partition rho of n, taken as given."""
    denom = 1
    for i in set(rho):
        a = rho.count(i)
        denom *= i ** a * factorial(a)
    return factorial(sum(rho)) // denom


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient: multiplicity of chi^lam in chi^mu (x) chi^nu.
    Zero parts are ignored; ValueError naming lam, mu or nu if the rest is
    not a partition."""
    key = tuple(check_partition(p for p in s if p) for s in (lam, mu, nu))
    n = sum(key[0])
    if sum(key[1]) != n or sum(key[2]) != n:
        raise ValueError("partitions must have equal size")
    hit = _MEMO.kron.get(key)
    if hit is not None:
        return hit
    masks = tuple(map(_mask, key))
    total = 0
    for rho in partitions_of(n):
        col = _column(rho)
        a, b, c = (col.get(m, 0) for m in masks)
        total += _class_size(rho) * a * b * c
    g = exact_quotient(total, factorial(n), "class sum for a Kronecker coefficient")
    _MEMO.kron[key] = g
    return g


def _pull_row(mask: int, r: int) -> tuple:
    """(plus, minus): the masks of the shapes that lose an r-strip from
    that of `mask`, split by the sign (-1)^(height - 1) of the strip.  The
    transpose of `_strip_row`: Murnaghan-Nakayama in the removal direction."""
    # moving a bead from b to an empty b - r removes an r-strip whose height
    # is one more than the number of beads strictly between; the shape left
    # has r beads too many, all at 0..r-1, so shifting them out keeps the
    # bead count equal to the size
    between = (1 << r - 1) - 1
    movable = mask & ~(mask << r) & -(1 << r)  # beads b >= r with b - r empty
    plus, minus = [], []
    while movable:
        bit = movable & -movable
        movable ^= bit
        key = (mask ^ bit ^ bit >> r) >> r
        odd = ((mask >> bit.bit_length() - r) & between).bit_count() & 1
        (minus if odd else plus).append(key)
    return tuple(plus), tuple(minus)


class _PartOneWeights(dict):
    """A hook weight table over the classes with a part 1 alone."""

    __slots__ = ()


def _hook_weights(n: int, h: Hook, part_one: bool = False) -> dict:
    """{rho: w_h(rho)} over the classes of S_n with a nonzero weight
    w_h(rho) = |C_rho| sum_{mu in h, |mu| = n} chi^mu(rho)^2; with
    `part_one`, over at least the classes with a part 1, those that a bar
    mode or a slice linear in one variable reads.

    The sum runs over the smaller of h and its complement: by column
    orthogonality sum_{all mu} chi^mu(rho)^2 = n!/|C_rho|, so w_h(rho) =
    n! - |C_rho| sum_{mu not in h} chi^mu(rho)^2.  Since chi^{mu'} =
    +-chi^mu, a pair {mu, mu'} of the set is read once and counted twice.
    Each chi^mu(rho) is pulled from the column of rho[1:] by `_pull_row`,
    so the column of rho is never built, and that of rho[1:] is read only
    when some shape of the set has a rho_1-strip to lose: never when the
    set is empty.  Conjugation maps H(k, l) onto H(l, k), so w_(k,l) =
    w_(l,k): the memo holds one table per (n, unordered hook).  A part-1
    request is served by whichever table it holds; a full request only
    by a full table, and the full table it builds takes the entry."""
    key = (n, h) if h.k >= h.l else (n, Hook(h.l, h.k))
    hit = _MEMO.weights.get(key)
    if hit is not None and (part_one or not isinstance(hit, _PartOneWeights)):
        return hit
    shapes = partitions_of(n)
    inside = [len(mu) <= h.k or mu[h.k] <= h.l for mu in shapes]
    complement = 2 * sum(inside) > len(shapes)
    count = {}  # {mu: 2 where mu' != mu is also summed, 1 otherwise}
    for mu, flag in zip(shapes, inside):
        if flag != complement:
            nu = conjugate(mu)
            if nu in count:
                count[nu] = 2
            else:
                count[mu] = 1
    masks = list(map(_mask, count))
    full = factorial(n)
    sizes = _MEMO.sizes
    weights = _PartOneWeights() if part_one else {}
    rows_of = {}
    for rho in shapes:
        if part_one and rho[-1:] != (1,):
            continue
        r = rho[0] if rho else 0  # S_0 sums over its empty complement: no rows
        rows = rows_of.get(r)
        if rows is None:
            # a shape with no r-strip to lose has chi = 0 on every such class
            rows = rows_of[r] = [(plus, minus, m) for (plus, minus), m in
                                 zip(map(_pull_row, masks, repeat(r)), count.values())
                                 if plus or minus]
        w = 0
        if rows:
            get = _column(rho[1:]).get
            for plus, minus, m in rows:
                c = sum(map(get, plus, _ZEROS))
                if minus:
                    c -= sum(map(get, minus, _ZEROS))
                w += m * c * c
            w *= sizes.get(rho) or sizes.setdefault(rho, _class_size(rho))
        if complement:
            w = full - w
        if w:
            weights[rho] = w
    _MEMO.weights[key] = weights
    return weights


def class_weights(mode: str, h: Hook, N: int, part_one: bool = False) -> dict:
    """The class function of a multiplicity mode: {rho |- N: V(rho)} over
    the nonzero values, read-only, such that sum_{lam |- N} mult(lam) s_lam
    = (1/(N + b)!) sum_rho V(rho) p_rho, with b = 1 for the bar modes.
    With `part_one` the table holds at least the classes with a part 1,
    which are all that the T exponents 1 of sum_rho V(rho) p_rho(T;U) read.

    V is w_h, less w_{h.shrink()} for a jump when min(k, l) > 0.  The bar
    modes restrict one S_n level down, s_1^perp = d/dp_1 (the branching
    rule), so V(rho) = m_1(rho + 1) W(rho + 1), where rho + 1 is rho with
    one more part 1 and W is the weight of the mode without its bar: they
    always ask for the weights of the classes with a part 1 alone.
    Where V is w_h itself it is the memoised table of `_hook_weights`,
    not a copy.
    The weights read the columns of the classes rho[1:] of S_{N+b}, never
    the column of a class of S_{N+b} itself (`_hook_weights`)."""
    bar = mode.startswith("bar")
    part_one = part_one or bar
    weights = _hook_weights(N + bar, h, part_one)
    if mode.endswith("prime") and min(h.k, h.l) > 0:
        # both weights are sums of squares and H(k-1, l-1) lies in H(k, l),
        # so the smaller hook's weight vanishes wherever w_h does; either
        # table may be the full one when part_one is asked for, so only
        # the classes with a part 1 are kept then
        small = _hook_weights(N + bar, h.shrink(), part_one)
        weights = {rho: v for rho, w in weights.items()
                   if (v := w - small.get(rho, 0))
                   and (not part_one or rho[-1:] == (1,))}
    if bar:
        # m_1(rho + 1) >= 1, so no value of W vanishes here; a part-1
        # request may be served by a full table, whose other classes go
        weights = {rho[:-1]: rho.count(1) * w for rho, w in weights.items()
                   if rho[-1] == 1}
    return weights


def char_multiplicity(mode: str, lam: Partition, h) -> int:
    """The multiplicity of lam that `mode` names, as a character sum:
    (1/(|lam| + b)!) sum_rho chi^lam(rho) V(rho) with V = `class_weights`.
    Zero parts of lam are dropped; ValueError naming lam if the rest is
    not a partition."""
    lam = check_partition(p for p in lam if p)
    N = sum(lam)
    mask = _mask(lam)
    total = sum(_column(rho).get(mask, 0) * v
                for rho, v in class_weights(mode, as_hook(h), N).items())
    return exact_quotient(total, factorial(N + mode.startswith("bar")),
                          "class sum for a hook multiplicity")


def m_lambda(lam: Partition, h) -> int:
    """Sum of gamma^lam_{mu,mu} over mu of the same size in the hook."""
    return char_multiplicity("plain", lam, h)


def m_bar_lambda(lam: Partition, h) -> int:
    """Multiplicity after restricting the hook tensor sum down one S_n
    level: by the branching rule, the sum of m_lambda over all one-box
    extensions of lam."""
    return char_multiplicity("bar", lam, h)
