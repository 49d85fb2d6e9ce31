"""Poincare series assembled from multiplicities, and the headline
verifications: the residue/character agreement for the multiplicity jump,
the diagonal summation identities, and the derivative relations linking
the invariant and concomitant series.

A series whose multiplicities are character sums is assembled by power
sums, with no per-lam term: each mode's multiplicity is (1/(N+b)!)
sum_rho chi^lam(rho) V(rho) for the one class function V of
`characters.class_weights`, and sum_lam chi^lam(rho) s_lam = p_rho
(Macdonald, Symmetric Functions and Hall Polynomials, I.7), so the
degree-N part of sum_lam mult(lam) HS_lam(T;U) is (1/(N+b)!) sum_{rho |- N}
V(rho) p_rho(T;U), with the super power sums p_r(T;U) = sum t^r +
(-1)^(r-1) sum u^r, summed over the classes in Horner form on sorted
monomials (`_class_sums`).  The residue jumps are the paper's integral
of a generating function against Delta: by the super Cauchy identity the
coefficient of t^alpha u^beta is one integral of a product of complete
functions (`residue.cauchy_pairing`), taken for the alpha and beta sorted
within their blocks.  Either route gives one stream of values at the
exponents sorted within each block (`_sorted_series`): `p_series`
spreads it over the orderings of both blocks, and the derivative check
takes its slice from the stream before anything is spread, asking only
for the exponents whose T block has a part 1.  What does
not depend on V is built once per process: the walk's monomial
numbering and move rows once per variable split (`_WALKS`), the packed
orderings of a sorted block once per block.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from math import factorial

from .characters import char_multiplicity, class_weights
from .laurent import LaurentPoly, VarTable, exact_quotient
from .partitions import Hook, Partition, as_hook, enumerate_partitions
from .residue import cauchy_pairing, m_bar_prime_residue, m_prime_residue

MODES = ("plain", "prime", "bar", "bar_prime")
ROUTES = ("residue", "char")
_WALKS: dict[tuple, tuple] = {}  # the tables of `_class_sums` per split (n, width)


def series_table(n: int, m: int) -> VarTable:
    return VarTable([f"t{i}" for i in range(1, n + 1)]
                    + [f"u{j}" for j in range(1, m + 1)])


def _is_char_sum(mode: str, route: str) -> bool:
    """The one route rule, after checking both choices: `plain` and `bar`,
    and every mode on the "char" route, are character sums; `prime` and
    `bar_prime` on the "residue" route are residue integrals."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    return mode in ("plain", "bar") or route == "char"


def multiplicity(mode: str, lam: Partition, h, route: str = "residue") -> int:
    """The multiplicity of lam in the hook h that `mode` names.

    `plain` and `bar` are character sums on either route.  The jumps
    `prime` and `bar_prime` against the next smaller hook take the route:
    "residue" is the constant-term integral, "char" the character sum.
    Every character sum is `characters.char_multiplicity`.
    """
    char = _is_char_sum(mode, route)
    h = as_hook(h)
    if char:
        return char_multiplicity(mode, lam, h)
    return m_prime_residue(lam, h) if mode == "prime" \
        else m_bar_prime_residue(lam, h)


def p_series(mode: str, h, n: int, m: int, D: int,
             route: str = "residue") -> LaurentPoly:
    """Sum over |lam| <= D of multiplicity(lam) * HS_lam(t_1..t_n; u_1..u_m).

    The series is symmetric within T and within U, so it is assembled
    from its values at the exponents sorted within each block
    (`_sorted_series`), each spread over its orderings (`_spread`).
    All sums are finite and exact.
    """
    values = _sorted_series(mode, h, n, m, D, route)
    return _spread(series_table(n, m), n, D, values)


def _sorted_series(mode: str, h, n: int, m: int, D: int, route: str,
                   part_one: bool = False):
    """The coefficients of `p_series` at the exponent vectors sorted
    descending within the T block (the first n) and the U block, as
    (exponents, value) over the nonzero values; with `part_one`, only
    those whose T block has a part 1, all that a slice linear in one T
    variable reads.

    The character sums (`_is_char_sum`) are assembled by power sums from
    the mode's one class function (`_frobenius_series`).  The residue
    jumps take one integral per sorted monomial of T and of U by the
    Cauchy pairing (`residue.cauchy_pairing`), with no term per lam.
    A monomial of p_rho(T;U) = prod_i p_rho_i(T;U) puts each part of rho
    on one variable, so it has a T exponent 1 only if rho has a part 1:
    with `part_one` the class sums read only those classes, and the
    pairing skips every other alpha.
    The arguments are checked before anything is built.
    """
    h = as_hook(h)
    char = _is_char_sum(mode, route)
    if n < 0 or m < 0:
        raise ValueError("series variable counts must be nonnegative, "
                         f"got n={n}, m={m}")
    if n + m < 1:
        raise ValueError("need at least one series variable")
    if D < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {D}")
    if D > VarTable.LIMIT:
        raise ValueError(f"truncation degree {D} is past the packing limit "
                         f"{VarTable.LIMIT}")
    if char:
        return _frobenius_series(mode, h, n, n + m, D, part_one)
    return cauchy_pairing(h, n, m, D, mode == "bar_prime", part_one)


def _frobenius_series(mode: str, h: Hook, n: int, width: int, D: int,
                      part_one: bool = False):
    """The sorted values of a character-sum mode through degree D by power
    sums: (1/(N+b)!) sum_{rho |- N} V(rho) p_rho(T;U) in each degree N,
    with V from `class_weights` and the first n of `width` variables as T
    and the rest as U; with `part_one`, only at the monomials with a T
    exponent 1, summed over the classes with a part 1 alone.  The class
    sums come from `_class_sums` on sorted monomials; each is divided by
    (N+b)! exactly as it is drawn."""
    weights = [class_weights(mode, h, N, part_one) for N in range(D + 1)]
    monos, sums = _class_sums(weights, n, width, part_one)
    b = mode.startswith("bar")
    return ((monos[k], exact_quotient(c, factorial(N + b),
                                      "class sum for a Poincare coefficient"))
            for N, acc in enumerate(sums) for k, c in acc.items() if c)


def _spread(table: VarTable, n: int, D: int, values) -> LaurentPoly:
    """The symmetric series through degree D whose coefficient at each
    exponent vector e, sorted within its T block (the first n variables of
    `table`) and its U block, is the value given with it; each value is
    spread over the distinct orderings of both blocks, straight into
    packed keys."""
    zero_key = table.zero_key
    terms = {}
    for e, c in values:
        uks = _packed_orderings(e[n:], n)
        for tk in _packed_orderings(e[:n], 0):
            for uk in uks:
                terms[zero_key + tk + uk] = c
    return LaurentPoly._from_packed(table, terms, D)


def _class_sums(weights: list, n: int, width: int,
                part_one: bool = False) -> tuple[list, list]:
    """(monos, sums): sums[N] = {id: sum_{rho |- N} weights[N][rho] times
    the coefficient of monos[id] in p_rho(T;U)}, through the last N with a
    nonzero weight, with T the first n of `width` variables; with
    `part_one`, only at the monomials with a T exponent 1, and only the
    classes with a part 1 are read.

    The walk visits the classes post-order on its own stack and sums in
    Horner form, A(sigma) = V(sigma) + sum_{r >= sigma_1} p_r A((r,) +
    sigma), which is V(rho) p_rho / p_sigma summed over the classes rho
    that end in sigma: one product per class, and A(()) split by degree at
    the end.  A class (r,) + sigma with |sigma| + 2r past the top has no
    part to put in front: its A is V at the zero monomial, added times p_r
    into the sum of sigma with no frame of its own.  With `part_one` the walk stays
    under the class (1,), whose subtree holds the classes with a part 1;
    A(()) then also has partial sums at monomials with no T exponent 1,
    which are dropped, never divided.  Each A is symmetric in T and in U,
    so it is held by its monomials sorted descending within each block,
    numbered in the order they are met.  Multiplying by p_r moves one
    distinct value v of a block to v + r (`_move_row`).  The numbering and
    the move rows depend on the split (n, width) alone, not on the
    weights, so they are kept in `_WALKS`, one entry per split, shared by
    every series on it and extended to a larger degree on demand."""
    top = max((N for N, v in enumerate(weights) if v), default=0)
    walk = _WALKS.get((n, width))
    if walk is None:
        monos = [(0,) * width]
        walk = _WALKS[n, width] = monos, {monos[0]: 0}, []
    monos, ids, moves = walk  # moves[r][id]: (target, factor, ...)
    moves += ({} for _ in range(len(moves), top + 1))

    # [sigma, |sigma|, A(sigma) so far, next part r to put in front]
    w = weights[0].get(())
    stack = [[(), 0, {0: w} if w else {}, 1]]
    if part_one and top:
        stack[0][3] = top + 1  # the root puts no part in front but the 1
        w = weights[1].get((1,))
        stack.append([(1,), 1, {0: w} if w else {}, 1])
    while True:
        frame = stack[-1]
        sigma, size, acc, r = frame
        if size + 2 * r <= top:
            frame[3] = r + 1
            rho = (r,) + sigma
            w = weights[size + r].get(rho)
            stack.append([rho, size + r, {0: w} if w else {}, r])
            continue
        get = acc.get
        for r in range(r, top - size + 1):  # the leaves (r,) + sigma
            w = weights[size + r].get((r,) + sigma)
            if w:
                row_of = moves[r]
                pairs = iter(row_of.get(0) or
                             row_of.setdefault(0, _move_row(monos, ids, n, 0, r)))
                for t, f in zip(pairs, pairs):
                    acc[t] = get(t, 0) + f * w
        stack.pop()
        if not stack:
            break
        r = sigma[0]
        row_of, parent = moves[r], stack[-1][2]
        get = parent.get
        for k, c in acc.items():
            row = row_of.get(k) or row_of.setdefault(k, _move_row(monos, ids, n, k, r))
            pairs = iter(row)
            for t, f in zip(pairs, pairs):
                parent[t] = get(t, 0) + f * c
    sums = [{} for _ in range(top + 1)]
    for k, c in acc.items():
        if not part_one or 1 in monos[k][:n]:
            sums[sum(monos[k])][k] = c
    return monos, sums


def _move_row(monos: list, ids: dict, n: int, k: int, r: int) -> tuple:
    """(target, factor, ...): p_r times the sorted monomial monos[k], with
    T its first n entries.  Moving one distinct value v of a block to v + r
    gives the sorted target, with factor the number of entries equal to
    v + r in its new block and sign (-1)^(r-1) in the U block; a target
    not met before is numbered next, in `monos` and `ids`."""
    e = monos[k]
    row = []
    for lo, hi in ((0, n), (n, len(e))):
        sign = -1 if lo == n and r % 2 == 0 else 1
        for i in range(lo, hi):
            v = e[i]
            if i > lo and e[i - 1] == v:
                continue
            w = v + r
            j = i  # w goes before the entries of the block below it
            while j > lo and e[j - 1] < w:
                j -= 1
            f = e[:j] + (w,) + e[j:i] + e[i + 1:]
            t = ids.get(f)
            if t is None:
                t = ids[f] = len(monos)
                monos.append(f)
            row += t, sign * f[lo:hi].count(w)
    return tuple(row)


@lru_cache(maxsize=None)
def _packed_orderings(block: tuple, lo: int) -> tuple:
    """The distinct orderings of a block of exponents that starts at
    variable lo, each as its packed offset from the zero key.  Only the
    nonzero entries are placed: each distinct value in turn takes every
    set of its count among the positions still free, so nothing recurses
    per variable."""
    placed = [(0, 0)]  # (bit mask of the positions taken, packed offset)
    for v in sorted(set(block) - {0}):
        placed = [(mask | sum(1 << p for p in ps),
                   offset + sum(v << VarTable.WIDTH * (lo + p) for p in ps))
                  for mask, offset in placed
                  for ps in combinations([p for p in range(len(block))
                                          if not mask >> p & 1], block.count(v))]
    return tuple(offset for _, offset in placed)


def univariate_coefficients(series: LaurentPoly, D: int) -> list[int]:
    """Dense coefficient list [c_0..c_D] of a one-variable series."""
    if len(series.table) != 1:
        raise ValueError("series is not univariate")
    return [series.coefficient((d,)) for d in range(D + 1)]


def verify_budzik(lam: Partition, h) -> dict:
    """Residue vs character route for one (lam, hook), plus the diagonal
    summation identity for the same pair.  Failures are reported, not thrown."""
    h = as_hook(h)
    lhs = multiplicity("prime", lam, h)
    rhs = multiplicity("prime", lam, h, route="char")
    # the i = 0 term of the diagonal sum is lhs itself
    diag = lhs + sum(multiplicity("prime", lam, Hook(h.k - i, h.l - i))
                     for i in range(1, min(h.k, h.l) + 1))
    m_direct = multiplicity("plain", lam, h)
    ok = (lhs == rhs) and (diag == m_direct)
    return {"lambda": list(lam), "k": h.k, "l": h.l, "lhs": lhs, "rhs": rhs,
            "pass": ok, "eq_a_lhs": m_direct, "eq_a_rhs": diag}


def budzik_cases(max_size: int, hooks) -> list[tuple]:
    """(lam, hook) for every hook and every |lam| <= max_size, in order."""
    return [(lam, h) for h in map(as_hook, hooks)
            for d in range(max_size + 1) for lam in enumerate_partitions(d)]


def budzik_suite(max_size: int, hooks, jobs: int = 1) -> list[dict]:
    """Run verify_budzik over all |lam| <= max_size and the given hooks.

    The pool holds at most one worker per case and per CPU, and a forking
    pool starts all of its workers at once; with one worker the cases run
    in this process.  Results are combined in canonical case order
    regardless of the worker count, so output is deterministic."""
    cases = budzik_cases(max_size, hooks)
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers > 1:
        # imported only when pooling: it pulls in multiprocessing, which
        # would otherwise add to every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(verify_budzik, *zip(*cases)))
    return [verify_budzik(lam, h) for lam, h in cases]


def lemmas_suite(max_size: int, hooks, degree: int) -> list[dict]:
    """Per hook: the bar jump by the residue route against the character
    route for all |lam| <= max_size, then both derivative slices in one
    variable through `degree`."""
    reports = []
    for h in hooks:
        h = as_hook(h)
        for lam, _ in budzik_cases(max_size, (h,)):
            lhs = multiplicity("bar_prime", lam, h)
            rhs = multiplicity("bar_prime", lam, h, route="char")
            reports.append({"check": "bar_jump", "lambda": list(lam),
                            "k": h.k, "l": h.l, "lhs": lhs, "rhs": rhs,
                            "pass": lhs == rhs})
        for primed in (False, True):
            _, rep = check_derivative_relation(h, 1, degree, primed)
            reports.append({"check": "derivative", **rep})
    return reports


def check_derivative_relation(h, n: int, D: int, primed: bool,
                              route: str = "residue"):
    """Linear-slice check: the part of the (n+1)-variable series exactly
    linear in the last variable, with that variable divided out, must equal
    the concomitant series in n variables through total degree D-1.

    The (n+1)-variable series is never spread: the orderings of a sorted
    alpha that put a 1 last are exactly the orderings of alpha less one of
    its parts 1, so the slice is the spread over n variables of the sorted
    values whose alpha has a part 1, with one such 1 dropped; what is left
    is still sorted.  Only those values are computed (`_sorted_series`
    with `part_one`): the character route weighs and walks the classes
    with a part 1 alone, and the residue route pairs no other alpha."""
    h = as_hook(h)
    if n < 1:
        raise ValueError(f"derivative check needs n >= 1 variables, got n={n}")
    if D < 1:
        raise ValueError(f"derivative check needs degree >= 1, got {D}")
    values = _sorted_series("prime" if primed else "plain", h, n + 1, 0, D,
                            route, part_one=True)
    # the parts 1 of a sorted alpha are adjacent: any one may be dropped
    lin = _spread(series_table(n, 0), n, D - 1, (
        (a[:i] + a[i + 1:], c) for a, c in values for i in (a.index(1),)))
    bar = p_series("bar_prime" if primed else "bar", h, n, 0, D - 1, route=route)
    ok = lin == bar
    return ok, {"hook": [h.k, h.l], "n": n, "degree": D, "primed": primed,
                "linear_slice": str(lin), "bar_series": str(bar), "pass": ok}
