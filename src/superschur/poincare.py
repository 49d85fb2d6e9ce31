"""Poincare series assembled from multiplicities, and the headline
verifications: the residue/character agreement for the multiplicity jump,
the diagonal summation identities, and the derivative relations linking
the invariant and concomitant series.
"""

from __future__ import annotations

from .characters import m_bar_lambda, m_lambda
from .hookschur import Alphabet, hook_schur_eval
from .laurent import LaurentPoly, VarTable
from .partitions import Hook, Partition, as_hook, enumerate_partitions
from .residue import m_bar_prime_residue, m_prime_residue

MODES = ("plain", "prime", "bar", "bar_prime")
ROUTES = ("residue", "char")


def series_table(n: int, m: int) -> VarTable:
    return VarTable([f"t{i}" for i in range(1, n + 1)]
                    + [f"u{j}" for j in range(1, m + 1)])


def _check_choice(mode: str, route: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def multiplicity(mode: str, lam: Partition, h, route: str = "residue") -> int:
    """The multiplicity of lam in the hook h that `mode` names.

    `plain` and `bar` are m_lambda and m_bar_lambda, character sums on
    either route.  The jumps `prime` and `bar_prime` against the next
    smaller hook take the route: "residue" is the constant-term integral,
    "char" the difference m(lam, h) - m(lam, h.shrink()) of those sums,
    with the subtrahend 0 when no smaller hook exists (min(k, l) = 0).
    """
    _check_choice(mode, route)
    h = as_hook(h)
    m = m_bar_lambda if mode.startswith("bar") else m_lambda
    if mode in ("plain", "bar"):
        return m(lam, h)
    if route == "residue":
        return m_prime_residue(lam, h) if mode == "prime" \
            else m_bar_prime_residue(lam, h)
    if min(h.k, h.l) == 0:
        return m(lam, h)
    return m(lam, h) - m(lam, h.shrink())


def p_series(mode: str, h, n: int, m: int, D: int,
             route: str = "residue") -> LaurentPoly:
    """Sum over |lam| <= D of multiplicity(lam) * HS_lam(t_1..t_n; u_1..u_m).

    Only lam inside the (n, m) hook can contribute (the hook theorem), so
    the sweep is restricted to them.  All sums are finite and exact.
    """
    h = as_hook(h)
    _check_choice(mode, route)
    if n < 0 or m < 0:
        raise ValueError("series variable counts must be nonnegative, "
                         f"got n={n}, m={m}")
    if n + m < 1:
        raise ValueError("need at least one series variable")
    if D < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {D}")
    table = series_table(n, m)
    T = Alphabet.symbols(table, table.names[:n])
    U = Alphabet.symbols(table, table.names[n:])
    total = LaurentPoly.zero(table)
    for d in range(D + 1):
        for lam in enumerate_partitions(d, in_hook=(n, m)):
            c = multiplicity(mode, lam, h, route)
            if c:
                total = total + hook_schur_eval(lam, T, U) * c
    return total


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
    m_direct = m_lambda(lam, h)
    ok = (lhs == rhs) and (diag == m_direct)
    return {"lambda": list(lam), "k": h.k, "l": h.l, "lhs": lhs, "rhs": rhs,
            "pass": ok, "eq_a_lhs": m_direct, "eq_a_rhs": diag}


def _budzik_worker(args) -> dict:
    lam, k, l = args
    return verify_budzik(tuple(lam), Hook(k, l))


def budzik_cases(max_size: int, hooks) -> list[tuple]:
    cases = []
    for h in hooks:
        h = as_hook(h)
        for d in range(max_size + 1):
            for lam in enumerate_partitions(d):
                cases.append((lam, h.k, h.l))
    return cases


def budzik_suite(max_size: int, hooks, jobs: int = 1) -> list[dict]:
    """Run verify_budzik over all |lam| <= max_size and the given hooks.

    Results are combined in canonical case order regardless of the worker
    count, so output is deterministic."""
    cases = budzik_cases(max_size, hooks)
    if jobs > 1:
        # imported only when pooling: it pulls in multiprocessing, which
        # would otherwise add to every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_budzik_worker, cases))
    return [_budzik_worker(c) for c in cases]


def lemmas_suite(max_size: int, hooks, degree: int) -> list[dict]:
    """Per hook: the bar jump by the residue route against the character
    route for all |lam| <= max_size, then both derivative slices in one
    variable through `degree`."""
    reports = []
    for h in hooks:
        h = as_hook(h)
        for d in range(max_size + 1):
            for lam in enumerate_partitions(d):
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
    the concomitant series in n variables through total degree D-1."""
    h = as_hook(h)
    if D < 1:
        raise ValueError(f"derivative check needs degree >= 1, got {D}")
    big = p_series("prime" if primed else "plain", h, n + 1, 0, D, route=route)
    small_table = series_table(n, 0)
    last = n  # index of t_{n+1} in the big table
    lin_terms = {}
    for e, c in big.terms.items():
        if e[last] == 1:
            lin_terms[e[:last]] = c
    lin = LaurentPoly(small_table, lin_terms)
    bar = p_series("bar_prime" if primed else "bar", h, n, 0, D - 1, route=route)
    ok = lin == bar
    return ok, {"hook": [h.k, h.l], "n": n, "degree": D, "primed": primed,
                "linear_slice": str(lin), "bar_series": str(bar), "pass": ok}
