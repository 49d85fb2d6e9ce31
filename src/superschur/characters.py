"""Symmetric-group characters, Kronecker coefficients, and the tensor
multiplicities summed over a hook.

Character values come from recursive border-strip removal (beta-number
form), memoized in process.  A hook multiplicity is one inner product of
class functions: m_lam(h) = (1/n!) sum_rho chi^lam(rho) w_h(rho), with the
weight w_h(rho) = |C_rho| sum_{mu in h, |mu| = n} chi^mu(rho)^2 computed
once per (n, h) (Macdonald, Symmetric Functions and Hall Polynomials, I.7).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .laurent import InexactError
from .partitions import (Hook, Partition, add_box_successors, as_hook,
                         enumerate_partitions, partitions_of)


class _Memo:
    """In-process memo of character values and Kronecker coefficients.

    Not safe for concurrent mutation; each worker process has its own.
    """

    def __init__(self):
        self.chi: dict[tuple, int] = {}
        self.kron: dict[tuple, int] = {}


_MEMO = _Memo()


def default_cache() -> _Memo:
    return _MEMO


def _beta_set(lam: Partition) -> tuple:
    length = len(lam)
    return tuple(sorted(lam[i] + length - 1 - i for i in range(length)))


def _partition_from_beta(beta: tuple) -> Partition:
    beta = sorted(beta)
    lam = [b - i for i, b in enumerate(beta)]
    return tuple(p for p in reversed(lam) if p > 0)


def mn_character(lam: Partition, rho: Partition) -> int:
    """chi^lam evaluated at the class of cycle type rho, exactly."""
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    return _mn(tuple(lam), tuple(rho))


def _mn(lam: Partition, rho: Partition) -> int:
    if not rho:
        return 1
    key = (lam, rho)
    hit = _MEMO.chi.get(key)
    if hit is not None:
        return hit
    r = rho[0]
    rest = rho[1:]
    beta = _beta_set(lam)
    beta_lookup = set(beta)
    total = 0
    for b in beta:
        target = b - r
        if target < 0 or target in beta_lookup:
            continue
        jumped = sum(1 for x in beta if target < x < b)
        new_beta = tuple(target if x == b else x for x in beta)
        total += (-1) ** jumped * _mn(_partition_from_beta(new_beta), rest)
    _MEMO.chi[key] = total
    return total


def class_size(rho: Partition) -> int:
    """Conjugacy class size in S_n for cycle type rho: n!/prod(i^a_i a_i!)."""
    n = sum(rho)
    denom = 1
    for i in set(rho):
        a = rho.count(i)
        denom *= i ** a * factorial(a)
    return factorial(n) // denom


def _divide_by_group_order(total: int, n: int, what: str) -> int:
    q, r = divmod(total, factorial(n))
    if r:
        raise InexactError(f"class sum for {what} not divisible by {n}!")
    return q


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient: multiplicity of chi^lam in chi^mu (x) chi^nu."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("partitions must have equal size")
    key = (lam, mu, nu)
    hit = _MEMO.kron.get(key)
    if hit is not None:
        return hit
    total = 0
    for rho in partitions_of(n):
        total += class_size(rho) * _mn(lam, rho) * _mn(mu, rho) * _mn(nu, rho)
    g = _divide_by_group_order(total, n, "a Kronecker coefficient")
    _MEMO.kron[key] = g
    return g


@lru_cache(maxsize=None)
def _hook_weights(n: int, h: Hook) -> tuple:
    """Pairs (rho, w_h(rho)) over the classes of S_n with a nonzero weight."""
    hook = enumerate_partitions(n, in_hook=h)
    pairs = []
    for rho in partitions_of(n):
        w = sum(_mn(mu, rho) ** 2 for mu in hook)
        if w:
            pairs.append((rho, class_size(rho) * w))
    return tuple(pairs)


def m_lambda(lam: Partition, h) -> int:
    """Sum of gamma^lam_{mu,mu} over mu of the same size in the hook."""
    h = as_hook(h)
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    total = sum(_mn(lam, rho) * w for rho, w in _hook_weights(n, h))
    return _divide_by_group_order(total, n, "a hook multiplicity")


def m_bar_lambda(lam: Partition, h) -> int:
    """Multiplicity after restricting the hook tensor sum down one S_n level.

    Realized through the branching rule: sum of m over all one-box
    extensions of lam.
    """
    return sum(m_lambda(lp, h) for lp in add_box_successors(lam))


def dimension(lam: Partition) -> int:
    """Degree of chi^lam (number of standard tableaux)."""
    n = sum(lam)
    return mn_character(lam, (1,) * n) if n else 1
