"""Truncated univariate integer power series and the closed-form
generating functions for the one-even-variable and one-odd-variable
Poincare series, plus the two partition limit identities.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence

from .partitions import as_hook, enumerate_partitions

Factor = tuple  # (sign: +-1, exponent_a: int, power: +-1) meaning (1 + sign*u^a)^power


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs")):
    """Integer power series through degree len(coeffs) - 1, held as its
    exact coefficients in a one-field named tuple; adds, subtracts and
    indexes them."""

    __slots__ = ()

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _check(self, other: "TruncatedSeries"):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("series order mismatch")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


def expand_product(factors: Sequence[Factor], shift: int, D: int) -> TruncatedSeries:
    """u^shift * prod (1 + sign*u^a)^power through degree D, in place on one
    coefficient list: a factor multiplies by c[i] += sign*c[i-a] for i
    running down, and divides by c[i] -= sign*c[i-a] for i running up."""
    if D < 0:
        raise ValueError(f"truncation degree must be nonnegative, got {D}")
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    c = [0] * (D + 1)
    if shift <= D:
        c[shift] = 1
    for factor in factors:
        sign, a, power = factor
        if sign not in (1, -1) or power not in (1, -1) or a < 0:
            raise ValueError(f"bad factor {factor}")
        if power == 1:
            for i in range(D, a - 1, -1):
                c[i] += sign * c[i - a]
        elif a == 0:
            raise ValueError("factor (1 +- u^0) is not invertible as a series")
        else:
            for i in range(a, D + 1):
                c[i] -= sign * c[i - a]
    return TruncatedSeries(tuple(c))


def gf_partitions(D: int, in_hook=None, typical=None,
                  self_conjugate: bool = False) -> TruncatedSeries:
    """Coefficient of u^n = number of partitions of n meeting the
    constraints, by direct enumeration."""
    coeffs = tuple(len(enumerate_partitions(n, in_hook=in_hook, typical=typical,
                                            self_conjugate=self_conjugate))
                   for n in range(D + 1))
    return TruncatedSeries(coeffs)


def closed_form_series(kind: str, h, D: int) -> TruncatedSeries:
    """Closed forms for the one-variable Poincare series.

    traces_n1:      t^{kl} / (prod_{i<=k}(1-t^i) prod_{j<=l}(1-t^j))
    supertraces_01: u^{2kl-l^2} prod_{i<=k-l}(1+u^{2i-1}) / [u^2]_l,
                    valid for k >= l.
    """
    h = as_hook(h)
    k, ell = h.k, h.l
    if kind == "traces_n1":
        factors = [(-1, i, -1) for i in range(1, k + 1)]
        factors += [(-1, j, -1) for j in range(1, ell + 1)]
        return expand_product(factors, k * ell, D)
    if kind == "supertraces_01":
        if k < ell:
            raise ValueError("supertraces_01 requires k >= l; swap the hook first")
        factors = [(1, 2 * i - 1, 1) for i in range(1, k - ell + 1)]
        factors += [(-1, 2 * i, -1) for i in range(1, ell + 1)]
        return expand_product(factors, 2 * k * ell - ell * ell, D)
    raise ValueError(f"unknown closed form kind {kind!r}")


def check_limit_identity(which: str, D: int, n: Optional[int] = None):
    """Compare the odd-part product prod_{n>=1} (1 + u^{2n-1}) against the
    stated basic-hypergeometric sum through degree D.  Returns (ok, report);
    the report carries both coefficient lists and the first discrepancy
    degree, if any."""
    lhs = expand_product([(1, a, 1) for a in range(1, D + 1, 2)], 0, D)
    rhs = TruncatedSeries.zero(D)
    if which == "selfconjugate_sum":
        q = 0
        while q * q <= D:
            rhs = rhs + expand_product([(-1, 2 * i, -1) for i in range(1, q + 1)],
                                       q * q, D)
            q += 1
    elif which == "shifted_sum":
        if n is None:
            raise ValueError("shifted_sum needs the shift parameter n")
        # summand = u^{i(2n+i)} * prod_{t<=n}(1+u^{2t-1}) / [u^2]_i; the
        # odd-part product runs to n, the closed form of the (n+i, i) hook
        i = 0
        while i * (2 * n + i) <= D:
            factors = [(1, 2 * t - 1, 1) for t in range(1, n + 1)]
            factors += [(-1, 2 * t, -1) for t in range(1, i + 1)]
            rhs = rhs + expand_product(factors, i * (2 * n + i), D)
            i += 1
    else:
        raise ValueError(f"unknown identity {which!r}")
    first_bad = next((d for d in range(D + 1) if lhs[d] != rhs[d]), None)
    report = {"which": which, "degree": D, "n": n,
              "lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs),
              "first_discrepancy": first_bad}
    return first_bad is None, report


# The closed forms are checked through this fixed degree, whatever the
# limit identities use: the partition counts enumerate every partition,
# so their cost grows about 1.3-fold per degree.
CLOSED_FORM_DEGREE = 12


def qidentities_suite(degree: int, max_kl: int) -> list[dict]:
    """Both limit identities through `degree`, then, for every hook with
    k, l <= max_kl, each one-variable closed form against the partition
    count it stands for, through CLOSED_FORM_DEGREE."""
    D = CLOSED_FORM_DEGREE
    reports = []
    for which, n in (("selfconjugate_sum", None), ("shifted_sum", 1)):
        ok, rep = check_limit_identity(which, degree, n=n)
        reports.append({"check": "limit_identity", "which": which, "n": n,
                        "degree": degree, "pass": ok,
                        "first_discrepancy": rep["first_discrepancy"]})
    for k in range(max_kl + 1):
        for ell in range(max_kl + 1):
            if k + ell == 0:
                continue
            closed = closed_form_series("traces_n1", (k, ell), D)
            direct = gf_partitions(D, typical=(k, ell))
            reports.append({"check": "traces_closed_form", "k": k, "l": ell,
                            "degree": D, "pass": closed.coeffs == direct.coeffs})
            if k >= ell:
                closed = closed_form_series("supertraces_01", (k, ell), D)
                big = gf_partitions(D, in_hook=(k, ell), self_conjugate=True)
                small = (gf_partitions(D, in_hook=(k - 1, ell - 1), self_conjugate=True)
                         if min(k, ell) >= 1 else TruncatedSeries.zero(D))
                reports.append({"check": "supertraces_closed_form", "k": k, "l": ell,
                                "degree": D,
                                "pass": closed.coeffs == (big - small).coeffs})
    return reports
