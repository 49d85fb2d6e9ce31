import random

import pytest

from superschur.qseries import (CLOSED_FORM_DEGREE, TruncatedSeries,
                                check_limit_identity, closed_form_series, expand_product,
                                gf_partitions, qidentities_suite)


def test_series_arithmetic():
    a = TruncatedSeries((1, 2, 0, 1))
    b = TruncatedSeries((0, 1, 1, 0))
    assert (a + b).coeffs == (1, 3, 1, 1)
    assert (a - b).coeffs == (1, 1, -1, 1)
    assert a[1] == 2
    assert TruncatedSeries.zero(2).coeffs == (0, 0, 0)


def test_series_is_an_immutable_value():
    a = TruncatedSeries((1, 0, 3))
    assert a == TruncatedSeries((1, 0, 3))
    assert a != TruncatedSeries((1, 0, 2))
    assert hash(a) == hash(TruncatedSeries((1, 0, 3)))
    assert repr(a) == "TruncatedSeries(coeffs=(1, 0, 3))"
    with pytest.raises(AttributeError):
        a.coeffs = (0, 0, 0)
    assert a.coeffs == (1, 0, 3)


def test_series_mismatch_rejected():
    a = TruncatedSeries((1, 0, 0, 0))
    with pytest.raises(ValueError):
        a + TruncatedSeries((1, 0, 0, 0, 0))


def test_expand_product_basics():
    # 1/(1-u) = all ones
    assert expand_product([(-1, 1, -1)], 0, 5).coeffs == (1,) * 6
    # (1+u)^{-1} alternates
    assert expand_product([(1, 1, -1)], 0, 5).coeffs == (1, -1, 1, -1, 1, -1)
    # (1-u^2)(1+u) shifted by 1
    assert expand_product([(-1, 2, 1), (1, 1, 1)], 1, 5).coeffs == (0, 1, 1, -1, -1, 0)
    with pytest.raises(ValueError):
        expand_product([(1, 0, -1)], 0, 5)
    with pytest.raises(ValueError):
        expand_product([(2, 1, 1)], 0, 5)
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        expand_product([(1, 1, 1)], -1, 5)


def _convolve(a, b):
    # the dense truncated product the series type once carried
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(len(a) - i):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def _apply_factor(coeffs, factor):
    # multiply by (1 + sign*u^a), or by the explicit inverse series
    # sum (-sign)^m u^(am) of that factor
    sign, a, power = factor
    D = len(coeffs) - 1
    if power == 1:
        return [c + sign * (coeffs[i - a] if i >= a else 0)
                for i, c in enumerate(coeffs)]
    inv = [0] * (D + 1)
    s, m = 1, 0
    while a * m <= D:
        inv[a * m] = s
        s *= -sign
        m += 1
    return _convolve(coeffs, inv)


def test_expand_product_matches_convolution_oracle():
    rng = random.Random(20261018)
    for _ in range(200):
        factors = []
        for _ in range(rng.randint(0, 6)):
            power = rng.choice((1, -1))
            a = rng.randint(0 if power == 1 else 1, 5)
            factors.append((rng.choice((1, -1)), a, power))
        shift, D = rng.randint(0, 3), rng.randint(0, 15)
        want = [1] + [0] * D
        for factor in factors:
            want = _apply_factor(want, factor)
        want = ([0] * shift + want)[:D + 1]
        got = expand_product(factors, shift, D)
        assert got == TruncatedSeries(tuple(want)), (factors, shift, D)


def test_expand_product_is_partition_gf():
    # 1/prod (1-u^i) counts all partitions
    D = 12
    factors = [(-1, i, -1) for i in range(1, D + 1)]
    assert expand_product(factors, 0, D) == gf_partitions(D)


def test_gf_partitions_constraints():
    assert gf_partitions(6, in_hook=(2, 0)).coeffs == (1, 1, 2, 2, 3, 3, 4)
    assert gf_partitions(8, self_conjugate=True).coeffs == (1, 1, 0, 1, 1, 1, 1, 1, 2)


def test_traces_closed_form_counts_hook_members():
    # coefficient of t^n = number of partitions of n in H(k, l),
    # shifted by the k*l box for the typical core
    for k, l in [(1, 1), (2, 1), (2, 2)]:
        series = closed_form_series("traces_n1", (k, l), 12)
        count = gf_partitions(12, typical=(k, l))
        assert series == count


def test_supertraces_closed_form_counts_typical_self_conjugate():
    for k, l in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        series = closed_form_series("supertraces_01", (k, l), 14)
        count = gf_partitions(14, typical=(k, l), self_conjugate=True)
        assert series == count


def test_supertraces_requires_wide_hook():
    with pytest.raises(ValueError):
        closed_form_series("supertraces_01", (1, 2), 6)
    with pytest.raises(ValueError):
        closed_form_series("nope", (1, 1), 6)


def test_limit_identity_selfconjugate_sum():
    ok, report = check_limit_identity("selfconjugate_sum", 20)
    assert ok, report
    assert report["first_discrepancy"] is None
    # lhs really is the self-conjugate partition counter
    assert tuple(report["lhs"]) == gf_partitions(20, self_conjugate=True).coeffs


def test_limit_identity_shifted_sum():
    for n in (1, 2, 3):
        ok, report = check_limit_identity("shifted_sum", 20, n=n)
        assert ok, report


def test_limit_identity_reports_discrepancy_degree():
    # the shifted sum without its shift parameter is an error
    with pytest.raises(ValueError):
        check_limit_identity("shifted_sum", 10)
    with pytest.raises(ValueError):
        check_limit_identity("bogus", 10)


def test_qidentities_suite_rows():
    rows = qidentities_suite(12, 1)
    assert [(r["check"], r.get("k"), r.get("l")) for r in rows] == [
        ("limit_identity", None, None), ("limit_identity", None, None),
        ("traces_closed_form", 0, 1),
        ("traces_closed_form", 1, 0), ("supertraces_closed_form", 1, 0),
        ("traces_closed_form", 1, 1), ("supertraces_closed_form", 1, 1)]
    assert all(r["pass"] for r in rows)
    # every row names its degree: the limit identities take the one asked
    # for, the closed forms their fixed one
    assert [r["degree"] for r in rows] == [12, 12] + [CLOSED_FORM_DEGREE] * 5
    assert [r["degree"] for r in qidentities_suite(5, 1)] == [5, 5] + [CLOSED_FORM_DEGREE] * 5
