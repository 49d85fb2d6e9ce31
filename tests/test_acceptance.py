"""End-to-end acceptance checks.  Every identity is exact -- integers and
polynomials compare with ==, never with a tolerance.  Each check prints one
PASS/FAIL line on the real stdout so the verdicts survive output capture.
"""

import pytest

from superschur.characters import kronecker, m_bar_lambda, m_lambda
from superschur.hookschur import (Alphabet, hook_schur_def, hook_schur_eval,
                                  hook_schur_factorized, hook_schur_jp)
from superschur.laurent import LaurentPoly, VarTable
from superschur.partitions import (Hook, HookClass, classify_hook,
                                   enumerate_partitions)
from superschur.poincare import (check_derivative_relation, p_series,
                                 univariate_coefficients)
from superschur.qseries import (TruncatedSeries, check_limit_identity,
                                closed_form_series, gf_partitions)
from superschur.residue import (constant_term_by_kernel, constant_term_with_delta,
                                hs_on_z, inner_product, m_bar_prime_residue,
                                m_prime_residue, residue_table, z_alphabets)

D10 = 10

JUMP_HOOKS = [(1, 1), (2, 1), (1, 2), (2, 2)]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdicts_on_real_stdout(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(name: str, ok: bool) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, name


def _shapes(max_size: int, **kw):
    return [lam for n in range(max_size + 1) for lam in enumerate_partitions(n, **kw)]


def _jump_char(lam, h) -> int:
    h = Hook(*h)
    if min(h.k, h.l) == 0:
        return m_lambda(lam, h)
    return m_lambda(lam, h) - m_lambda(lam, h.shrink())


def test_01_jump_residue_equals_character_difference():
    ok = all(m_prime_residue(lam, h) == _jump_char(lam, h)
             for h in JUMP_HOOKS for lam in _shapes(6))
    _verdict("multiplicity jump: residue route == character difference", ok)


def test_02_diagonal_sum_recovers_multiplicity():
    ok = True
    for k, l in JUMP_HOOKS:
        for lam in _shapes(6):
            diag = sum(m_prime_residue(lam, (k - i, l - i))
                       for i in range(min(k, l) + 1))
            ok = ok and diag == m_lambda(lam, (k, l))
    _verdict("diagonal jump sum recovers the plain multiplicity", ok)


def test_03_one_even_variable_series_closed_form():
    ok = True
    for k in range(4):
        for l in range(4):
            if k + l == 0:
                continue
            closed = list(closed_form_series("traces_n1", (k, l), D10).coeffs)
            counts = list(gf_partitions(D10, typical=(k, l)).coeffs)
            ok = ok and closed == counts
            routes = ["char"] + (["residue"] if k <= 2 and l <= 2 else [])
            for route in routes:
                series = p_series("prime", (k, l), 1, 0, D10, route=route)
                ok = ok and univariate_coefficients(series, D10) == closed
    _verdict("one even variable: series == closed form == typical counts", ok)


ODD_HOOKS = [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
ODD_RESIDUE_HOOKS = [(1, 1), (2, 1), (2, 2)]


def test_04_one_odd_variable_series_closed_form():
    ok = True
    for k, l in ODD_HOOKS:
        closed = list(closed_form_series("supertraces_01", (k, l), D10).coeffs)
        big = gf_partitions(D10, in_hook=(k, l), self_conjugate=True)
        small = (gf_partitions(D10, in_hook=(k - 1, l - 1), self_conjugate=True)
                 if min(k, l) >= 1 else TruncatedSeries.zero(D10))
        ok = ok and closed == list((big - small).coeffs)
        for route in ("char", "residue"):
            series = p_series("prime", (k, l), 0, 1, D10, route=route)
            ok = ok and univariate_coefficients(series, D10) == closed
    _verdict("one odd variable: series == closed form == self-conjugate "
             "count difference", ok)


def test_05_vanishing_outside_hook():
    ok = True
    for a in range(3):
        for b in range(3):
            names = [f"x{i}" for i in range(1, a + 1)] + \
                    [f"y{j}" for j in range(1, b + 1)]
            t = VarTable(names)
            X = Alphabet.symbols(t, names[:a])
            Y = Alphabet.symbols(t, names[a:])
            for lam in _shapes(6):
                value = hook_schur_def(lam, X, Y)
                outside = classify_hook(lam, (a, b)) is HookClass.OUTSIDE
                ok = ok and value.is_zero() == outside
    _verdict("hook Schur function vanishes exactly outside the hook", ok)


def test_06_three_formulas_agree():
    ok = True
    for k, l in [(1, 1), (2, 1)]:
        names = [f"x{i}" for i in range(1, k + 1)] + \
                [f"y{j}" for j in range(1, l + 1)]
        t = VarTable(names)
        X = Alphabet.symbols(t, names[:k])
        Y = Alphabet.symbols(t, names[k:])
        for lam in _shapes(5):
            base = hook_schur_def(lam, X, Y)
            ok = ok and hook_schur_jp(lam, X, Y) == base
            ok = ok and hook_schur_eval(lam, X, Y) == base
            if classify_hook(lam, (k, l)) is HookClass.TYPICAL:
                ok = ok and hook_schur_factorized(lam, X, Y) == base
    _verdict("combinatorial, determinantal, and factorized formulas agree", ok)


def test_07_orthonormality_of_typical_shapes():
    ok = True
    for h in [(1, 1), (2, 1)]:
        t = residue_table(h)
        X = Alphabet.symbols(t, [v for v in t.names if v.startswith("x")])
        Y = Alphabet.symbols(t, [v for v in t.names if v.startswith("y")])
        shapes = _shapes(4, in_hook=h)
        for mu in shapes:
            for nu in shapes:
                want = int(mu == nu
                           and classify_hook(mu, h) is HookClass.TYPICAL)
                got = inner_product(hook_schur_eval(mu, X, Y),
                                    hook_schur_eval(nu, X, Y), h)
                ok = ok and got == want
    _verdict("typical hook Schur functions are orthonormal", ok)


def test_08_product_alphabet_expansions():
    ok = True
    # substitution rule at products of singletons: coefficients are the
    # symmetric-group tensor multiplicities
    t4 = VarTable(["x", "y", "t", "u"])
    XT = Alphabet(t4, [(1, 0, 1, 0), (0, 1, 0, 1)])  # xt, yu
    XU = Alphabet(t4, [(1, 0, 0, 1), (0, 1, 1, 0)])  # xu, yt
    Ax = Alphabet.symbols(t4, ["x"])
    Ay = Alphabet.symbols(t4, ["y"])
    At = Alphabet.symbols(t4, ["t"])
    Au = Alphabet.symbols(t4, ["u"])
    for lam in _shapes(4):
        n = sum(lam)
        lhs = hook_schur_def(lam, XT, XU)
        rhs = LaurentPoly.zero(t4)
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                g = kronecker(lam, mu, nu)
                if g:
                    rhs = rhs + (hook_schur_eval(mu, Ax, Ay)
                                 * hook_schur_eval(nu, At, Au)) * g
        ok = ok and lhs == rhs

    # dual pairing sum over two alphabets == its product form, through
    # total degree 5 in the second alphabet pair
    names = ["x1", "x2", "y1", "y2", "t1", "t2", "u1", "u2"]
    t8 = VarTable(names)
    X = Alphabet.symbols(t8, ["x1", "x2"])
    Y = Alphabet.symbols(t8, ["y1", "y2"])
    T = Alphabet.symbols(t8, ["t1", "t2"])
    U = Alphabet.symbols(t8, ["u1", "u2"])
    deg = 5

    def cut(p):  # drop the terms past degree deg in t1, t2, u1, u2
        return LaurentPoly(t8, {e: c for e, c in p.terms.items() if sum(e[4:]) <= deg})

    lhs = LaurentPoly.zero(t8)
    for lam in _shapes(deg, in_hook=(2, 2)):
        lhs = lhs + hook_schur_eval(lam, X, Y) * hook_schur_eval(lam, T, U)
    def product_of(first, second, geometric, acc):
        for i in range(len(first)):
            for j in range(len(second)):
                z = first.entry(i) * second.entry(j)
                if geometric:
                    factor = LaurentPoly.const(t8, 1)
                    zp = LaurentPoly.const(t8, 1)
                    for _ in range(deg):
                        zp = cut(zp * z)
                        factor = factor + zp
                else:
                    factor = 1 + z
                acc = cut(acc * factor)
        return acc

    rhs = LaurentPoly.const(t8, 1)
    rhs = product_of(X, T, True, rhs)
    rhs = product_of(Y, U, True, rhs)
    rhs = product_of(X, U, False, rhs)
    rhs = product_of(Y, T, False, rhs)
    ok = ok and lhs == rhs
    _verdict("product-alphabet expansions (tensor coefficients and dual "
             "pairing) hold", ok)


def test_09_restricted_jump_and_derivative_slices():
    ok = True
    for h in [(1, 1), (2, 1)]:
        for lam in _shapes(5):
            char_jump = (m_bar_lambda(lam, h)
                         - m_bar_lambda(lam, Hook(*h).shrink()))
            ok = ok and m_bar_prime_residue(lam, h) == char_jump
    for h in [(1, 1), (1, 0)]:
        for primed in (False, True):
            good, _ = check_derivative_relation(h, 1, 4, primed, route="char")
            ok = ok and good
    _verdict("restricted jump matches characters; linear slices match the "
             "restricted series", ok)


def test_10_limit_identities():
    ok, _ = check_limit_identity("selfconjugate_sum", 20)
    for n in (1, 2, 3):
        good, _ = check_limit_identity("shifted_sum", 20, n=n)
        ok = ok and good
    _verdict("both q-series limit identities hold through degree 20", ok)


def test_11_truncation_stability():
    # the oracle expansion with widened windows against the kernel, on the
    # integrands of m_prime_residue and m_bar_prime_residue
    def stable(f, h) -> bool:
        return constant_term_with_delta(f, h, 1) == constant_term_by_kernel(f, h)

    ok = all(stable(hs_on_z(lam, h), h) for h in JUMP_HOOKS for lam in _shapes(6))
    ok = ok and all(stable(hs_on_z((1,) * d, h), h)
                    for h in ODD_RESIDUE_HOOKS for d in range(D10 + 1))
    for h in [(1, 1), (2, 1)]:
        z0, z1 = z_alphabets(h)
        bar = z0.sum_poly() + z1.sum_poly()
        ok = ok and all(stable(hs_on_z(lam, h) * bar, h) for lam in _shapes(5))
    _verdict("every residue value is stable under widened truncation windows", ok)


# hook, n -> (numerator as [(coefficient, exponents)], denominator as the
# exponents a of its factors 1 - t^a).  On a hook (k, 0) the jump is the
# plain multiplicity, so these are the Poincare series of the GL_k
# invariants of n generic k x k matrices: for k = 1 the polynomial ring;
# for k = 2 Sibirskii's and Formanek's forms, for k = 3 and n = 2
# Teranishi's, with ten denominator factors, the Krull dimension
# (n - 1) k^2 + 1 (Formanek, The polynomial identities and invariants of
# n x n matrices, CBMS 78, AMS 1991; Teranishi, Nagoya Math. J. 104, 1986)
CLASSICAL_FORMS = {
    ((1, 0), 3): ([(1, (0, 0, 0))],
                  [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ((2, 0), 2): ([(1, (0, 0))],
                  [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    ((2, 0), 3): ([(1, (0, 0, 0)), (1, (1, 1, 1))],
                  [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                   (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
    ((3, 0), 2): ([(1, (0, 0)), (1, (3, 3))],
                  [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
                   (1, 2), (0, 3), (2, 2)]),
}


def _expand_rational(numerator, denominator, D: int) -> dict:
    """The terms of total degree <= D of numerator / prod_a (1 - t^a), as
    {exponents: coefficient}; every a has positive degree."""
    terms = {e: c for c, e in numerator}
    for a in denominator:
        grown = {}
        for e, c in terms.items():
            while sum(e) <= D:
                grown[e] = grown.get(e, 0) + c
                e = tuple(x + y for x, y in zip(e, a))
        terms = grown
    return {e: c for e, c in terms.items() if c}


def test_12_classical_closed_forms_in_several_variables():
    ok = True
    for (h, n), (numerator, denominator) in CLASSICAL_FORMS.items():
        closed = _expand_rational(numerator, denominator, D10)
        for route in ("char", "residue"):
            series = p_series("prime", h, n, 0, D10, route=route)
            ok = ok and dict(series.terms) == closed
    _verdict("classical invariant series of generic matrices == closed forms "
             "in several variables, both routes", ok)


@pytest.mark.parametrize("form", sorted(CLASSICAL_FORMS))
def test_classical_forms_satisfy_the_functional_equation(form):
    # P(1/t) = (-1)^d (t1...tn)^(k^2) P(t), d = (n - 1) k^2 + 1, for
    # P = N / prod_a (1 - t^a) with r factors.  Each 1 - t^-a is
    # -t^-a (1 - t^a), so the equation says that the terms c t^(sum a - e)
    # of t^(sum a) N(1/t) are the terms (-1)^(d - r) c t^(e + k^2) of N(t)
    (k, _), n = form
    numerator, denominator = CLASSICAL_FORMS[form]
    d, r = (n - 1) * k * k + 1, len(denominator)
    total = [sum(a[i] for a in denominator) for i in range(n)]
    reflected = sorted((c, tuple(s - x for s, x in zip(total, e)))
                       for c, e in numerator)
    shifted = sorted(((-1) ** (d - r) * c, tuple(x + k * k for x in e))
                     for c, e in numerator)
    assert reflected == shifted
