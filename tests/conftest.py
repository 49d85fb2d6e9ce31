import hypothesis.strategies as st

from superschur.laurent import LaurentPoly, VarTable

TABLE2 = VarTable(["x", "y"])


@st.composite
def partitions(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    cap = n
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, n)))
        parts.append(p)
        cap = p
        n -= p
    return tuple(parts)


@st.composite
def laurent_polys(draw, table=TABLE2, max_terms=5, max_exp=3, max_coeff=5):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=-max_exp, max_value=max_exp))
                     for _ in range(len(table)))
        coeff = draw(st.integers(min_value=-max_coeff, max_value=max_coeff))
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPoly(table, terms)


def hom_sequence_x_then_y(X, Y, upto):
    """h_0..h_upto of X;Y by the column recurrence over X's letters, then
    Y's, with no memo and no grading (oracle for the letter order and the
    x-degree cut of hookschur.graded_homs)."""
    table = X.table
    letters = [LaurentPoly.monomial(table, 1, e) for e in X.monos + Y.monos]
    col = [LaurentPoly.const(table, 1)] * (len(letters) + 1)
    hs = [col[-1]]
    for _ in range(upto):
        prev, col = col, [LaurentPoly.zero(table)]
        for i, z in enumerate(letters):
            col.append(col[i] + z * (prev[i + 1] if i < len(X) else prev[i]))
        hs.append(col[-1])
    return hs


def graded_hom_sequence(X, Y, k, floor, upto):
    """hom_sequence_x_then_y split by x-degree, the sum of the first k
    exponents: each h_d as {x-degree: LaurentPoly} over the x-degrees
    >= floor."""
    out = []
    for hd in hom_sequence_x_then_y(X, Y, upto):
        buckets = {}
        for e, c in hd.terms.items():
            if sum(e[:k]) >= floor:
                buckets.setdefault(sum(e[:k]), {})[e] = c
        out.append({g: LaurentPoly(X.table, b) for g, b in buckets.items()})
    return out


def add_box_successors(lam):
    """All partitions of |lam| + 1 whose diagram is lam plus one box: the
    one-box branching rule, oracle for the bar class function and the bar
    jump."""
    out = []
    for i in range(len(lam) + 1):
        here = lam[i] if i < len(lam) else 0
        if i == 0 or here < lam[i - 1]:
            out.append(lam[:i] + (here + 1,) + lam[i + 1:])
    return out
