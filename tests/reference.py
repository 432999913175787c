"""Dense Fraction routines that the tests compare the library against.

Brackets are expanded from structure constants {(i, j): {k: c_ijk}}, i < j, as
LieAlgebra.brackets() returns them; vectors are sequences, matrices lists of
rows, and a subspace any list of rows spanning it.  Elimination is plain
Gauss-Jordan and closures span every bracket in every round.  The module
imports nothing from lieideal (test_reference.py checks it), so a fault in
the library cannot check itself through it; the repetition of library work
is deliberate, not a duplicate to merge.  A dimension comes first, as in
Subspace.span, so that an empty list of rows still has one, and the rank is
len(rref(n, rows)).
"""

from fractions import Fraction
from itertools import combinations


def unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def dense(n, items):
    """The vector of Q^n with the given (index, value) entries, zero elsewhere."""
    v = [Fraction(0)] * n
    for j, x in items:
        v[j] = Fraction(x)
    return v


def bracket(consts, x, y):
    """[x, y] = sum of x_i y_j [e_i, e_j] over the nonzero x_i and y_j, with [e_j, e_i] = -[e_i, e_j]."""
    out = [Fraction(0)] * len(x)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            row = a and b and consts.get((min(i, j), max(i, j)))
            if row and i != j:
                c = a * b if i < j else -a * b
                for k, v in row.items():
                    out[k] += c * v
    return out


def ad(consts, x):
    """ad_x as rows: entry (k, j) is coordinate k of [x, e_j]."""
    n = len(x)
    columns = [bracket(consts, x, unit(n, j)) for j in range(n)]
    return [[columns[j][k] for j in range(n)] for k in range(n)]


def apply(m, v):
    return [sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in m]


def matmul(a, b):
    """The product of a and b; b may be empty only when a is."""
    columns = list(zip(*b))
    return [apply(columns, row) for row in a]


def seeded_gl(n, rng):
    """A matrix of GL(n, Q) with entries in {-1, 0, 1}, drawn from rng until one is invertible."""
    while True:
        p = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if len(rref(n, p)) == n:
            return p


def rebased(n, consts, p):
    """consts in the basis f_a = sum_i p[a][i] e_i, as brackets, and the map of coordinates into it.

    A vector w has coordinates x = w p^-1, so x_m = sum_k w_k q[k][m] for
    q = p^-1, read off the RREF of [p | 1].
    """
    q = [row[n:] for row in rref(2 * n, [list(row) + unit(n, a) for a, row in enumerate(p)])]
    q_t = [list(col) for col in zip(*q)]
    brackets = {}
    for a, b in combinations(range(n), 2):
        x = apply(q_t, bracket(consts, p[a], p[b]))
        brackets[(a, b)] = {m: v for m, v in enumerate(x) if v}
    return brackets, lambda w: apply(q_t, w)


def commutator(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(matmul(a, b), matmul(b, a))]


def killing(n, consts):
    """B(e_i, e_j) = trace(ad_i ad_j), summed entry by entry."""
    ads = [ad(consts, unit(n, i)) for i in range(n)]
    return [
        [sum((a[s][t] * b[t][s] for s in range(n) for t in range(n)), Fraction(0)) for b in ads]
        for a in ads
    ]


def rref(n, rows):
    """The nonzero rows of the reduced row-echelon form of rows in Q^n, as tuples."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(n):
        k = next((k for k in range(r, len(m)) if m[k][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] if x else x for x in m[r]]
        for t in range(len(m)):
            if t != r and m[t][c]:
                f = m[t][c]
                m[t] = [a - f * b if b else a for a, b in zip(m[t], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def pivots(echelon):
    return [next(j for j, x in enumerate(row) if x) for row in echelon]


def nullspace(n, rows):
    """{v : row . v = 0 for every row}: one vector per free column, as sympy's nullspace gives them."""
    red = rref(n, rows)
    piv = pivots(red)
    out = []
    for f in (j for j in range(n) if j not in piv):
        v = unit(n, f)
        for p, row in zip(piv, red):
            v[p] = -row[f]
        out.append(v)
    return out


def reduce(echelon, v):
    """v minus the RREF rows of echelon times v's entries at their pivots."""
    w = [Fraction(x) for x in v]
    for p, row in zip(pivots(echelon), echelon):
        if c := w[p]:
            w = [a - c * b for a, b in zip(w, row)]
    return w


def residual(n, rows, v):
    """v reduced by the RREF of span(rows): zero iff v is in the span."""
    return reduce(rref(n, rows), v)


def contains(n, rows, v):
    return not any(residual(n, rows, v))


def is_ideal(n, consts, amb, h):
    """[x, y] lies in span(h) for every x in amb and y in h."""
    return all(contains(n, h, bracket(consts, x, y)) for x in amb for y in h)


def ideal_closure(n, consts, amb, h):
    """RREF rows of the least span holding h and closed under [amb, -]: add every bracket until the rank stops."""
    rows = rref(n, h)
    while True:
        grown = rref(n, [*rows, *(bracket(consts, x, y) for x in amb for y in rows)])
        if len(grown) == len(rows):
            return rows
        rows = grown


def closure(n, consts, generators):
    """RREF rows of the subalgebra generated: add every pair's bracket until the rank stops."""
    rows = rref(n, generators)
    while True:
        grown = rref(n, [*rows, *(bracket(consts, x, y) for x, y in combinations(rows, 2))])
        if len(grown) == len(rows):
            return rows
        rows = grown


def derivations(n, consts):
    """RREF rows of D(g): the f with f[e_i, e_j] = [f e_i, e_j] + [e_i, f e_j], flattened row-major (f_ab at a * n + b)."""
    e = [unit(n, i) for i in range(n)]
    b = [[bracket(consts, x, y) for y in e] for x in e]
    equations = []
    for i, j in combinations(range(n), 2):
        for k in range(n):
            # coordinate k of f[e_i, e_j] - [f e_i, e_j] - [e_i, f e_j], one coefficient per f_ab
            row = [Fraction(0)] * (n * n)
            for m in range(n):
                row[k * n + m] += b[i][j][m]
                row[m * n + i] -= b[m][j][k]
                row[m * n + j] -= b[i][m][k]
            equations.append(row)
    return rref(n * n, nullspace(n * n, equations))


def matrices(n, integer_rows):
    """A span's (L, rows) of sparse n x n matrices flattened row-major, as dense matrices over L."""
    L, rows = integer_rows
    out = []
    for row in rows:
        m = [[Fraction(0)] * n for _ in range(n)]
        for idx, v in row:
            m[idx // n][idx % n] = Fraction(v, L)
        out.append(m)
    return out
