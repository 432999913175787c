import ast
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

import reference
from lieideal import exactlin
from lieideal.exactlin import (
    MAX_LITERAL_DIGITS,
    Commutator,
    Echelon,
    Inertia,
    Mat,
    SolutionBasis,
    Subspace,
    inertia,
    intersect,
    lift,
    nullspace,
    orthogonal_complement,
    parse_literal,
    parse_rational,
    rat,
    subspace_sum,
)

# the values of st.fractions(-4, 4, max_denominator=6), every rational in
# [-4, 4] with denominator at most 6, drawn from a list as ENTRIES below is:
# cheaper to draw; 0 first, for shrinking
rationals = st.sampled_from(
    sorted({Fraction(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)}, key=lambda x: (abs(x), x))
)


def small_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Mat(rows, cols=c))
        )
    )


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    assert str(rat("2/4")) == "1/2"
    # parse_rational, for literals from outside, bounds their size first
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("1.5e-3") == Fraction(3, 2000)
    # the size is the literal's length plus its exponent: 5 + 995 is the cap
    assert MAX_LITERAL_DIGITS == 1000
    assert parse_rational("1e995") == 10**995
    for text in (
        "1e996",
        "1e999999999",
        "0E-999999999",
        "1e5000",
        "7" * (MAX_LITERAL_DIGITS + 1),
        f"1/{'3' * MAX_LITERAL_DIGITS}",
    ):
        with pytest.raises(ValueError):
            parse_rational(text)
    # an underscore is refused on every Python version, wherever it stands
    for text in ("1_0", "1/1_0", "1.0_5", "1e1_0"):
        with pytest.raises(ValueError, match="underscore"):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def literal_outcome(read, text):
    """read(text), or the type and message of the exception it raised."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


LITERALS = {
    "3": (3, 1),
    "-3": (-3, 1),
    "-0": (0, 1),
    "+3": (3, 1),
    "2/4": (1, 2),
    "0/5": (0, 1),
    "-6/-4": ValueError,
    "007/014": (1, 2),
    "3/": ValueError,
    "-3/": ValueError,
    "/3": ValueError,
    "--1": ValueError,
    "1/0": ZeroDivisionError,
    "0/0": ZeroDivisionError,
    "1.5e-3": (3, 2000),
    "\u0663": ValueError,  # an Arabic-Indic three, which Fraction reads as 3
    "\uff13": ValueError,  # a fullwidth three
    "1/\u0663": ValueError,
    "1_0": ValueError,
    "9" * 5000: ValueError,
    "9" * MAX_LITERAL_DIGITS: (10**MAX_LITERAL_DIGITS - 1, 1),
}


@pytest.mark.parametrize("text", LITERALS, ids=lambda t: t if len(t) < 20 else f"{len(t)} digits")
def test_parse_literal_reads_plain_literals_as_fraction_does(text):
    got, want = literal_outcome(parse_literal, text), LITERALS[text]
    # the int() path and the Fraction path: the same value, or the same refusal
    assert got == literal_outcome(exactlin._fraction_literal, text)
    if isinstance(want, tuple):
        assert got == want == (Fraction(text).numerator, Fraction(text).denominator)
        assert parse_rational(text) == Fraction(text)
    else:
        assert got[0] is want


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="-+/0123456789.e_\u0663", max_size=8),
        st.from_regex(r"-?[0-9]{0,5}(/-?[0-9]{0,5})?", fullmatch=True),
    )
)
def test_parse_literal_matches_its_fraction_path(text):
    assert literal_outcome(parse_literal, text) == literal_outcome(exactlin._fraction_literal, text)


def test_a_refused_literal_is_quoted_by_the_one_rule():
    # up to 20 characters a literal keeps Fraction's own message, and past them it is cut
    for text in ("1/2x", "abc", "1..2", "x" * 20):
        with pytest.raises(ValueError) as want:
            Fraction(text)
        assert literal_outcome(parse_literal, text) == (ValueError, str(want.value))
    assert literal_outcome(parse_literal, "x" * 21) == (
        ValueError,
        f"Invalid literal for Fraction: {'x' * 20!r}... (21 characters)",
    )


def quoted_by_characters(text, width):
    """The rule before the byte bound: the first width characters, whatever their repr."""
    return repr(text) if len(text) <= width else f"{text[:width]!r}... ({len(text)} characters)"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=70))
def test_quoted_keeps_printable_ascii_as_it_was(text):
    # text that repr writes as itself, between the quotes: no backslash, not both quote kinds
    assume(repr(text)[1:-1] == text)
    for width in (20, 60):
        assert exactlin.quoted(text, width) == quoted_by_characters(text, width)


@given(st.text(max_size=200), st.sampled_from([1, 20, 60]))
@example("\x01" * 5000, 20)
@example("\xe9" * 5000, 60)
@example("\U0001f600" * 100, 20)
@example("\\" * 5000, 60)
@example("\\" * 15, 20)
@example("'\"" * 30, 20)
def test_quoted_form_fits_in_width_plus_two_bytes(text, width):
    # repr writes a backslash as two bytes and a control character as four,
    # and UTF-8 takes two or more for é
    shown = exactlin.quoted(text, width)
    note = f"... ({len(text)} characters)"
    head = shown.removesuffix(note)
    # the quoted head is the text, or a prefix of it followed by the text's length
    assert ast.literal_eval(head) == text if head == shown else text.startswith(ast.literal_eval(head))
    assert len(head.encode()) <= width + 2


def test_rref_identity():
    u = Subspace.span(3, Mat.identity(3).entries)
    assert u.basis == Mat.identity(3)
    assert u.pivots == (0, 1, 2)


def test_rref_zero():
    u = Subspace.span(2, Mat([[0, 0], [0, 0]]).entries)
    assert u == Subspace.zero(2)
    assert u.basis == Mat([], cols=2)
    assert u.pivots == ()


def test_rref_rank_one():
    u = Subspace.span(2, Mat([[2, 4], [1, 2]]).entries)
    assert u.basis == Mat([[1, 2]])
    assert u.pivots == (0,)


def test_rref_fractional_entries():
    u = Subspace.span(2, Mat([["1/2", "1/3"], ["1/4", "1/5"]]).entries)
    assert u.basis == Mat.identity(2)
    assert u.pivots == (0, 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(m):
    u = Subspace.span(m.cols, m.entries)
    assert Subspace.span(m.cols, u.basis.entries) == u
    pivots, rows = sympy_rref(list(m.entries))
    assert u.pivots == pivots
    assert [list(r) for r in u.basis.entries] == rows


def test_nullspace_identity_is_zero():
    assert nullspace(Mat.identity(4)).dim == 0


def test_nullspace_zero_matrix_is_full():
    ns = nullspace(Mat([[0, 0, 0], [0, 0, 0]]))
    assert ns == Subspace.full(3)


def test_nullspace_single_constraint():
    ns = nullspace(Mat([[1, 1, 0]]))
    assert ns.dim == 2
    for v in ns.basis.entries:
        assert v[0] + v[1] == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_nullspace_solves_and_ranks(m):
    ns = nullspace(m)
    for v in ns.basis.entries:
        assert not any(m.apply(v))
    span_dim = Subspace.span(m.cols, m.entries).dim
    assert span_dim == sympy_rank(m.entries)
    assert span_dim + ns.dim == m.cols


def vectors(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=0, max_size=4)


@settings(max_examples=50, deadline=None)
@given(vectors(4), vectors(4))
def test_sum_intersect_dimension_formula(us, vs):
    u = Subspace.span(4, us)
    v = Subspace.span(4, vs)
    total = subspace_sum(u, v)
    meet = intersect(u, v)
    assert u.dim + v.dim == total.dim + meet.dim
    assert total.contains(u) and total.contains(v)
    assert u.contains(meet) and v.contains(meet)


def test_sum_with_zero_is_identity():
    u = Subspace.span(3, [[1, 2, 3], [0, 1, 1]])
    assert subspace_sum(u, Subspace.zero(3)) == u


def test_intersect_idempotent():
    u = Subspace.span(3, [[1, 0, 2], [0, 1, 1]])
    assert intersect(u, u) == u


@settings(max_examples=50, deadline=None)
@given(vectors(4), st.data())
def test_lift_takes_rref_coordinates_to_their_combinations(us, data):
    u = Subspace.span(4, us)
    xs = data.draw(st.lists(st.lists(rationals, min_size=u.dim, max_size=u.dim), max_size=3))
    coords = Subspace.span(u.dim, xs)
    basis = u.basis.entries
    combos = [[sum((x[a] * basis[a][j] for a in range(u.dim)), Fraction(0)) for j in range(4)] for x in xs]
    lifted = lift(u, coords)
    assert lifted == Subspace.span(4, combos)
    assert lifted.dim == coords.dim
    # and back: a lifted vector's coordinates in u lie in coords
    for row in lifted.basis.entries:
        back = u.coordinates(row)
        assert coords.contains_vector(back)


def test_lift_refuses_coordinates_of_another_dimension():
    u = Subspace.span(3, [[1, 0, 1], [0, 1, 2]])
    assert lift(u, Subspace.full(2)) == u
    with pytest.raises(ValueError):
        lift(u, Subspace.full(3))


def test_membership_and_coordinates():
    u = Subspace.span(3, [[1, 0, 1], [0, 1, 2]])
    assert u.contains_vector([1, 1, 3])
    assert not u.contains_vector([0, 0, 1])
    coords = u.coordinates((Fraction(2), Fraction(-1), Fraction(0)))
    assert coords == {0: Fraction(2), 1: Fraction(-1)}
    assert u.coordinates((Fraction(0), Fraction(1), Fraction(2))) == {1: Fraction(1)}
    assert u.coordinates((Fraction(0), Fraction(0), Fraction(1))) is None


def test_orthogonal_complement_in_sl2_killing():
    killing = Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    h_line = Subspace.span(3, [[1, 0, 0]])
    comp = orthogonal_complement(killing, h_line)
    assert comp == Subspace.span(3, [[0, 1, 0], [0, 0, 1]])


@settings(max_examples=40, deadline=None)
@given(vectors(3))
def test_orthogonal_complement_dimension_lower_bound(us):
    b = Mat.identity(3)  # nondegenerate, so equality holds
    u = Subspace.span(3, us)
    comp = orthogonal_complement(b, u)
    assert u.dim + comp.dim == 3


def test_orthogonal_complement_degenerate_form_overcounts():
    b = Mat([[1, 0], [0, 0]])
    u = Subspace.span(2, [[0, 1]])
    comp = orthogonal_complement(b, u)
    assert u.dim + comp.dim >= 2
    assert comp == Subspace.full(2)


def test_inertia_identity():
    assert inertia(Mat.identity(3)) == Inertia(3, 0, 0)


def test_inertia_killing_sl2():
    assert inertia(Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])) == Inertia(2, 1, 0)


def test_inertia_killing_so3():
    assert inertia(Mat.identity(3).scale(-2)) == Inertia(0, 3, 0)


def test_inertia_restricted_to_subspace():
    b = Mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert inertia(b, Subspace.span(3, [[1, 0, 0]])) == Inertia(1, 0, 0)
    assert inertia(b, Subspace.span(3, [[0, 1, 0], [0, 0, 1]])) == Inertia(0, 1, 1)


def test_inertia_off_diagonal_pivot():
    # all-zero diagonal forces the off-diagonal congruence trick
    b = Mat([[0, 1], [1, 0]])
    assert inertia(b) == Inertia(1, 1, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia(Mat([[0, 1], [2, 0]]))


def symmetric_matrices(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]))


def invertible_matrices(n):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat(rows)).filter(lambda m: Subspace.span(n, m.entries).dim == n)


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices(3), invertible_matrices(3))
def test_inertia_congruence_invariant(b, p):
    congruent = Mat.from_columns(p.entries) * b * p
    assert inertia(congruent) == inertia(b)


def test_inertia_against_charpoly_sign_count():
    # symmetric => all eigenvalues real => Descartes' rule counts them exactly
    import random

    import sympy

    def descartes_inertia(rows, n):
        lam = sympy.symbols("lam")
        coeffs = sympy.Matrix(rows).charpoly(lam).all_coeffs()
        zero = 0
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
            zero += 1
        signs = [c for c in coeffs if c != 0]
        plus = sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))
        return Inertia(plus, n - zero - plus, zero)

    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        assert inertia(Mat(rows, cols=n)) == descartes_inertia(rows, n)


def test_orthogonal_complement_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        orthogonal_complement(Mat([[0, 1], [2, 0]]), Subspace.span(2, [[1, 0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        orthogonal_complement(Mat.identity(2), Subspace.span(3, [[1, 0, 0]]))


# --- integer inertia and complement against the Fraction routines they replaced ---


def old_inertia(b, u=None):
    """inertia before the integer Schur complements: Fraction congruence on the Gram matrix."""

    def dot(x, y):
        acc = Fraction(0)
        for a, c in zip(x, y):
            if a and c:
                acc += a * c
        return acc

    if u is None:
        u = Subspace.full(b.rows)
    r = u.dim
    ub = [b.apply(row) for row in u.basis.entries]
    m = [[dot(u.basis.entries[i], ub[j]) for j in range(r)] for i in range(r)]
    n_plus = n_minus = n_zero = 0
    i = 0
    while i < r:
        k = next((k for k in range(i, r) if m[k][k]), None)
        if k is None:
            jk = next(((j, l) for j in range(i, r) for l in range(j + 1, r) if m[j][l]), None)
            if jk is None:
                n_zero += r - i
                break
            j, l = jk
            for t in range(r):
                m[j][t] += m[l][t]
            for t in range(r):
                m[t][j] += m[t][l]
            k = j
        if k != i:
            m[i], m[k] = m[k], m[i]
            for t in range(r):
                m[t][i], m[t][k] = m[t][k], m[t][i]
        d = m[i][i]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for t in range(i + 1, r):
            c = m[t][i]
            if c:
                f = c / d
                for s in range(r):
                    m[t][s] -= f * m[i][s]
                for s in range(r):
                    m[s][t] -= f * m[s][i]
        i += 1
    return Inertia(n_plus, n_minus, n_zero)


def reference_complement(b, u):
    """RREF rows of {v : u_i^T B v = 0 for every basis row u_i of u}, by the reference."""
    n = u.ambient_dim
    return reference.rref(n, reference.nullspace(n, reference.matmul(u.basis.entries, b.entries)))


# cheaper to draw than st.fractions, which dominated these tests' time; 0 first, for shrinking
ENTRIES = st.sampled_from(sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)}, key=abs))


def entry_lists(n):
    return st.lists(ENTRIES, min_size=n, max_size=n)


@st.composite
def symmetric_forms(draw):
    """A symmetric rational form of size 1..7: free, zero on the diagonal, diagonal, or of low rank.

    A low-rank form is a sum of fewer than n signed rank-one forms s v v^T,
    so it is degenerate and may be indefinite; the diagonal ones have
    pivots of both signs and zeros.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["free", "zero diagonal", "diagonal", "low rank"]))
    if kind == "low rank":
        signs = st.sampled_from([-3, -1, Fraction(-1, 2), 1, 2])
        terms = draw(st.lists(st.tuples(signs, entry_lists(n)), max_size=n - 1))
        rows = [[sum((s * v[i] * v[j] for s, v in terms), Fraction(0)) for j in range(n)] for i in range(n)]
    else:
        upper = iter(draw(entry_lists(n * (n + 1) // 2)))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = next(upper)
                if kind == "free" or (kind == "zero diagonal") == (i != j):
                    rows[i][j] = rows[j][i] = x
    return Mat(rows, cols=n)


@st.composite
def forms_on_subspaces(draw):
    b = draw(symmetric_forms())
    n = b.rows
    return b, Subspace.span(n, draw(st.lists(entry_lists(n), max_size=n + 1)))


@settings(max_examples=200, deadline=None)
@given(forms_on_subspaces())
@example((Mat([[0, 1, 0], [1, 0, 2], [0, 2, 0]]), Subspace.full(3)))
@example((Mat([[-2, 1], [1, 0]]), Subspace.span(2, [[1, 1]])))
@example((Mat([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]), Subspace.span(4, [[1, 0, 1, 0], [0, 1, 0, 1]])))
def test_integer_inertia_and_complement_match_the_fraction_routines(case):
    b, u = case
    assert inertia(b) == old_inertia(b)
    assert inertia(b, u) == old_inertia(b, u)
    assert orthogonal_complement(b, u).basis.entries == reference_complement(b, u)


def _zero_diagonal_with_a_nonzero_entry(b):
    return any(b.entries[i][j] for i in range(b.rows) for j in range(b.cols)) and not any(
        b.entries[i][i] for i in range(b.rows)
    )


@pytest.mark.parametrize(
    "shape",
    [
        ("e_j + e_k pivot", lambda b: _zero_diagonal_with_a_nonzero_entry(b) and old_inertia(b).n_minus),
        ("degenerate and indefinite", lambda b: (lambda i: i.n_zero and i.n_plus and i.n_minus)(old_inertia(b))),
        ("nondegenerate and indefinite at 7", lambda b: (lambda i: i.dim == 7 and not i.n_zero and i.n_plus and i.n_minus)(old_inertia(b))),
    ],
    ids=lambda shape: shape[0],
)
def test_drawn_forms_reach_every_elimination_path(shape):
    # raises NoSuchExample if the strategy above never draws such a form
    find(symmetric_forms(), shape[1], settings=settings(database=None, max_examples=2000, phases=[Phase.generate]))


def test_mat_multiplication_and_apply():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([["1/2", 0], [1, 1]])
    assert a * b == Mat([["5/2", 2], ["11/2", 4]])
    assert a.apply((Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))


def test_subspace_canonical_equality():
    u = Subspace.span(3, [[2, 0, 4], [1, 1, 1]])
    v = Subspace.span(3, [[1, 1, 1], [3, 1, 5], [1, 0, 2]])
    assert u == v
    assert hash(u) == hash(v)


def reference_commutator(n, x, y):
    """XY - YX of n x n matrices given as flattened (index, value) entries, by the reference, nonzero entries only."""
    x, y = (reference.dense(n * n, m) for m in (x, y))
    x, y = ([v[a * n : (a + 1) * n] for a in range(n)] for v in (x, y))
    return {a * n + b: v for a, row in enumerate(reference.commutator(x, y)) for b, v in enumerate(row) if v}


def square_pairs(max_n=4):
    # small integers with many zeros, as in structure constants and derivations
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(entry, min_size=n * n, max_size=n * n),
            st.lists(entry, min_size=n * n, max_size=n * n),
        )
    )


@settings(max_examples=80, deadline=None)
@given(square_pairs())
def test_commutator_matches_dense_products(case):
    n, xs, ys = case
    sparse_x = {i: Fraction(v) for i, v in enumerate(xs) if v}
    sparse_y = {i: Fraction(v) for i, v in enumerate(ys) if v}
    flat = Commutator(n)(sparse_x.items(), sparse_y.items())
    assert flat == reference_commutator(n, enumerate(xs), enumerate(ys))
    # entries that cancel are dropped, not kept as zeros
    assert all(flat.values())


def supports_meet(n, x, y):
    """A column index of one operand's support is a row index of the other's, read entry by entry."""
    return any(i % n == j // n or j % n == i // n for i, _ in x for j, _ in y)


@st.composite
def sparse_square_rows(draw, max_n=6):
    # a few entries per row, so that many pairs of rows miss each other
    n = draw(st.integers(1, max_n))
    entry = st.dictionaries(st.integers(0, n * n - 1), st.integers(-3, 3).filter(bool), max_size=4)
    return n, [tuple(sorted(row.items())) for row in draw(st.lists(entry, max_size=10))]


@settings(max_examples=150, deadline=None)
@given(sparse_square_rows())
def test_commutator_pairs_are_the_pairs_whose_supports_meet(case):
    n, rows = case
    pairs = Commutator(n).pairs(rows)
    every = list(itertools.combinations(range(len(rows)), 2))
    assert pairs == [(a, b) for a, b in every if supports_meet(n, rows[a], rows[b])]
    # the commutator of every pair left out is zero
    for a, b in set(every) - set(pairs):
        assert reference_commutator(n, rows[a], rows[b]) == {}


def test_commutator_pairs_of_matrix_units():
    # E_ab and E_cd meet iff b == c or d == a
    units = [((0, 1),), ((1, 1),), ((7, 1),), ((3, 1),)]  # E_00, E_01, E_21, E_10 in gl(3)
    assert Commutator(3).pairs(units) == [(0, 1), (0, 3), (1, 3), (2, 3)]
    assert Commutator(3).pairs([]) == [] and Commutator(3).pairs([((4, 1),)]) == []


def test_commutator_drops_cancelled_entries():
    # X = E_01 + E_10 against the identity and itself: XY and YX are both
    # nonzero and every entry of XY - YX cancels
    x = {1: Fraction(1), 2: Fraction(1)}
    identity = {0: Fraction(1), 3: Fraction(1)}
    assert Commutator(2)(x.items(), identity.items()) == {}
    assert Commutator(2)(x.items(), x.items()) == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(
        st.dictionaries(st.integers(0, n * n - 1), st.one_of(st.integers(-3, 3), rationals)),
        min_size=1,
        max_size=4,
    ),
)))
def test_laid_out_commutator_matches_the_old_one(case):
    # one instance brackets every ordered pair, an operand with itself
    # included, so each layout is read again from the cache; zeros are kept
    # in the operands, and ints and Fractions mix
    n, mats = case
    operands = [tuple(m.items()) for m in mats]
    bracket = Commutator(n)
    for x in operands:
        for y in operands:
            assert bracket(x, y) == reference_commutator(n, x, y) == Commutator(n)(x, y)
            # a cached layout gives the entries in the order a fresh one does
            assert list(bracket(x, y)) == list(Commutator(n)(x, y))


def test_commutator_layouts_hold_their_operands():
    # each operand is a temporary with a new value: were its layout not
    # holding it, the next one could take its id and be read through it
    bracket = Commutator(2)
    y = ((1, 1), (2, 1))  # E_01 + E_10
    for t in range(200):
        x = [(t % 4, t + 1)]
        assert bracket(x, y) == reference_commutator(2, x, y)
        del x


# --- the solution-side kernel -------------------------------------------------


@st.composite
def tall_systems(draw):
    """Up to 6 unknowns and 3 * ncols + 4 integer rows: zero, single-term, dense or repeated."""
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    rows = []
    for _ in range(draw(st.integers(0, 3 * ncols + 4))):
        kind = draw(st.sampled_from(["zero", "single", "dense", "repeat"]))
        if kind == "zero" or not ncols:
            rows.append([(c, 0) for c in range(ncols)])
        elif kind == "single":
            rows.append([(draw(st.integers(0, ncols - 1)), draw(st.sampled_from([-2, -1, 1, 3])))])
        elif kind == "repeat" and rows:
            rows.append([(c, 2 * v) for c, v in draw(st.sampled_from(rows))])
        else:
            rows.append([(c, draw(entry)) for c in range(ncols)])
    return ncols, rows


def solution_basis(ncols, rows):
    """The SolutionBasis of the rows: each row's dots summed over the vectors at its columns, then eliminated."""
    solutions = SolutionBasis(ncols)
    for row in rows:
        dots = {}
        for c, a in row:
            for i in solutions.at[c]:
                dots[i] = dots.get(i, 0) + a * solutions.vectors[i][c]
        solutions.eliminate(dots)
    return list(solutions.vectors.values())


def reference_kernel(ncols, rows):
    """RREF rows of the solutions of the sparse integer rows, by the reference."""
    return reference.rref(ncols, reference.nullspace(ncols, [reference.dense(ncols, row) for row in rows]))


@settings(max_examples=150, deadline=None)
@given(tall_systems())
@example((0, []))
@example((0, [[], []]))
@example((3, [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 1), (2, 1)], [(1, 0)]]))
def test_solution_basis_spans_the_echelon_nullspace(case):
    ncols, rows = case
    basis = solution_basis(ncols, rows)
    want = reference_kernel(ncols, rows)
    assert Subspace.integer_span(ncols, map(dict.items, basis)).basis.entries == want
    # a basis: independent, primitive integer vectors, each solving every row
    assert len(basis) == len(want)
    for v in basis:
        assert v and all(type(x) is int and x for x in v.values())
        assert math.gcd(*v.values()) == 1
        assert all(sum(a * v.get(c, 0) for c, a in row) == 0 for row in rows)


@settings(max_examples=150, deadline=None)
@given(tall_systems())
@example((3, [[(0, 1), (1, -1)], [(0, 2), (1, -2)], [(2, 0)]]))
def test_solution_basis_dots_are_the_dense_dot_products(case):
    # each row's dots are read before the row is eliminated, with the dense
    # dots handed to eliminate, so the basis moves on as the dots said
    ncols, rows = case
    solutions = SolutionBasis(ncols)
    for row in rows:
        eq = reference.dense(ncols, row)
        want = {}
        for t, v in solutions.vectors.items():
            d = sum(a * b for a, b in zip(eq, reference.dense(ncols, v.items())))
            if d:
                want[t] = int(d)
        assert solutions.dots(row) == want
        solutions.eliminate(want)


def test_solution_basis_pinned_cases():
    assert solution_basis(0, []) == []
    assert solution_basis(0, [[]]) == []
    # no rows: the unit vectors, in column order
    assert solution_basis(3, []) == [{0: 1}, {1: 1}, {2: 1}]
    # full rank, with a zero and a repeated row among them: nothing is left
    full = [[(0, 1), (1, 2)], [(0, 0)], [(1, 1), (2, -1)], [(0, 2), (1, 4)], [(2, 5)]]
    assert solution_basis(3, full) == []
    # a vector that leaves the basis takes the sparsest hit, ties to the lowest id
    assert solution_basis(2, [[(0, 1), (1, -1)]]) == [{1: 1, 0: 1}]


# --- sparse RREF rows ----------------------------------------------------------


@st.composite
def spanning_sets(draw, max_n=5):
    """A small ambient dim and up to five vectors, mostly zeros, some fractional."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.integers(-3, 3), rationals)
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    return n, [[Fraction(x) for x in v] for v in vecs]


def as_sparse(v):
    return {j: x for j, x in enumerate(v) if x}


def sympy_rank(rows):
    import sympy

    return sympy.Matrix(rows).rank() if rows else 0


@settings(max_examples=80, deadline=None)
@given(spanning_sets(), st.randoms(use_true_random=False))
def test_span_is_independent_of_form_and_order(case, rnd):
    n, vecs = case
    reference = Subspace.span(n, vecs)
    mixed = [as_sparse(v) if rnd.random() < 0.5 else v for v in vecs]
    rnd.shuffle(mixed)
    again = Subspace.span(n, mixed)
    assert again == reference
    assert hash(again) == hash(reference)


def sympy_rref(vecs):
    """Pivots and nonzero rows of sympy's RREF of vecs, as Fractions: an independent reference."""
    import sympy

    if not vecs:
        return (), []
    m, pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vecs]
    ).rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(len(pivots))]
    return tuple(pivots), rows


F = Fraction
V = [F(0), F(-7, 2), F(1, 3), F(0), F(5)]
# pinned inputs: a primitive row whose pivot entry is negative; one span given
# as v and as -3v/7; fractional rows whose RREF has entries off the pivots
PINNED = (
    (2, [[F(-2), F(1)]]),
    (5, [V]),
    (5, [[F(-3, 7) * x for x in V]]),
    (3, [[F(1, 2), F(1, 3), F(5, 7)], [F(-3, 4), F(0), F(2, 9)]]),
    (4, [[F(2, 3), F(0), F(-1, 6), F(4, 5)], [F(1, 3), F(0), F(1, 4), F(0)],
         [F(1), F(0), F(1, 12), F(4, 5)]]),
)


def pinned(test):
    for case in PINNED:
        test = example(case)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(spanning_sets())
@pinned
def test_rows_are_sparse_rref_and_basis_is_the_rref_view(case):
    n, vecs = case
    u = Subspace.span(n, map(as_sparse, vecs))
    for row in u.integer_rows[1]:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        assert all(v for _, v in row), "a stored row holds a zero"
    pivots, ref = sympy_rref(vecs)
    assert u.pivots == pivots
    assert u.basis.entries == tuple(map(tuple, ref))
    assert all(type(x) is Fraction for row in u.basis.entries for x in row)
    if not vecs:
        assert u == Subspace.zero(n) and u.basis == Mat([], cols=n)
    # the stored form is canonical: every vector times -3/7 spans the same rows
    again = Subspace.span(n, [[F(-3, 7) * x for x in v] for v in vecs])
    assert again == u and again.integer_rows == u.integer_rows and hash(again) == hash(u)


@settings(max_examples=80, deadline=None)
@given(spanning_sets(), st.data())
def test_membership_kernel_against_rank(case, data):
    n, vecs = case
    u = Subspace.span(n, vecs)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(vecs), max_size=len(vecs)))
    member = [sum((c * v[j] for c, v in zip(coeffs, vecs)), Fraction(0)) for j in range(n)]
    other = [Fraction(x) for x in data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    for w in (member, other):
        inside = sympy_rank(vecs + [w]) == sympy_rank(vecs)
        for form in (w, as_sparse(w)):
            assert (not u.residual(form)) == inside
            assert u.contains_vector(form) == inside
            coords = u.coordinates(form)
            if not inside:
                assert coords is None
                continue
            assert all(coords.values())
            rebuilt = [Fraction(0)] * n
            L, rows = u.integer_rows
            for i, c in coords.items():
                for j, b in rows[i]:
                    rebuilt[j] += c * Fraction(b, L)
            assert rebuilt == w
        assert all(u.residual(w).values())


# --- integer views ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(spanning_sets())
@pinned
def test_integer_rows_scale_the_rref_rows_by_their_lcm(case):
    n, vecs = case
    u = Subspace.span(n, vecs)
    L, rows = u.integer_rows
    pivots, ref = sympy_rref(vecs)
    assert type(L) is int
    assert L == math.lcm(*(x.denominator for row in ref for x in row))
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    assert len(rows) == u.dim == len(ref)
    for p, irow, want in zip(pivots, rows, ref):
        assert all(type(b) is int and b for _, b in irow)
        assert dict(irow)[p] == L
        assert irow == tuple((j, x * L) for j, x in enumerate(want) if x)
    assert "integer_rows" in {f.name for f in dataclasses.fields(Subspace)}


@settings(max_examples=80, deadline=None)
@given(spanning_sets(), st.data())
def test_residual_matches_the_fraction_loop(case, data):
    n, vecs = case
    u = Subspace.span(n, vecs)
    # raw ints stay ints: the kernel sees int-valued, fractional and mixed input
    entry = st.one_of(st.just(0), st.integers(-3, 3), rationals)
    raw = data.draw(st.lists(entry, min_size=n, max_size=n))
    coeffs = data.draw(st.lists(rationals, min_size=len(vecs), max_size=len(vecs)))
    member = [sum((c * v[j] for c, v in zip(coeffs, vecs)), Fraction(0)) for j in range(n)]
    for w in (raw, member):
        ref = {j: x for j, x in enumerate(reference.residual(n, vecs, w)) if x}
        forms = (w, {j: x for j, x in enumerate(w) if x}, [str(x) for x in w])
        for form in forms:
            got = u.residual(form)
            assert got == ref
            assert all(type(x) is Fraction for x in got.values())
            assert u.contains_vector(form) == (not ref)
            coords = u.coordinates(form)
            if ref:
                assert coords is None
            else:
                want = {i: Fraction(w[p]) for i, p in enumerate(u.pivots) if w[p]}
                assert coords == want
                assert all(type(x) is Fraction for x in coords.values())


def test_pivot_map_is_read_only_and_invisible_to_eq_and_hash():
    vecs = [[1, Fraction(1, 2), 0, 3], [0, 0, 2, Fraction(-1, 3)]]
    filled, fresh = Subspace.span(4, vecs), Subspace.span(4, vecs)
    assert filled.scaled_residual([(1, 1)]) == {1: filled.integer_rows[0]}
    assert "off_pivot" in vars(filled) and "off_pivot" not in vars(fresh)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert len({filled, fresh}) == 1
    with pytest.raises(TypeError):
        filled.off_pivot[1] = ()
    # a copy made through the fields does not carry the map along
    assert "off_pivot" not in vars(dataclasses.replace(filled))


# --- the reduced Echelon against sympy -------------------------------------------


@st.composite
def echelon_systems(draw, max_n=6):
    """Integer or Fraction rows with duplicates and multiples, and sometimes a full-rank set."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-5, 5), rationals)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if rows:  # a duplicate or a multiple of an earlier row
            row = draw(st.sampled_from(rows))
            rows.append([draw(st.sampled_from([1, -2, Fraction(1, 3)])) * x for x in row])
    if draw(st.booleans()):  # rank n reached, then more rows after it
        at = draw(st.integers(0, len(rows)))
        rows[at:at] = [[int(i == j) for j in range(n)] for i in range(n)]
    return n, rows


def assert_reduced(ech):
    """Each row primitive, in ints, zero left of its pivot and at every other pivot."""
    for c, row in ech.pivots.items():
        assert min(row) == c
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert not any(p in row for p in ech.pivots if p != c)


@settings(max_examples=200, deadline=None)
@given(echelon_systems())
@example((3, [[1, 2, 3], [1, 2, 3], [2, 4, 6]]))
@example((2, [[0, 0], [Fraction(1, 2), Fraction(-1, 3)]]))
@example((3, [[0, 1, 1], [1, 1, 0], [1, 0, 0], [1, 1, 1]]))  # a new pivot cleared from rows above
def test_reduced_echelon_matches_sympy_rref_and_nullspace(case):
    import sympy

    n, rows = case
    ech = Echelon(n)
    for row in rows:
        ech.add([(j, x) for j, x in enumerate(row)])
        assert_reduced(ech)
    m = sympy.Matrix([[sympy.Rational(str(x)) for x in r] for r in rows] or [[0] * n])
    rref, pivots = m.rref()
    piv_cols, L, out = ech.rref_rows()
    assert tuple(piv_cols) == pivots
    assert len(out) == len(pivots)
    for i, row in enumerate(out):
        assert dict(row)[piv_cols[i]] == L
        got = [Fraction(0)] * n
        for j, v in row:
            got[j] = Fraction(v, L)
        assert got == [Fraction(int(x.p), int(x.q)) for x in rref.row(i)]
    want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    # the dense reference the other tests compare against gives sympy's rows too
    want_rref = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in rref.row(i)) for i in range(len(pivots)))
    assert reference.rref(n, rows) == want_rref
    assert reference.nullspace(n, rows) == want
    got = []
    for v in ech.nullspace_rows():
        dense = [Fraction(0)] * n
        for j, x in v.items():
            dense[j] = Fraction(x, L)
        got.append(dense)
    assert got == want
