"""The definite-form and Cartan checks against sympy references.

adjoint_is_skew reads each integer row of a subspace through
LieAlgebra.scaled_adjoint and the nonzero entries of the form, and
cartan_eigenspaces takes theta - I and theta + I through column_kernel.  The
references build ad_x column by column from the dense bracket and take
ad_x^T B + B ad_x, and the nullspaces of theta -+ I, in sympy.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import find, given, settings
from hypothesis import strategies as st

from lieideal import catalog
from lieideal.exactlin import Inertia, Mat, Subspace
from lieideal.liealg import (
    LieAlgebra,
    LinMap,
    Subalgebra,
    SymForm,
    direct_sum,
    full_subalgebra,
    killing_form,
    radical,
    validate,
)
from lieideal.transitivity import (
    HypothesisError,
    adjoint_is_skew,
    cartan_eigenspaces,
    check_self_normalizing_theorem,
    check_skew_form_criterion,
)


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(vector):
    return [Fraction(int(v.p), int(v.q)) for v in vector]


def sympy_is_skew(g, form, u):
    """ad_x^T B + B ad_x == 0 in sympy for every RREF basis vector x of u."""
    n = g.dim
    b = to_sympy(form.matrix.entries)
    for x in u.basis.entries:
        columns = [g.bracket(x, g.basis_vector(j)) for j in range(n)]
        ad = to_sympy([[columns[j][k] for j in range(n)] for k in range(n)])
        if not (ad.T * b + b * ad).is_zero_matrix:
            return False
    return True


# --- adjoint_is_skew -------------------------------------------------------------


def test_skew_check_matches_sympy_on_every_catalog_form_and_killing_form():
    outcomes = set()
    for name in catalog.list_names():
        entry = catalog.get(name)
        g = entry.algebra
        forms = [*entry.tagged_forms.values(), killing_form(g)]
        spaces = [Subspace.full(g.dim), Subspace.zero(g.dim), *entry.tagged_subalgebras.values()]
        spaces += [Subspace.span(g.dim, [{i: 1}]) for i in range(g.dim)]
        for form, u in itertools.product(forms, spaces):
            got = adjoint_is_skew(g, form, u)
            assert got == sympy_is_skew(g, form, u), (name, form, u)
            outcomes.add(got)
    assert outcomes == {True, False}


DRAWN = ("sl2", "so3", "heisenberg3", "aff1", "gl2", "sl2_rad2", "so3_sum_so3")
ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def forms_and_subspaces(draw):
    """(g, form, u): a symmetric rational form, c * Killing plus a symmetric perturbation or not."""
    g = catalog.get(draw(st.sampled_from(DRAWN))).algebra
    n = g.dim
    c = draw(st.sampled_from([1, -1, Fraction(2, 3)]))
    rows = [[c * x for x in row] for row in killing_form(g).matrix.entries]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i, n):
                d = draw(ENTRY)
                rows[i][j] += d
                if j != i:
                    rows[j][i] += d
    vectors = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), max_size=3))
    return g, SymForm(g, Mat(rows)), Subspace.span(n, vectors)


@settings(max_examples=80, deadline=None)
@given(forms_and_subspaces())
def test_skew_check_matches_sympy_on_drawn_forms_and_subspaces(case):
    g, form, u = case
    assert adjoint_is_skew(g, form, u) == sympy_is_skew(g, form, u)


@pytest.mark.parametrize("outcome", [True, False])
def test_drawn_forms_reach_both_outcomes(outcome):
    # raises NoSuchExample if the strategy above never gives this outcome
    find(forms_and_subspaces(), lambda case: adjoint_is_skew(*case) == outcome)


def so(n):
    """so(n) in the basis L_ab = E_ab - E_ba, a < b, its brackets read off matrix commutators."""
    pairs = list(itertools.combinations(range(n), 2))

    def matrix(a, b):
        return [[int((i, j) == (a, b)) - int((i, j) == (b, a)) for j in range(n)] for i in range(n)]

    def product(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    brackets = {}
    for (s, p), (t, q) in itertools.combinations(enumerate(pairs), 2):
        x, y = matrix(*p), matrix(*q)
        xy, yx = product(x, y), product(y, x)
        # L_ab's coordinate is the (a, b) entry of an antisymmetric matrix
        brackets[(s, t)] = {r: xy[a][b] - yx[a][b] for r, (a, b) in enumerate(pairs) if xy[a][b] - yx[a][b]}
    return LieAlgebra.from_brackets(len(pairs), brackets, name=f"so({n})")


@pytest.mark.parametrize("n", range(3, 9))
def test_minus_killing_makes_every_ad_skew_on_so_n_and_a_bump_does_not(n):
    g = so(n)
    assert validate(g).ok and g.dim == n * (n - 1) // 2
    minus_killing = killing_form(g).matrix.scale(-1)
    bumped = [list(row) for row in minus_killing.entries]
    bumped[0][0] += 1  # ad_{L_02} has [L_02, L_12] on L_01, so it stops being skew
    full = Subspace.full(g.dim)
    for rows, skew in ((minus_killing.entries, True), (bumped, False)):
        form = SymForm(g, Mat(rows))
        assert adjoint_is_skew(g, form, full) is skew
        assert sympy_is_skew(g, form, full) is skew


# --- closed-form signatures at scale ------------------------------------------------


def matrix_algebra(n, traceless):
    """sl(n) (traceless) or gl(n) in the basis E_ab (a != b), H_a = E_aa - E_(a+1)(a+1), then E_(n-1)(n-1) for gl(n).

    Brackets are commutators of sparse matrices {(i, j): v}.  A diagonal D
    has H_a-coordinate D_0 + ... + D_a, and E_(n-1)(n-1)-coordinate trace(D).
    """
    basis = [{(a, b): 1} for a in range(n) for b in range(n) if a != b]
    off_diagonal = {key: r for r, m in enumerate(basis) for key in m}
    basis += [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n - 1)]
    if not traceless:
        basis.append({(n - 1, n - 1): 1})

    def coordinates(m):
        out = {off_diagonal[key]: v for key, v in m.items() if key[0] != key[1] and v}
        h = 0
        for a in range(n - 1):
            h += m.get((a, a), 0)
            if h:
                out[n * (n - 1) + a] = h
        trace = sum(m.get((a, a), 0) for a in range(n))
        if not traceless and trace:
            out[len(basis) - 1] = trace
        return out

    def commutator(x, y):
        out = {}
        for left, right, sign in ((x, y, 1), (y, x, -1)):
            for (i, k), u in left.items():
                for (k2, j), v in right.items():
                    if k == k2:
                        out[(i, j)] = out.get((i, j), 0) + sign * u * v
        return out

    brackets = {
        (s, t): coordinates(commutator(basis[s], basis[t]))
        for s, t in itertools.combinations(range(len(basis)), 2)
    }
    return LieAlgebra.from_brackets(len(basis), brackets, name=f"{'sl' if traceless else 'gl'}({n})")


@pytest.mark.parametrize("n", range(2, 7))
def test_killing_form_of_sl_n_has_the_split_signature_and_no_radical(n):
    g = matrix_algebra(n, traceless=True)
    assert validate(g).ok and g.dim == n * n - 1
    assert killing_form(g).inertia_on() == Inertia(n * (n + 1) // 2 - 1, n * (n - 1) // 2, 0)
    assert radical(g).dim == 0


@pytest.mark.parametrize("n", range(3, 10))
def test_minus_killing_is_positive_definite_on_so_n_with_no_radical(n):
    g = so(n)
    minus_killing = SymForm(g, killing_form(g).matrix.scale(-1))
    assert minus_killing.inertia_on() == Inertia(g.dim, 0, 0)
    assert radical(g).dim == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_radical_of_gl_n_is_the_scalars(n):
    g = matrix_algebra(n, traceless=False)
    assert validate(g).ok and g.dim == n * n
    # the identity: H_a-coordinate a + 1, E_(n-1)(n-1)-coordinate n
    scalars = {n * (n - 1) + a: a + 1 for a in range(n - 1)} | {g.dim - 1: n}
    assert radical(g).space == Subspace.span(g.dim, [scalars])


# --- a form on another algebra -----------------------------------------------------


def foreign_form():
    """sl2's compact-embedding form, positive definite, handed over on so3 instead."""
    entry = catalog.get("sl2")
    return SymForm(catalog.get("so3").algebra, entry.tagged_forms["compact_embedding"].matrix)


@pytest.mark.parametrize("tag", ["skew_form", "compact", "compactly_embedded"])
def test_every_form_tag_refuses_a_form_on_another_algebra(tag):
    entry = catalog.get("sl2")
    sl2 = entry.algebra
    h = Subalgebra(sl2, entry.tagged_subalgebras["compact_line"])
    with pytest.raises(ValueError, match="different algebra") as refused:
        check_self_normalizing_theorem(sl2, h, tag, form=foreign_form())
    assert not isinstance(refused.value, HypothesisError)


def test_skew_form_criterion_and_skew_check_refuse_a_form_on_another_algebra():
    entry = catalog.get("sl2")
    sl2 = entry.algebra
    h = Subalgebra(sl2, entry.tagged_subalgebras["compact_line"])
    with pytest.raises(ValueError, match="different algebra") as refused:
        check_skew_form_criterion(sl2, foreign_form(), h, full_subalgebra(sl2))
    assert not isinstance(refused.value, HypothesisError)
    with pytest.raises(ValueError, match="different algebra"):
        adjoint_is_skew(sl2, foreign_form(), h.space)
    with pytest.raises(ValueError, match="different algebra"):
        adjoint_is_skew(sl2, entry.tagged_forms["killing"], Subspace.full(4))


# --- cartan_eigenspaces ----------------------------------------------------------


def sl2_plus_so3_involution():
    """sl2 (+) so3 with sl2's Cartan involution on the first factor and 1 on so3, as the forms suite builds it."""
    g, _, _ = direct_sum(catalog.get("sl2").algebra, catalog.get("so3").algebra)
    th1 = catalog.get("sl2").tagged_maps["cartan_involution"].matrix
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            rows[i][j] = th1.entries[i][j]
        rows[3 + i][3 + i] = Fraction(1)
    return g, LinMap(g, g, Mat(rows))


def catalog_involution(name):
    entry = catalog.get(name)
    return entry.algebra, entry.tagged_maps["cartan_involution"]


@pytest.mark.parametrize("case", ["sl2", "so3", "sl2+so3"])
def test_cartan_eigenspaces_match_sympy_nullspaces(case):
    g, theta = sl2_plus_so3_involution() if case == "sl2+so3" else catalog_involution(case)
    n = g.dim
    decomp = cartan_eigenspaces(g, theta)
    for sign, got in ((1, decomp.compact_part.space), (-1, decomp.noncompact_part)):
        kernel = (to_sympy(theta.matrix.entries) - sign * sympy.eye(n)).nullspace()
        assert got == Subspace.span(n, [from_sympy(v) for v in kernel])
