import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieideal import catalog
from lieideal.derivations import derivation_algebra, holomorph, is_characteristic
from lieideal.exactlin import Mat, Subspace, inertia, intersect, subspace_sum
from lieideal.liealg import (
    InternalCheckError,
    LieAlgebra,
    LinMap,
    Subalgebra,
    bracket_spaces,
    center,
    centralizer,
    derived_series,
    derived_subalgebra,
    direct_sum,
    full_subalgebra,
    generated_subalgebra,
    is_automorphism,
    is_homomorphism,
    is_ideal,
    is_perfect,
    is_semisimple,
    killing_form,
    lower_central_series,
    normalizer,
    quotient,
    radical,
    span_algebra,
    sub_radical,
    sub_to_algebra,
    subalgebra,
    validate,
)
from lieideal.suites import radical_corpus
from lieideal.transitivity import counterexample_extension, ideal_closure


@pytest.fixture(scope="module")
def heis():
    return catalog.get("heisenberg3").algebra


@pytest.fixture(scope="module")
def sl2():
    return catalog.get("sl2").algebra


@pytest.fixture(scope="module")
def aff1():
    return catalog.get("aff1").algebra


# --- validation -------------------------------------------------------------


def test_validate_abelian():
    assert validate(catalog.abelian(3)).ok


def test_validate_heisenberg(heis):
    assert validate(heis).ok


def test_validate_antisymmetry_violation():
    n = 2
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    c[0][1][0] = Fraction(1)
    c[1][0][0] = Fraction(1)  # should be -1
    report = validate(LieAlgebra(c))
    assert not report.ok
    assert report.antisymmetry_failure == (0, 1, 0)


def test_validate_jacobi_violation():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = validate(g)
    assert not report.ok
    assert report.jacobi_failure == (0, 1, 2)


@pytest.mark.parametrize(
    "brackets",
    [
        # [[e250, e251], e252] = -e250, the other two terms vanish
        {(250, 251): {252: 1}, (250, 252): {250: 1}},
        # [e250, e251] = 0, so only the other two pairs carry the failure
        {(251, 252): {250: 1}, (250, 252): {252: -1}},
    ],
)
def test_validate_finds_planted_jacobi_failure_in_sparse_dim_256(brackets):
    report = validate(LieAlgebra.from_brackets(256, brackets))
    assert not report.ok
    assert report.jacobi_failure == (250, 251, 252)


# --- sparse storage ---------------------------------------------------------


@st.composite
def two_step_brackets(draw):
    """Random sparse bracket data for an algebra with [g, g] central.

    Generators 0..p-1 bracket into the central coordinates p..n-1, so Jacobi
    holds whatever the values.  Pairs come in any order, (i, i) included, and
    values may be zero or cancel against the reversed pair.
    """
    n = draw(st.integers(2, 7))
    p = draw(st.integers(1, n - 1))
    index = st.integers(0, p - 1)
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = st.dictionaries(st.integers(p, n - 1), values, max_size=3)
    brackets = draw(st.dictionaries(st.tuples(index, index), rows, max_size=8))
    return n, brackets


@settings(max_examples=60, deadline=None)
@given(two_step_brackets())
def test_sparse_table_roundtrips(data):
    n, brackets = data
    g = LieAlgebra.from_brackets(n, brackets, name="random")
    for plane in g.integer_constants[1]:
        for terms in plane:
            assert all(v for _, v in terms), "a stored term is zero"
            ks = [k for k, _ in terms]
            assert ks == sorted(set(ks))
    dense = LieAlgebra(g.c)
    assert dense == g and hash(dense) == hash(g)
    assert LieAlgebra.from_brackets(n, g.brackets()) == g
    assert catalog.loads(catalog.dumps(g)) == g


@settings(max_examples=60, deadline=None)
@given(two_step_brackets())
@example((3, {(0, 1): {2: 1}, (1, 0): {2: 3}}))
@example((3, {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(1, 2)}, (1, 1): {2: 5}}))
def test_from_brackets_sums_repeats_and_reversed_pairs(data):
    # reference: every value added at (i, j, k) and subtracted at (j, i, k);
    # (i, i) data cancels, since [e_i, e_i] = 0
    n, brackets = data
    ref = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in brackets.items():
        for k, v in row.items():
            if i != j:
                ref[i][j][k] += v
                ref[j][i][k] -= v
    assert LieAlgebra.from_brackets(n, brackets).c == tuple(tuple(map(tuple, p)) for p in ref)


def ref_integer_constants(n, brackets):
    """(den, num) by definition, from Fraction data with i < j.

    den is the lcm of the reduced denominators of the nonzero constants and
    num[i][j] holds (k, c_ijk * den), with (j, i) the negation.
    """
    c = {}
    for (i, j), row in brackets.items():
        for k, v in row.items():
            if v:
                c[i, j, k], c[j, i, k] = Fraction(v), -Fraction(v)
    den = math.lcm(*(v.denominator for v in c.values()))
    num = tuple(
        tuple(tuple((k, int(c[i, j, k] * den)) for k in range(n) if (i, j, k) in c) for j in range(n))
        for i in range(n)
    )
    return den, num


@st.composite
def integer_tables(draw):
    """(dim, scale, table) with [e_i, e_j] = table[i, j] / scale, i < j.

    Entries take either sign and may be zero; common multiplies the scale and
    every entry, so the gcd has a factor to remove.
    """
    n = draw(st.integers(1, 6))
    common = draw(st.sampled_from([1, 2, 6, 35]))
    scale = draw(st.integers(1, 12)) * common
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return n, scale, {}
    rows = st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9).map(common.__mul__), max_size=3)
    return n, scale, draw(st.dictionaries(st.sampled_from(pairs), rows, max_size=6))


@settings(max_examples=150, deadline=None)
@given(integer_tables())
# an all-zero table: den is 1, whatever the scale
@example((3, 6, {(0, 1): {2: 0}, (1, 2): {}}))
# the scale shares 6 with every entry, and the entries are negative
@example((4, 12, {(0, 1): {2: -18, 3: -30}, (1, 3): {0: -6}}))
def test_from_scaled_matches_the_fraction_reference(data):
    n, scale, table = data
    g = LieAlgebra.from_scaled(n, scale, table)
    brackets = {p: {k: Fraction(v, scale) for k, v in row.items()} for p, row in table.items()}
    den, num = g.integer_constants
    assert (den, num) == ref_integer_constants(n, brackets)
    assert type(den) is int and all(type(v) is int for plane in num for t in plane for _, v in t)
    if not any(v for row in table.values() for v in row.values()):
        assert den == 1
    assert g == LieAlgebra.from_brackets(n, brackets)
    assert LieAlgebra.from_scaled(n, 3 * den, g.scaled_table(3 * den)) == g


def test_from_scaled_rejects_bad_tables():
    for scale, table in (
        (0, {}),
        (-2, {(0, 1): {2: 1}}),
        (1, {(1, 0): {2: 1}}),  # only i < j
        (1, {(1, 1): {2: 1}}),
        (1, {(0, 3): {2: 1}}),
        (1, {(0, 1): {3: 1}}),
        (1, {(0, 1): {-1: 1}}),
    ):
        with pytest.raises(ValueError):
            LieAlgebra.from_scaled(3, scale, table)
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(3, {(0, 1): {2: F(1, 2)}}).scaled_table(3)


def test_from_brackets_rejects_output_index_out_of_range():
    for k in (-1, 3):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(3, {(0, 1): {k: 1}})


def test_large_sparse_algebra_stores_only_nonzero_terms():
    g = LieAlgebra.from_brackets(200, {(0, 1): {2: 1}})
    assert validate(g).ok
    den, num = g.integer_constants
    terms = [t for plane in num for row in plane for t in row]
    assert den == 1 and terms == [(2, 1), (2, -1)]
    assert g.scaled_bracket(((1, 1),), ((0, 1),)) == {2: -1}


# --- brackets ---------------------------------------------------------------


def test_bracket_of_vector_with_itself_is_zero(sl2):
    x = (Fraction(1), Fraction(2), Fraction(-3))
    assert sl2.bracket(x, x) == (Fraction(0),) * 3


def test_heisenberg_defining_bracket(heis):
    assert heis.bracket(heis.basis_vector(0), heis.basis_vector(1)) == heis.basis_vector(2)


def test_adjoint_of_cartan_element(sl2):
    ad_h = sl2.adjoint_matrix(sl2.basis_vector(0)).matrix
    assert ad_h == Mat([[0, 0, 0], [0, 2, 0], [0, 0, -2]])


def test_bracket_bilinear(sl2):
    x = (Fraction(1), Fraction(0), Fraction(2))
    y = (Fraction(0), Fraction(1), Fraction(1))
    z = (Fraction(3), Fraction(-1), Fraction(0))
    lhs = sl2.bracket(x, tuple(a + b for a, b in zip(y, z)))
    rhs = tuple(a + b for a, b in zip(sl2.bracket(x, y), sl2.bracket(x, z)))
    assert lhs == rhs


def test_bracket_spaces_zero_and_full(heis, sl2):
    full3 = Subspace.full(3)
    assert bracket_spaces(heis, full3, Subspace.zero(3)).dim == 0
    assert bracket_spaces(heis, full3, full3) == Subspace.span(3, [[0, 0, 1]])
    assert bracket_spaces(sl2, full3, full3) == full3


# --- subalgebras ------------------------------------------------------------


def test_subalgebra_rejects_non_closed(sl2):
    with pytest.raises(ValueError):
        subalgebra(sl2, [[0, 1, 0], [0, 0, 1]])  # span(E, F) brackets to H


def test_generated_subalgebra_closes(sl2):
    gen = generated_subalgebra(sl2, [[0, 1, 0], [0, 0, 1]])
    assert gen.dim == 3


def test_derived_and_perfect(sl2, heis):
    assert derived_subalgebra(full_subalgebra(sl2)).dim == 3
    assert is_perfect(full_subalgebra(sl2))
    assert derived_subalgebra(full_subalgebra(catalog.abelian(2))).dim == 0
    assert not is_perfect(full_subalgebra(heis))


def test_sl2_rad2_perfect_killing_degenerate():
    g = catalog.get("sl2_rad2").algebra
    assert is_perfect(full_subalgebra(g))
    assert not inertia(killing_form(g).matrix).is_nondegenerate()


# --- center / centralizer / normalizer --------------------------------------


def test_center_heisenberg(heis):
    assert center(heis).space == Subspace.span(3, [[0, 0, 1]])


def test_centralizer_of_x_in_heisenberg(heis):
    h = subalgebra(heis, [[1, 0, 0]])
    assert centralizer(heis, h).space == Subspace.span(3, [[1, 0, 0], [0, 0, 1]])


def test_normalizer_in_heisenberg(heis):
    h = subalgebra(heis, [[1, 0, 0]])
    assert normalizer(heis, h).space == Subspace.span(3, [[1, 0, 0], [0, 0, 1]])


def test_normalizer_of_cartan_is_itself(sl2):
    h = subalgebra(sl2, [[1, 0, 0]])
    assert normalizer(sl2, h).space == h.space


def test_normalizer_contains_h_and_h_is_ideal_in_it():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        dsub = derived_subalgebra(full_subalgebra(g))
        n = normalizer(g, dsub)
        assert n.space.contains(dsub.space)
        assert is_ideal(n, dsub)


# --- ideals -----------------------------------------------------------------


def test_ideal_examples(heis, aff1):
    assert is_ideal(aff1, subalgebra(aff1, [[0, 1]]))
    assert not is_ideal(heis, subalgebra(heis, [[1, 0, 0]]))


def test_derived_is_always_ideal():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        assert is_ideal(g, derived_subalgebra(full_subalgebra(g)))


# --- killing form -----------------------------------------------------------


def test_killing_abelian_is_zero():
    assert killing_form(catalog.abelian(3)).matrix == Mat([[0] * 3] * 3)


def test_killing_sl2(sl2):
    assert killing_form(sl2).matrix == Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


def test_killing_so3():
    assert killing_form(catalog.get("so3").algebra).matrix == Mat.identity(3).scale(-2)


def test_killing_ad_invariance_on_catalog():
    # K([x,y],z) + K(y,[x,z]) = 0 on all basis triples
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        k = killing_form(g)
        basis = [g.basis_vector(i) for i in range(g.dim)]
        for x in basis:
            for y in basis:
                for z in basis:
                    assert k.value(g.bracket(x, y), z) + k.value(y, g.bracket(x, z)) == 0


# --- radical ----------------------------------------------------------------


def test_radical_sl2_is_zero(sl2):
    assert radical(sl2).dim == 0
    assert is_semisimple(sl2)


def test_radical_solvable_is_everything():
    g = catalog.get("upper_triangular(3)").algebra
    assert radical(g).dim == 6


def test_radical_gl2_is_scalars():
    g = catalog.get("gl2").algebra
    assert radical(g).space == Subspace.span(4, [[0, 0, 0, 1]])


def test_radical_semisimplicity_tests_agree_everywhere():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        rad = radical(g)  # raises InternalCheckError if the two tests disagree
        assert (rad.dim == 0) == inertia(killing_form(g).matrix).is_nondegenerate()


# --- quotients --------------------------------------------------------------


def test_quotient_by_zero_is_identity(sl2):
    q, proj = quotient(sl2, subalgebra(sl2, []))
    assert q.c == sl2.c
    assert proj.matrix == Mat.identity(3)


def test_quotient_aff1_by_derived(aff1):
    q, proj = quotient(aff1, subalgebra(aff1, [[0, 1]]))
    assert q.dim == 1
    assert q.c == catalog.abelian(1).c


def test_quotient_heisenberg_by_center(heis):
    q, proj = quotient(heis, subalgebra(heis, [[0, 0, 1]]))
    assert q.dim == 2
    assert q.c == catalog.abelian(2).c


def test_quotient_projection_is_surjective_hom_with_kernel_ideal(heis):
    ideal = subalgebra(heis, [[0, 0, 1]])
    q, proj = quotient(heis, ideal)
    assert is_homomorphism(proj)
    assert proj.kernel() == ideal.space
    assert proj.image() == Subspace.full(q.dim)


def test_quotient_rejects_non_ideal(heis):
    with pytest.raises(ValueError):
        quotient(heis, subalgebra(heis, [[1, 0, 0]]))


# --- sums and series --------------------------------------------------------


def test_direct_sum_of_lines_is_abelian_plane():
    g, e1, e2 = direct_sum(catalog.abelian(1), catalog.abelian(1))
    assert g.c == catalog.abelian(2).c
    assert e1.image() == Subspace.span(2, [[1, 0]])
    assert e2.image() == Subspace.span(2, [[0, 1]])


def test_direct_sum_center(aff1):
    g, _, _ = direct_sum(aff1, catalog.abelian(1))
    assert center(g).space == Subspace.span(3, [[0, 0, 1]])


def test_solvable_series_of_upper_triangular():
    g = catalog.get("upper_triangular(3)").algebra
    series = derived_series(g)
    assert [s.dim for s in series] == [6, 3, 1, 0]


def test_lower_central_series_of_heisenberg(heis):
    series = lower_central_series(heis)
    assert [s.dim for s in series] == [3, 1, 0]
    # strictly decreasing until stable
    assert all(a.dim > b.dim for a, b in zip(series, series[1:]))


def test_lower_central_series_stalls_on_non_nilpotent(aff1):
    series = lower_central_series(aff1)
    assert [s.dim for s in series] == [2, 1]


def test_validate_constructed_algebras(sl2, heis):
    g, _, _ = direct_sum(sl2, heis)
    assert validate(g).ok
    q, _ = quotient(heis, subalgebra(heis, [[0, 0, 1]]))
    assert validate(q).ok


# --- homomorphisms ----------------------------------------------------------


def test_identity_is_automorphism(sl2):
    assert is_automorphism(LinMap(sl2, sl2, Mat.identity(3)))


def test_negative_transpose_is_involutive_automorphism(sl2):
    theta = catalog.get("sl2").tagged_maps["cartan_involution"]
    assert is_automorphism(theta)
    assert theta.matrix * theta.matrix == Mat.identity(3)


def test_coordinate_swap_is_not_homomorphism(heis):
    f = LinMap(heis, heis, Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert not is_homomorphism(f)


# --- subalgebra restriction -------------------------------------------------


def test_sub_to_algebra_roundtrip(sl2):
    h = subalgebra(sl2, [[1, 0, 0], [0, 1, 0]])  # borel
    algebra = sub_to_algebra(h)
    incl = LinMap(algebra, sl2, h.space.basis.transpose())  # column a is RREF basis row a
    assert algebra.dim == 2
    assert validate(algebra).ok
    assert is_homomorphism(incl)
    assert incl.image() == h.space


def test_span_algebra_rejects_unclosed_span(sl2):
    e_f = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])  # [E, F] = H escapes
    with pytest.raises(InternalCheckError):
        span_algebra(e_f, sl2.scaled_bracket, 1)


def test_sub_radical_of_factor():
    sl2 = catalog.get("sl2").algebra
    g, e1, e2 = direct_sum(sl2, catalog.abelian(1))
    h = Subalgebra(g, e1.image())
    assert sub_radical(h).dim == 0
    assert sub_radical(full_subalgebra(g)) == e2.image()


def _sub_radical_reference(h):
    """sub_radical without the memo, carried back by the dense inclusion it used to build."""
    if h.dim == 0:
        return Subspace.zero(h.parent.dim)
    algebra = sub_to_algebra(h)
    incl = LinMap(algebra, h.parent, h.space.basis.transpose())
    vectors = [incl.apply(v) for v in radical(algebra).basis_vectors()]
    return Subspace.span(h.parent.dim, vectors)


def test_sub_radical_memo_matches_the_reference():
    subs = {}
    for name in catalog.list_names():
        g = full_subalgebra(catalog.get(name).algebra)
        subs[id(g)] = g
    for seed in (0, 1):
        for _, amb, h, _ in radical_corpus(seed):
            subs[id(amb)] = amb
            subs[id(h)] = h
    for h in subs.values():
        want = _sub_radical_reference(h)
        first = sub_radical(h)
        assert first == want
        assert sub_radical(h) is first
        assert sub_radical(Subalgebra(h.parent, h.space)) == want


def _first_jacobi_failure(g):
    """Reference: the first basis triple i < j < k, in order, breaking Jacobi."""
    e = g.basis_vector
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                terms = [
                    g.bracket(g.bracket(e(a), e(b)), e(c))
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                ]
                if any(sum(col) for col in zip(*terms)):
                    return (i, j, k)
    return None


def rescaled_brackets(g, d):
    """[e'_i, e'_j] for the basis e'_i = d_i e_i: c'_ijk = d_i d_j c_ijk / d_k."""
    return {
        (i, j): {k: d[i] * d[j] * c / d[k] for k, c in row.items()}
        for (i, j), row in g.brackets().items()
    }


# sl2 acting on Q^2, in the basis (H/3, E/2, F/4, v1/5, v2/7): its Jacobi sums
# vanish only by cancellation across denominators (at (1, 2, 3), for one),
# so a check that dropped the denominators would fail there
SL2_RAD2_RESCALED = rescaled_brackets(
    catalog.get("sl2_rad2").algebra,
    (Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)),
)
# the same with [H', v1'] halved: the first failure is (0, 1, 4), and one
# that dropped the denominators would report (1, 2, 3)
SL2_RAD2_BROKEN = {**SL2_RAD2_RESCALED, (0, 3): {3: Fraction(1, 6)}}


@st.composite
def sparse_brackets(draw):
    """Random sparse [e_i, e_j] data, Jacobi or not, with many zero pairs.

    The constants mix denominators, so the common denominator of the
    integer view is rarely 1.
    """
    n = draw(st.integers(3, 7))
    index = st.integers(0, n - 1)
    constants = st.sampled_from([-1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])
    rows = st.dictionaries(index, constants, min_size=1, max_size=2)
    pairs = st.tuples(index, index).filter(lambda p: p[0] < p[1])
    return n, draw(st.dictionaries(pairs, rows, max_size=4))


@settings(max_examples=150, deadline=None)
@given(sparse_brackets())
# fails at (0, 1, 2), where of the three pairs only [e_0, e_2] is nonzero
@example((4, {(0, 2): {3: 1}, (1, 3): {3: 1}}))
@example((5, SL2_RAD2_RESCALED))
@example((5, SL2_RAD2_BROKEN))
def test_validate_reports_the_first_failing_triple(data):
    n, brackets = data
    g = LieAlgebra.from_brackets(n, brackets)
    report = validate(g)
    assert report.jacobi_failure == _first_jacobi_failure(g)
    assert report.ok == (report.jacobi_failure is None)


def test_pinned_jacobi_examples():
    good = LieAlgebra.from_brackets(5, SL2_RAD2_RESCALED)
    assert validate(good).ok and good.integer_constants[0] == 840
    assert _first_jacobi_failure(LieAlgebra.from_brackets(5, SL2_RAD2_BROKEN)) == (0, 1, 4)


@settings(max_examples=100, deadline=None)
@given(sparse_brackets())
@example((5, SL2_RAD2_RESCALED))
# an unreduced string against its reduced value
@example((3, {(0, 1): {2: "2/4"}, (0, 2): {1: "1/3"}}))
# repeats whose sum cancels every denominator: 1/2 + 1/2 gives den 1
@example((3, {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(-1, 2)}, (1, 1): {0: "1/5"}}))
def test_integer_constants_over_the_least_common_denominator(data):
    # reference: the input accumulated densely in Fractions, as from_brackets
    # documents it (repeats add up, (j, i) data is negated, (i, i) data cancels)
    n, brackets = data
    ref = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in brackets.items():
        for k, v in row.items():
            if i != j:
                ref[i][j][k] += Fraction(v)
                ref[j][i][k] -= Fraction(v)
    g = LieAlgebra.from_brackets(n, brackets)
    den, num = g.integer_constants
    assert den == math.lcm(*(c.denominator for p in ref for r in p for c in r if c))
    assert isinstance(num, tuple) and len(num) == n
    for i, row in enumerate(num):
        assert isinstance(row, tuple) and len(row) == n
        for j, terms in enumerate(row):
            assert isinstance(terms, tuple)
            assert [k for k, _ in terms] == sorted({k for k, _ in terms})
            assert all(type(m) is int and m for _, m in terms)
            stored = dict(terms)
            for k in range(n):
                assert Fraction(stored.get(k, 0), den) == ref[i][j][k]
    # equal structures, however they are written, store the same (den, num)
    for same in (LieAlgebra(ref), LieAlgebra.from_brackets(n, g.brackets())):
        assert same.integer_constants == g.integer_constants
        assert same == g and hash(same) == hash(g)
    assert g.renamed("other").integer_constants is g.integer_constants
    # halving every constant keeps num or den apart, so never gives an equal algebra
    half = {p: {k: v / 2 for k, v in row.items()} for p, row in g.brackets().items()}
    assert (LieAlgebra.from_brackets(n, half) == g) == (not half)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(catalog.list_names()), st.data())
def test_dense_bracket_wraps_the_sparse_kernel(name, data):
    g = catalog.get(name).algebra
    entry = st.one_of(st.just(0), st.just(0), st.fractions(-3, 3, max_denominator=4))
    x, y = (
        tuple(Fraction(v) for v in data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim)))
        for _ in range(2)
    )
    # the kernel on Fraction inputs, over den: no denominator is cleared
    den = g.integer_constants[0]
    scaled = g.scaled_bracket(
        [(i, v) for i, v in enumerate(x) if v], [(i, v) for i, v in enumerate(y) if v]
    )
    sparse = {k: v / den for k, v in scaled.items()}
    assert all(sparse.values())
    assert g.bracket(x, y) == tuple(sparse.get(k, Fraction(0)) for k in range(g.dim))
    # bilinear expansion over the basis brackets, independent of both
    ref = [Fraction(0)] * g.dim
    tensor = g.c
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in enumerate(tensor[i][j]):
                ref[k] += x[i] * y[j] * c
    assert g.bracket(x, y) == tuple(ref)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(catalog.list_names()), st.data())
def test_adjoint_matrix_columns_are_brackets_with_basis_vectors(name, data):
    g = catalog.get(name).algebra
    entry = st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
    x = tuple(Fraction(v) for v in data.draw(st.lists(entry, min_size=g.dim, max_size=g.dim)))
    n, den = g.dim, g.integer_constants[0]
    ad = g.adjoint_matrix(x).matrix
    for j in range(n):
        assert ad.column(j) == g.bracket(x, g.basis_vector(j))
    flat = {a * n + b: v * den for a, r in enumerate(ad.entries) for b, v in enumerate(r) if v}
    assert g.scaled_adjoint([(i, v) for i, v in enumerate(x) if v]) == flat


# --- values handed back and the integer-row kernels ----------------------------

F = Fraction
SL2 = catalog.get("sl2").algebra
# [e0, e1] = e2 / 3: an algebra with den > 1 (and 1 / 3 is no float)
THIRD_HEIS = LieAlgebra.from_brackets(3, {(0, 1): {2: F(1, 3)}})


def _span(q):
    return Subspace.span(3, [[q(2), q(4), q(0)], [q(0), q(3), q(6)]])


def _heis(q):
    return LieAlgebra.from_brackets(3, {(0, 1): {2: q(1)}})


# each builds a value from inputs made by q, given int and then Fraction
HANDED_BACK = {
    "bracket": lambda q: SL2.bracket((q(1), q(0), q(0)), (q(0), q(1), q(0))),
    "bracket den > 1": lambda q: THIRD_HEIS.bracket((q(1), q(2), q(0)), (q(3), q(1), q(0))),
    "sub_to_algebra den > 1": lambda q: sub_to_algebra(
        subalgebra(THIRD_HEIS, [[q(2), q(1), q(0)], [q(0), q(3), q(0)], [q(0), q(0), q(6)]])
    ).brackets(),
    "adjoint_matrix den > 1": lambda q: THIRD_HEIS.adjoint_matrix((q(1), q(1), q(0))).matrix.entries,
    "residual": lambda q: _span(q).residual([q(1), q(0), q(1)]),
    "coordinates": lambda q: _span(q).coordinates({0: q(2), 1: q(7), 2: q(6)}),
    "rows": lambda q: [v for row in _span(q).rows for _, v in row],
    "basis": lambda q: _span(q).basis.entries,
    "brackets()": lambda q: _heis(q).brackets(),
    "realization": lambda q: [f.matrix.entries for f in derivation_algebra(_heis(q)).realization],
}


def _scalars(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _scalars(v)]
    return [value]


@pytest.mark.parametrize("name", list(HANDED_BACK))
def test_values_handed_back_are_fractions_on_int_input(name):
    got = _scalars(HANDED_BACK[name](int))
    assert got and all(type(x) is Fraction for x in got)
    assert got == _scalars(HANDED_BACK[name](Fraction))


def test_integer_row_kernels_read_no_fraction_rows(monkeypatch):
    # solvable, den > 1, and spans whose RREF rows have L > 1
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: F(3, 2)}, (0, 3): {3: F(1, 5)}})
    vecs = [[1, F(1, 2), 0, F(1, 3)], [0, 0, F(2, 3), 1]]

    def no_rows(self):
        raise AssertionError("a kernel read the Fraction rows")

    monkeypatch.setattr(Subspace, "rows", property(no_rows))
    u = Subspace.span(4, vecs)
    line = Subalgebra(g, Subspace.span(4, vecs[:1]))
    ideal = Subalgebra(g, Subspace.span(4, [[0, 0, 1, F(1, 3)], [0, 0, 0, F(1, 7)]]))
    closed = generated_subalgebra(g, vecs)
    assert closed.space.contains(u) and not u.contains(closed.space)
    assert is_ideal(g, ideal) and not is_ideal(g, line)
    assert bracket_spaces(g, u, u) == Subspace.span(4, [[0, 0, 0, 1]])
    assert normalizer(g, ideal).dim == 4 and centralizer(g, line).dim == 2
    assert intersect(u, ideal.space) == Subspace.span(4, vecs[1:])
    assert subspace_sum(u, ideal.space).dim == 3
    assert ideal_closure(g, line).dim == 3
    assert span_algebra(ideal.space, g.scaled_bracket, g.integer_constants[0]).dim == 2
    assert is_characteristic(g, ideal)
    assert derivation_algebra(g).dim > 0


def test_builders_read_no_fraction_view(monkeypatch):
    # den = 21 > 1, solvable and so not perfect; its constants are used by no
    # other test, so derivation_algebra solves it here, under the patch
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: F(5, 3)}, (0, 3): {3: F(2, 7)}}, name="g")
    ideal = Subalgebra(g, Subspace.span(4, [[0, 0, 1, F(1, 3)], [0, 0, 0, F(1, 7)]]))
    assert g.integer_constants[0] == 21 and is_ideal(g, ideal)

    def no_view(*args, **kwargs):
        raise AssertionError("a builder read the Fraction view")

    monkeypatch.setattr(LieAlgebra, "brackets", no_view)
    monkeypatch.setattr(LieAlgebra, "from_brackets", staticmethod(no_view))
    misses = derivation_algebra.cache_info().misses
    da = derivation_algebra(g)
    assert derivation_algebra.cache_info().misses > misses
    total, _, _ = direct_sum(g, da.algebra)
    assert total.dim == 4 + da.dim and total.integer_constants[0] % 21 == 0
    big, _, _ = holomorph(g)
    assert big.dim == 4 + da.dim
    q, _ = quotient(g, center(g))  # [e_0, e_3] = 2/7 e_3 survives
    assert q.dim == 3 and q.integer_constants[0] == 7
    assert sub_to_algebra(ideal).dim == 2
    assert counterexample_extension(g).verify()
