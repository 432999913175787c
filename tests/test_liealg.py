import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lieideal import catalog, liealg, transitivity
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
    saturate,
    span_algebra,
    stable_series,
    sub_radical,
    sub_to_algebra,
    subalgebra,
    validate,
)
from lieideal.suites import radical_corpus, tower_corpus
from lieideal.transitivity import counterexample_extension, ideal_closure, random_solvable_algebra

# every rational in [-3, 3] with denominator at most 4, the values of
# st.fractions(-3, 3, max_denominator=4): cheaper to draw from a list, 0 first
SMALL_RATIONALS = st.sampled_from(
    sorted({Fraction(p, q) for q in range(1, 5) for p in range(-3 * q, 3 * q + 1)}, key=lambda x: (abs(x), x))
)


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


def test_a_failed_construction_recheck_is_an_internal_check_error():
    # validate_or_raise re-checks what a construction built from verified
    # input, so a failure is the program's fault, not a ValueError of input
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(InternalCheckError, match=r"Jacobi identity fails at triple \(i,j,k\)=\(0, 1, 2\)"):
        liealg.validate_or_raise(g)


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
    rows = st.dictionaries(st.integers(p, n - 1), SMALL_RATIONALS, max_size=3)
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


def accumulated(n, brackets):
    """The dense tensor c[i][j][k] of bracket data: each value added at (i, j, k) and subtracted at (j, i, k)."""
    ref = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in brackets.items():
        for k, v in row.items():
            if i != j:
                ref[i][j][k] += Fraction(v)
                ref[j][i][k] -= Fraction(v)
    return ref


@settings(max_examples=60, deadline=None)
@given(two_step_brackets())
@example((3, {(0, 1): {2: 1}, (1, 0): {2: 3}}))
@example((3, {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(1, 2)}, (1, 1): {2: 5}}))
def test_from_brackets_sums_repeats_and_reversed_pairs(data):
    # reference: every value added at (i, j, k) and subtracted at (j, i, k);
    # (i, i) data cancels, since [e_i, e_i] = 0
    n, brackets = data
    ref = accumulated(n, brackets)
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
        k = killing_form(g).matrix.entries

        def value(x, y):
            return sum(a * b for a, b in zip(x, reference.apply(k, y)))

        basis = [g.basis_vector(i) for i in range(g.dim)]
        for x in basis:
            for y in basis:
                for z in basis:
                    assert value(g.bracket(x, y), z) + value(y, g.bracket(x, z)) == 0


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


def old_identity_block(n, N, offset):
    """The dense N x n identity block the embeddings were built from before."""
    return Mat([[1 if i == offset + j else 0 for j in range(n)] for i in range(N)], cols=n)


@pytest.mark.parametrize(
    ("first", "second"), [("sl2", "aff1"), ("abelian(1)", "heisenberg3"), ("gl2", "so3")]
)
def test_block_embeddings_match_the_dense_route(first, second):
    # direct_sum and holomorph embed by blocks, and chain_instances and the
    # counterexample compose them: each image and product must be what the
    # dense identity blocks and the general LinMap.image give
    g1, g2 = catalog.get(first).algebra, catalog.get(second).algebra
    k, e1, e2 = direct_sum(g1, g2)
    g, emb_k, emb_d = holomorph(k)
    maps = [(e1, 0), (e2, g1.dim), (emb_k, 0), (emb_d, k.dim)]
    maps += [(emb_k.compose(e1), 0), (emb_k.compose(e2), g1.dim)]
    for emb, offset in maps:
        n, N = emb.source.dim, emb.target.dim
        dense = LinMap(emb.source, emb.target, old_identity_block(n, N, offset))
        assert dense.offset is None and emb.offset == offset
        assert emb.matrix == dense.matrix and emb == dense
        units = [[int(i == offset + j) for i in range(N)] for j in range(n)]
        assert emb.image() == dense.image() == Subspace.span(N, units)
    assert emb_k.compose(e1).matrix == emb_k.matrix * e1.matrix
    # a map that is not a block composes and images by the general route
    twice = LinMap(k, k, Mat.identity(k.dim).scale(2))
    assert emb_k.compose(twice).offset is None and emb_k.compose(twice).image() == emb_k.image()


def test_coordinate_blocks_refuse_what_does_not_fit():
    assert Subspace.axes(4, 1, 3) == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert Subspace.axes(4, 2, 2) == Subspace.zero(4) and Subspace.axes(4, 0, 4) == Subspace.full(4)
    for start, stop in ((-1, 2), (3, 2), (0, 5)):
        with pytest.raises(ValueError):
            Subspace.axes(4, start, stop)
    assert Mat.unit_block(3, 3) == Mat.identity(3) == Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Mat.unit_block(0, 0) == Mat([], cols=0)
    with pytest.raises(ValueError):
        Mat.unit_block(3, 2, 2)


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


def test_saturate_spans_the_residuals_until_none_escapes():
    # each round hands back the next unit vector, up to e_2
    space = saturate(Subspace.zero(4), lambda s, fresh: [((s.dim, 1),)] if s.dim < 3 else [])
    assert space == Subspace.axes(4, 0, 3)
    assert saturate(space, lambda s, fresh: []) is space


def test_saturate_refuses_a_residual_already_in_the_span():
    # 2 e_0 lies in the line, so spanning it leaves the dimension at 1
    line = Subspace.span(3, [[1, 0, 0]])
    with pytest.raises(InternalCheckError):
        saturate(line, lambda s, fresh: [((0, 2),)])


def test_saturate_hands_round_2_only_the_rows_at_new_pivots():
    # the line at pivot 1 grows by e_0 + 2 e_3, whose pivot 0 comes first
    line = Subspace.span(4, [[0, 1, 1, 0]])
    seen = []

    def escaping(s, fresh):
        seen.append(list(fresh))
        return [((0, 1), (3, 2))] if s.dim == 1 else []

    plane = saturate(line, escaping)
    assert plane.pivots == (0, 1)
    assert seen == [list(line.integer_rows[1]), [((0, 1), (3, 2))]]


def spy_rounds(monkeypatch, module):
    """(space, fresh rows) of every round of module's saturate, recorded as it runs."""
    rounds = []

    def spy(space, escaping):
        def watched(s, fresh):
            rounds.append((s, tuple(fresh)))
            return escaping(s, fresh)

        return saturate(space, watched)

    monkeypatch.setattr(module, "saturate", spy)
    return rounds


def assert_fresh_rows_add_up(rounds, start, final):
    # round 1 takes every row; each later one the rows at the pivots the last space lacked
    assert rounds[0] == (start, start.integer_rows[1]) and rounds[-1][0] == final
    for (before, _), (after, fresh) in zip(rounds, rounds[1:]):
        assert fresh == tuple(r for p, r in zip(after.pivots, after.integer_rows[1]) if p not in before.pivots)
    assert sum(len(fresh) for _, fresh in rounds) == final.dim


def test_saturate_hands_each_row_of_a_closure_to_escaping_once(monkeypatch):
    deepest = 0
    for label, amb, h, chain in radical_corpus(1):
        for outer in (full_subalgebra(amb.parent), amb):
            rounds = spy_rounds(monkeypatch, transitivity)
            assert_fresh_rows_add_up(rounds, h.space, ideal_closure(outer, h).space)
            deepest = max(deepest, len(rounds))
    rng = random.Random(5)
    for seed in range(6):
        g = random_solvable_algebra(random.Random(seed), 3, 2)
        for _ in range(4):
            start = Subspace.span(g.dim, [[rng.randint(-1, 1) for _ in range(g.dim)] for _ in range(2)])
            rounds = spy_rounds(monkeypatch, liealg)
            assert_fresh_rows_add_up(rounds, start, generated_subalgebra(g, start.basis.entries).space)
            deepest = max(deepest, len(rounds))
    # some closure took three rounds that grew it, so later rounds hand out fewer rows
    assert deepest >= 4


def test_is_ideal_brackets_only_the_ambient_rows_h_lacks(monkeypatch):
    # each pair is read once, by scaled_bracket (whose residual is taken) or,
    # on coordinate spaces, by axis_residual; calls records which kernel read it
    calls = []
    real_general, real_axes = LieAlgebra.scaled_bracket, LieAlgebra.axis_residual

    def general(self, x, y):
        calls.append("general")
        return real_general(self, x, y)

    def axes(self, i, j, axis_set):
        calls.append("axes")
        return real_axes(self, i, j, axis_set)

    monkeypatch.setattr(LieAlgebra, "scaled_bracket", general)
    monkeypatch.setattr(LieAlgebra, "axis_residual", axes)
    links, paths = 0, set()
    for seed in range(2):
        for label, amb, h, chain in radical_corpus(seed):
            # each link of a chain is an ideal of the next one
            for inner, outer in zip(chain.links, chain.links[1:]):
                calls.clear()
                assert is_ideal(outer, inner)
                assert len(calls) == (outer.dim - inner.dim) * inner.dim
                paths.update(calls)
                links += 1
    assert links > 100
    assert paths == {"general", "axes"}


def test_stable_series_stops_before_the_first_repeat_within_its_bound():
    assert stable_series(5, lambda k: max(k - 2, 0), 4) == [5, 3, 1, 0]
    with pytest.raises(InternalCheckError):
        stable_series(5, lambda k: max(k - 2, 0), 3)


def test_stable_series_refuses_a_step_that_alternates():
    zero, full = Subspace.zero(2), Subspace.full(2)
    with pytest.raises(InternalCheckError):
        stable_series(zero, lambda s: full if s == zero else zero, 4)


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
    incl = LinMap(algebra, sl2, Mat.from_columns(h.space.basis.entries, rows=3))  # column a is RREF basis row a
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
    """RREF rows of sub_radical without the memo: the radical's rows times h's RREF rows."""
    if h.dim == 0:
        return ()
    rows = reference.matmul(radical(sub_to_algebra(h)).space.basis.entries, h.space.basis.entries)
    return reference.rref(h.parent.dim, rows)


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
        first = sub_radical(h)
        assert first.basis.entries == _sub_radical_reference(h)
        assert sub_radical(h) is first
        assert sub_radical(Subalgebra(h.parent, h.space)) == first


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
    # from_brackets fills (j, i) by antisymmetry, so only Jacobi can fail
    assert_validate_matches_the_plain_walk(g)


def old_jacobi_failure(g):
    """validate's Jacobi walk before its three terms were unrolled."""
    n, nz = g.dim, g.integer_constants[1]
    for i in range(n):
        for j in range(i + 1, n):
            ij, nz_j = nz[i][j], nz[j]
            for k in range(j + 1, n):
                jk, ki = nz_j[k], nz[k][i]
                if not (ij or jk or ki):
                    continue
                acc = {}
                for ab, cc in ((ij, k), (jk, i), (ki, j)):
                    for m, v in ab:
                        for t, w in nz[m][cc]:
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    return (i, j, k)
    return None


# catalog algebras with a basis triple, and a holomorph, built when drawn; the
# names are read on the first draw, not while the module is collected
CORRUPTED = st.deferred(
    lambda: st.sampled_from([n for n in catalog.list_names() if catalog.get(n).algebra.dim >= 3] + ["H(aff1)"])
)


def _uncorrupted(name):
    if name == "H(aff1)":
        return holomorph(catalog.get("aff1").algebra)[0]
    return catalog.get(name).algebra


@settings(max_examples=150, deadline=None)
@given(CORRUPTED, st.data())
def test_unrolled_jacobi_walk_reports_the_old_triple_on_corrupted_tables(name, data):
    # one structure constant of a Lie algebra is moved, antisymmetrically
    g = _uncorrupted(name)
    n = g.dim
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    k = data.draw(st.integers(0, n - 1))
    delta = data.draw(st.sampled_from([-2, -1, 1, 3]))
    den = g.integer_constants[0]
    table = g.scaled_table(den)
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, 0) + delta
    broken = LieAlgebra.from_scaled(n, den, table)
    assert validate(broken).jacobi_failure == old_jacobi_failure(broken)
    assert validate(g).ok and old_jacobi_failure(g) is None


def test_pinned_jacobi_examples():
    good = LieAlgebra.from_brackets(5, SL2_RAD2_RESCALED)
    assert validate(good).ok and good.integer_constants[0] == 840
    assert plain_validation(LieAlgebra.from_brackets(5, SL2_RAD2_BROKEN)) == (None, (0, 1, 4))


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
    ref = accumulated(n, brackets)
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
    entry = st.one_of(st.just(0), st.just(0), SMALL_RATIONALS)
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
    entry = st.one_of(st.just(0), SMALL_RATIONALS)
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
    "basis": lambda q: _span(q).basis.entries,
    "brackets()": lambda q: _heis(q).brackets(),
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

    # basis is the one Fraction view of the RREF rows left on Subspace
    monkeypatch.setattr(Subspace, "basis", property(no_rows))
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


# --- validate's per-pair Jacobi sums against a plain triple walk -------------------


def plain_validation(g):
    """(antisymmetry_failure, jacobi_failure) of the first failing triple, on the dense tensor."""
    n, c = g.dim, g.c
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return (i, j, k), None
    for i, j, k in itertools.combinations(range(n), 3):
        for t in range(n):
            if sum(
                c[a][b][m] * c[m][d][t] for a, b, d in ((i, j, k), (j, k, i), (k, i, j)) for m in range(n)
            ):
                return None, (i, j, k)
    return None, None


def assert_validate_matches_the_plain_walk(g):
    report = validate(g)
    want = plain_validation(g)
    assert (report.antisymmetry_failure, report.jacobi_failure) == want
    assert report.ok == (want == (None, None))


@settings(max_examples=150, deadline=None)
@given(CORRUPTED, st.data())
def test_validate_matches_the_plain_walk_on_corrupted_tensors(name, data):
    # one entry of the dense tensor is moved; half the time its mirror too
    g = _uncorrupted(name)
    n = g.dim
    c = [[list(row) for row in plane] for plane in g.c]
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([-2, -1, F(1, 2), 3]))
    c[i][j][k] += delta
    if data.draw(st.booleans()) and i != j:
        c[j][i][k] -= delta
    assert_validate_matches_the_plain_walk(g)
    assert_validate_matches_the_plain_walk(LieAlgebra(c))


def rebased(g, p):
    """g in the basis f_a = sum_i p[a][i] e_i: [f_a, f_b] has coordinates w Q for Q = p^-1."""
    import sympy

    q = sympy.Matrix(p).inv()
    n = g.dim
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = g.bracket(p[a], p[b])
            brackets[(a, b)] = {
                m: F(str(sum((sympy.Rational(str(w[k])) * q[k, m] for k in range(n)), sympy.Integer(0))))
                for m in range(n)
            }
    return LieAlgebra.from_brackets(n, brackets)


@st.composite
def dense_rebased(draw, move=True):
    """A catalog algebra (or H(aff1)) in a drawn basis with entries in {-1, 0, 1}, moved or not.

    With move=False it is never moved, so it stays a Lie algebra.
    """
    import sympy

    g = _uncorrupted(draw(CORRUPTED))
    n = g.dim
    p = draw(
        st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda m: sympy.Matrix(m).det() != 0
        )
    )
    h = rebased(g, p)
    if move and draw(st.booleans()):
        den = h.integer_constants[0]
        table = h.scaled_table(den)
        i = draw(st.integers(0, n - 2))
        j, k = draw(st.integers(i + 1, n - 1)), draw(st.integers(0, n - 1))
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, 0) + draw(st.sampled_from([-1, 1, 2]))
        h = LieAlgebra.from_scaled(n, den, table)
    return h


@settings(max_examples=60, deadline=None)
@given(dense_rebased())
def test_validate_matches_the_plain_walk_on_dense_rebased_algebras(g):
    assert_validate_matches_the_plain_walk(g)


# --- bracket_spaces(g, u, u) over pairs a < b against every ordered pair ----------


def ordered_pair_span(g, u, v):
    """RREF rows of the span of [x, y] over every ordered pair of rows, by the reference."""
    consts = g.brackets()
    return reference.rref(g.dim, [reference.bracket(consts, x, y) for x in u for y in v])


def old_series(g, u, lower_central):
    series = [reference.rref(g.dim, u.basis.entries)]
    while (nxt := ordered_pair_span(g, series[0] if lower_central else series[-1], series[-1])) != series[-1]:
        series.append(nxt)
    return series


def assert_pairs_span_as_ordered_pairs(g, u):
    assert bracket_spaces(g, u, u).basis.entries == ordered_pair_span(g, u.basis.entries, u.basis.entries)
    assert [s.basis.entries for s in derived_series(g, u)] == old_series(g, u, lower_central=False)
    assert [s.basis.entries for s in lower_central_series(g, u)] == old_series(g, u, lower_central=True)


@pytest.mark.parametrize("seed", range(8))
def test_brackets_of_pairs_match_ordered_pairs_on_random_solvable_algebras(seed):
    rng = random.Random(seed)
    g = random_solvable_algebra(rng, 3 if seed % 4 else 4, 2 + seed % 3)
    assert_pairs_span_as_ordered_pairs(g, Subspace.full(g.dim))
    for _ in range(3):
        vectors = [[rng.randint(-1, 1) for _ in range(g.dim)] for _ in range(2)]
        assert_pairs_span_as_ordered_pairs(g, generated_subalgebra(g, vectors).space)


@settings(max_examples=40, deadline=None)
@given(dense_rebased(move=False), st.data())
def test_brackets_of_pairs_match_ordered_pairs_on_rebased_catalog_algebras(g, data):
    assert_pairs_span_as_ordered_pairs(g, Subspace.full(g.dim))
    vectors = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=g.dim, max_size=g.dim), min_size=1, max_size=2))
    assert_pairs_span_as_ordered_pairs(g, generated_subalgebra(g, vectors).space)


# --- is_homomorphism on integer constants against the dense routine --------------


def reference_is_homomorphism(f):
    """f([e_i, e_j]) == [f(e_i), f(e_j)] for every basis pair, by the reference."""
    n, m = f.source.dim, f.matrix.entries
    src, tgt = f.source.brackets(), f.target.brackets()
    columns = [f.matrix.column(i) for i in range(n)]
    return all(
        reference.apply(m, reference.bracket(src, reference.unit(n, i), reference.unit(n, j)))
        == reference.bracket(tgt, columns[i], columns[j])
        for i, j in itertools.combinations(range(n), 2)
    )


def homomorphism_cases():
    """Catalog maps, identities, rescalings, projections, inclusions and tower embeddings."""
    from lieideal.derivations import derivation_tower

    maps = []
    for name in catalog.list_names():
        entry = catalog.get(name)
        g = entry.algebra
        maps += entry.tagged_maps.values()
        maps.append(LinMap(g, g, Mat.identity(g.dim)))
        maps.append(LinMap(g, g, Mat.identity(g.dim).scale(F(2, 3))))
        for ideal in (center(g), derived_subalgebra(full_subalgebra(g)), radical(g)):
            if ideal.dim < g.dim:
                maps.append(quotient(g, ideal)[1])
        for space in entry.tagged_subalgebras.values():
            h = Subalgebra(g, space)
            maps.append(LinMap(sub_to_algebra(h), g, Mat.from_columns(space.basis.entries, rows=g.dim)))
    for _, g in tower_corpus(0):
        if center(g).dim == 0:  # sl2_rad2 and almost_abelian(1,2) grow a stage
            maps += derivation_tower(g, max_steps=2).embeddings
    # sl2_rad2 onto its rescaling: e_i -> e'_i / d_i, both ways, with den > 1
    g = catalog.get("sl2_rad2").algebra
    d = (F(1, 3), F(1, 2), F(1, 4), F(1, 5), F(1, 7))
    moved = LieAlgebra.from_brackets(5, SL2_RAD2_RESCALED)
    maps.append(LinMap(g, moved, Mat([[1 / d[i] if i == j else 0 for j in range(5)] for i in range(5)])))
    maps.append(LinMap(moved, g, Mat([[d[i] if i == j else 0 for j in range(5)] for i in range(5)])))
    maps.append(direct_sum(g, moved)[2])
    return maps


def test_integer_homomorphism_check_matches_the_dense_routine():
    maps = homomorphism_cases()
    answers = [reference_is_homomorphism(f) for f in maps]
    assert [is_homomorphism(f) for f in maps] == answers
    assert sum(answers) >= len(maps) // 2 and not all(answers)
    # every entry of every map moved once: most moves break the map
    for f in maps:
        for r, c in itertools.product(range(f.matrix.rows), range(f.matrix.cols)):
            entries = [list(row) for row in f.matrix.entries]
            entries[r][c] += F(1, 2)
            moved = LinMap(f.source, f.target, Mat(entries, cols=f.matrix.cols))
            assert is_homomorphism(moved) == reference_is_homomorphism(moved)
