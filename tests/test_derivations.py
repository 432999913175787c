import functools
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lieideal import catalog, derivations, liealg
from lieideal.derivations import (
    derivation_algebra,
    derivation_tower,
    holomorph,
    is_characteristic,
    is_complete,
    is_derivation,
    leibniz_defect,
    theorem_derived_check,
)
from lieideal.exactlin import Mat, Subspace
from lieideal.liealg import (
    InternalCheckError,
    LieAlgebra,
    Subalgebra,
    center,
    derived_subalgebra,
    direct_sum,
    full_subalgebra,
    is_homomorphism,
    is_ideal,
    radical,
    subalgebra,
    validate,
)
from lieideal.suites import chain_instances, check_adjoint_identity, perfect_specimens, radical_corpus, run_suites


def test_dimension_abelian():
    for n in (1, 2, 3, 4):
        assert derivation_algebra(catalog.abelian(n)).dim == n * n


def test_dimension_heisenberg_and_trace_constraint():
    g = catalog.get("heisenberg3").algebra
    da = derivation_algebra(g)
    assert da.dim == 6
    # f(z) = (a11 + a22) z is forced
    for m in map(Mat, reference.matrices(g.dim, da.span.integer_rows)):
        image_z = m.apply(g.basis_vector(2))
        assert image_z == tuple(
            (m.entries[0][0] + m.entries[1][1]) * x for x in g.basis_vector(2)
        )


def test_dimension_sl2_all_inner():
    da = derivation_algebra(catalog.get("sl2").algebra)
    assert da.dim == 3
    assert da.inner.dim == 3


def test_every_basis_derivation_satisfies_leibniz():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        da = derivation_algebra(g)
        for f in map(Mat, reference.matrices(g.dim, da.span.integer_rows)):
            assert old_leibniz_defect(g, f) is None
            assert leibniz_defect(g, f) is None


def test_abstract_structure_matches_realization_commutators():
    g = catalog.get("upper_triangular(3)").algebra
    da = derivation_algebra(g)
    d = da.dim
    mats = reference.matrices(g.dim, da.span.integer_rows)
    tensor = da.algebra.c
    for a in range(d):
        for b in range(d):
            comm = Mat(reference.commutator(mats[a], mats[b]))
            assert da.coordinates_of(comm) == tensor[a][b]


def test_inner_derivations_form_an_ideal():
    for name in ("heisenberg3", "gl2", "sl2_rad2", "upper_triangular(3)"):
        g = catalog.get(name).algebra
        da = derivation_algebra(g)
        inner_sub = Subalgebra(da.algebra, da.inner)
        assert is_ideal(da.algebra, inner_sub)


def test_non_derivation_detected():
    g = catalog.get("heisenberg3").algebra
    swap = Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not is_derivation(g, swap)


def old_leibniz_defect(g, f):
    """leibniz_defect before it read the integer constants: the first nonzero defect, pairs i < j in order.

    The three brackets per pair are the reference's, so this pins only that order.
    """
    n, consts = g.dim, g.brackets()
    e = [reference.unit(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = reference.apply(f.entries, reference.bracket(consts, e[i], e[j]))
            rhs1 = reference.bracket(consts, f.column(i), e[j])
            rhs2 = reference.bracket(consts, e[i], f.column(j))
            defect = tuple(a - b - c for a, b, c in zip(lhs, rhs1, rhs2))
            if any(defect):
                return defect
    return None


def defect_algebra(name):
    """A catalog algebra; with "/3" appended, its constants divided by 3 (the basis e_i / 3), so den = 3."""
    g = catalog.get(name.removesuffix("/3")).algebra
    if not name.endswith("/3"):
        return g
    brackets = {p: {k: v / 3 for k, v in row.items()} for p, row in g.brackets().items()}
    return LieAlgebra.from_brackets(g.dim, brackets, name=name)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["heisenberg3", "aff1", "sl2", "gl2", "sl2_rad2", "sl2/3", "sl2_rad2/3"]), st.data())
def test_leibniz_defect_is_the_first_dense_defect(name, data):
    # a basis derivation of D(g), or that plus a sparse rational perturbation
    g = defect_algebra(name)
    n = g.dim
    da = derivation_algebra(g)
    rows = reference.matrices(n, da.span.integer_rows)[data.draw(st.integers(0, da.dim - 1))]
    index = st.integers(0, n - 1)
    entry = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    for (a, b), v in data.draw(st.dictionaries(st.tuples(index, index), entry, max_size=2)).items():
        rows[a][b] += v
    f = Mat(rows, cols=n)
    assert leibniz_defect(g, f) == old_leibniz_defect(g, f)


def test_leibniz_defect_refuses_a_map_of_another_shape():
    with pytest.raises(ValueError):
        leibniz_defect(catalog.get("sl2").algebra, Mat.identity(2))


def test_is_complete_examples():
    assert is_complete(catalog.get("sl2").algebra)
    assert is_complete(catalog.get("aff1").algebra)
    assert not is_complete(catalog.get("heisenberg3").algebra)
    assert not is_complete(catalog.get("sl2_rad2").algebra)


# --- holomorph ---------------------------------------------------------------


def test_holomorph_of_line_is_nonabelian_plane():
    g, emb_h, emb_d = holomorph(catalog.abelian(1))
    assert g.dim == 2
    assert validate(g).ok
    # [(0,f),(X,0)] = (f(X),0) with f the identity map on the line
    assert g.bracket(g.basis_vector(1), g.basis_vector(0)) == g.basis_vector(0)


def test_holomorph_bracket_formula_on_sl2():
    sl2 = catalog.get("sl2").algebra
    # sl2 again in the basis (2 e_0, 3 e_1, 5 e_2): the RREF rows of its D(h)
    # have denominators, so they differ from the stored integer rows
    s = [Fraction(2), Fraction(3), Fraction(5)]
    rescaled = LieAlgebra.from_brackets(
        3,
        {
            (i, j): {k: s[i] * s[j] * v / s[k] for k, v in row.items()}
            for (i, j), row in sl2.brackets().items()
        },
    )
    assert derivation_algebra(rescaled).span.integer_rows[0] > 1
    for h in (sl2, rescaled):
        g, emb_h, emb_d = holomorph(h)
        assert g.dim == 6
        da = derivation_algebra(h)
        for a, f in enumerate(map(Mat, reference.matrices(h.dim, da.span.integer_rows))):
            for i in range(h.dim):
                x_emb = emb_h.apply(h.basis_vector(i))
                f_emb = emb_d.apply(da.algebra.basis_vector(a))
                # [(X,0),(0,f)] = (-f(X), 0)
                expected = emb_h.apply(tuple(-v for v in f.apply(h.basis_vector(i))))
                assert g.bracket(x_emb, f_emb) == expected


def test_holomorph_base_is_ideal_for_every_catalog_algebra():
    for name in catalog.list_names():
        h = catalog.get(name).algebra
        g, emb_h, emb_d = holomorph(h)
        base = Subalgebra(g, emb_h.image())
        assert is_ideal(g, base)
        # derivation part is a subalgebra but need not be an ideal
        Subalgebra(g, emb_d.image())


def test_holomorph_of_complete_algebra_doubles_it():
    # for complete h, D(h) = ad_h, so H(h) = h x h as a vector space
    h = catalog.get("aff1").algebra
    g, _, _ = holomorph(h)
    assert g.dim == 4


# --- towers -----------------------------------------------------------------


def test_tower_of_complete_algebras_stabilizes_immediately():
    for name in ("aff1", "sl2", "so3", "sl2_sum_aff1"):
        tower = derivation_tower(catalog.get(name).algebra)
        assert tower.stabilized_at == 0
        assert len(tower.stages) == 1


def test_tower_of_sl2_rad2_gains_one_stage():
    tower = derivation_tower(catalog.get("sl2_rad2").algebra)
    assert tower.stabilized_at == 1
    assert [s.dim for s in tower.stages] == [5, 6]
    emb = tower.embeddings[0]
    assert is_homomorphism(emb)
    assert emb.kernel().dim == 0


def test_tower_rejects_centered_algebra():
    with pytest.raises(ValueError):
        derivation_tower(catalog.get("heisenberg3").algebra)


def test_tower_budget_report():
    tower = derivation_tower(catalog.get("sl2_rad2").algebra, max_steps=0)
    assert tower.exceeded_budget
    assert tower.stabilized_at is None


def test_a_tower_that_stabilizes_on_its_last_step_is_within_budget():
    # sl2_rad2's first stage is complete: one step reaches it, and the
    # budget check comes only after the completeness check
    tower = derivation_tower(catalog.get("sl2_rad2").algebra, max_steps=1)
    assert not tower.exceeded_budget
    assert tower.stabilized_at == 1 and len(tower.stages) == 2 and len(tower.embeddings) == 1


def test_theorem_derived_check_examples():
    # both sides hold: True comes back only when they agree on it
    for name in ("sl2", "aff1"):
        assert theorem_derived_check(catalog.get(name).algebra) is True
    g, _, _ = direct_sum(catalog.get("sl2").algebra, catalog.get("aff1").algebra)
    assert theorem_derived_check(g) is True


def test_derivations_of_derivation_algebra_vanishing_on_inner_are_zero():
    # consequence of the bracket identity when the base is centerless
    for name in ("sl2", "aff1", "sl2_rad2"):
        g = catalog.get(name).algebra
        assert center(g).dim == 0
        da1 = derivation_algebra(g)
        d1 = da1.algebra
        da2 = derivation_algebra(d1)
        d = d1.dim
        # f in D(D(g)) (the span's annihilator kills it) with f(v) = 0 for every inner v
        equations = reference.nullspace(d * d, da2.span.basis.entries)
        for v in da1.inner.basis.entries:
            equations += [reference.dense(d * d, ((r * d + c, v[c]) for c in range(d))) for r in range(d)]
        assert reference.nullspace(d * d, equations) == []


@pytest.mark.parametrize("name", catalog.list_names() + ["H(heisenberg3)"])
def test_derivation_brackets_match_dense_commutators(name):
    if name == "H(heisenberg3)":
        g, _, _ = holomorph(catalog.get("heisenberg3").algebra)
    else:
        g = catalog.get(name).algebra
    da = derivation_algebra(g)
    mats = reference.matrices(g.dim, da.span.integer_rows)
    tensor = da.algebra.c
    for a in range(da.dim):
        for b in range(da.dim):
            ref = da.coordinates_of(Mat(reference.commutator(mats[a], mats[b])))
            assert tensor[a][b] == ref


# --- characteristic ideals ---------------------------------------------------


def test_derived_subalgebra_is_characteristic_everywhere():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        assert is_characteristic(g, derived_subalgebra(full_subalgebra(g)))


def test_center_of_heisenberg_is_characteristic():
    g = catalog.get("heisenberg3").algebra
    assert is_characteristic(g, subalgebra(g, [[0, 0, 1]]))


def test_aff1_factor_is_not_characteristic():
    aff1 = catalog.get("aff1").algebra
    k, emb_aff, _ = direct_sum(aff1, catalog.abelian(1))
    h = Subalgebra(k, emb_aff.image())
    assert is_ideal(k, h)
    assert not is_characteristic(k, h)


def stabilizes(g, h):
    """The full reading: every row of D(g)'s solved kernel maps h into h."""
    n = g.dim
    hrows = [dict(u) for u in h.space.integer_rows[1]]
    for f in derivation_algebra(g).span.integer_rows[1]:
        for u in hrows:
            image = {}
            for idx, v in f:
                a, b = divmod(idx, n)
                if b in u:
                    image[a] = image.get(a, 0) + v * u[b]
            if h.space.scaled_residual(image.items()):
                return False
    return True


def characteristic_pairs(source):
    """(g, h) ideal pairs: the perfect suite's 80 ambients with h and with k = h + partner,
    the catalog's derived, center, radical and tagged ideals, or a seed's radical corpus."""
    if source == "perfect ambients":
        instances = [inst for label, h in perfect_specimens().items() for inst in chain_instances(label, h)]
        assert len(instances) == 80
        return [(inst.g, sub) for inst in instances for sub in (inst.h_sub, inst.k_sub)]
    if source == "catalog":
        pairs = []
        for name in catalog.list_names():
            entry = catalog.get(name)
            g = entry.algebra
            subs = [derived_subalgebra(full_subalgebra(g)), center(g), radical(g)]
            subs += [Subalgebra(g, space) for space in entry.tagged_subalgebras.values()]
            pairs += [(g, h) for h in subs if is_ideal(g, h)]
        return pairs
    seed = int(source.removeprefix("radical corpus "))
    return [(amb.parent, h) for _, amb, h, _ in radical_corpus(seed) if is_ideal(amb.parent, h)]


@pytest.mark.parametrize(
    "source, negatives",
    [("perfect ambients", 24), ("catalog", 1)] + [(f"radical corpus {s}", n) for s, n in enumerate((1, 1, 2, 2))],
)
def test_is_characteristic_matches_the_full_reading(source, negatives):
    answers = []
    for g, h in characteristic_pairs(source):
        answer = is_characteristic(g, h)
        assert answer == stabilizes(g, h), (g.name, h.space.pivots)
        answers.append(answer)
    assert answers.count(False) == negatives and answers.count(True) > negatives


@pytest.fixture
def solves(monkeypatch):
    """One entry per _leibniz_solve call: is_characteristic makes one per batch of pairs it runs."""
    calls = []
    real = derivations._leibniz_solve
    monkeypatch.setattr(derivations, "_leibniz_solve", lambda *args: calls.append(1) or real(*args))
    return calls


def test_is_characteristic_matches_the_full_reading_in_a_seeded_basis(solves):
    # perfect ideals and their k = h + partner, moved by a dense change of basis
    # off the coordinates: the pairs inside h no longer settle every answer,
    # so the remaining pairs run, to both answers
    runs = {True: [], False: []}
    rng = random.Random(0)
    for label, h in perfect_specimens().items():
        for inst in chain_instances(label, h):
            n = inst.g.dim
            if n > 7:
                continue
            brackets, move = reference.rebased(n, inst.g.brackets(), reference.seeded_gl(n, rng))
            g = LieAlgebra.from_brackets(n, brackets)
            for sub in (inst.h_sub, inst.k_sub):
                moved = Subalgebra(g, Subspace.span(n, map(move, sub.space.basis.entries)))
                want = stabilizes(g, moved)
                solves.clear()
                assert is_characteristic(g, moved) == want
                runs[want].append(len(solves))
                if sub is inst.h_sub:
                    assert want  # a perfect ideal is characteristic
    assert len(runs[True]) >= 15 and len(runs[False]) >= 5
    # both batches ran for some positive answers, and for every negative one
    assert 2 in runs[True] and set(runs[False]) == {2}


def test_a_perfect_ideal_on_its_coordinates_is_settled_by_the_pairs_inside_it(solves):
    for label, h in perfect_specimens().items():
        for inst in chain_instances(label, h):
            solves.clear()
            assert is_characteristic(inst.g, inst.h_sub) and solves == [1]


def test_a_witness_that_is_no_derivation_is_an_internal_check_error(monkeypatch):
    # the center of heisenberg3 has one pivot, so no pair lies inside it and
    # only the remaining pairs could settle it: with the solve gone, the unit
    # matrices are left as solutions, and the one moving z out is no derivation
    g = catalog.get("heisenberg3").algebra
    monkeypatch.setattr(derivations, "_leibniz_solve", lambda g, pairs, solutions: None)
    with pytest.raises(InternalCheckError, match="moving h"):
        is_characteristic(g, subalgebra(g, [[0, 0, 1]]))


def test_is_characteristic_requires_ideal():
    g = catalog.get("heisenberg3").algebra
    with pytest.raises(ValueError):
        is_characteristic(g, subalgebra(g, [[1, 0, 0]]))


@pytest.fixture
def builds(monkeypatch):
    """The names of the derivation algebras LieAlgebra.from_scaled builds and validate checks, from a cold cache."""
    seen = {"from_scaled": [], "validate": []}
    from_scaled, check = LieAlgebra.from_scaled, liealg.validate

    def note(step, name):
        if name is not None and name.startswith("D("):
            seen[step].append(name)

    def counted_from_scaled(dim, scale, table, name=None):
        note("from_scaled", name)
        return from_scaled(dim, scale, table, name=name)

    def counted_validate(g, **kw):
        note("validate", g.name)
        return check(g, **kw)

    monkeypatch.setattr(LieAlgebra, "from_scaled", staticmethod(counted_from_scaled))
    # validate_or_raise reads validate from liealg's namespace
    monkeypatch.setattr(liealg, "validate", counted_validate)
    derivation_algebra.cache_clear()
    yield seen
    derivation_algebra.cache_clear()


def test_span_readers_build_no_derivation_algebra(builds):
    for name in catalog.list_names():
        entry = catalog.get(name)
        g = entry.algebra
        is_characteristic(g, derived_subalgebra(full_subalgebra(g)))
        assert is_complete(g) == entry.expected["complete"]
        check_adjoint_identity(name, g)
        assert derivation_algebra(g).dim == entry.expected["dim_derivations"]
    assert derivation_algebra.cache_info().misses == len(catalog.list_names())
    assert builds == {"from_scaled": [], "validate": []}


def test_derivation_algebra_is_the_bounded_cache():
    assert isinstance(derivation_algebra, functools._lru_cache_wrapper)
    assert derivation_algebra.cache_info().maxsize == 256


def test_a_renamed_hit_is_the_solved_object(builds):
    # the cache ignores names: every algebra of one structure gets one object,
    # named after the first of them to be solved
    h = catalog.get("heisenberg3").algebra
    da = derivation_algebra(h)
    assert derivation_algebra(h.renamed("other")) is da
    info = derivation_algebra.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert da.base is h and da.built.name == "D(heisenberg3)"
    assert derivation_algebra(h.renamed("third")).span is da.span


def test_holomorph_builds_the_derivation_algebra_once(builds):
    h = catalog.get("heisenberg3").algebra
    other = h.renamed("other")
    _, _, embed_d = holomorph(h)
    holomorph(h)
    # the holomorph's own walk covers D(h)'s triples: D(h) is built, not walked
    built = {"from_scaled": ["D(heisenberg3)"], "validate": []}
    assert builds == built
    # a renamed hit embeds the same D(h): nothing more is built
    _, _, embed_other = holomorph(other)
    assert embed_other.source is embed_d.source is derivation_algebra(h).built
    assert builds == built
    first = derivation_algebra(other).algebra
    walked = {"from_scaled": ["D(heisenberg3)"], "validate": ["D(heisenberg3)"]}
    assert builds == walked and first is embed_d.source
    assert derivation_algebra(h).algebra is first and builds == walked
    assert derivation_algebra.cache_info().misses == 1


def test_the_closure_check_runs_on_every_solve(builds, monkeypatch):
    # E_01 is no derivation of sl2, and the span it joins is not closed under
    # the commutator: the solve raises before any DerivationAlgebra exists
    g = catalog.get("sl2").algebra
    kernel = derivations._leibniz_kernel
    monkeypatch.setattr(derivations, "_leibniz_kernel", lambda g: [*kernel(g), {1: 1}])
    monkeypatch.setattr(derivations.DerivationAlgebra, "algebra", property(lambda _: pytest.fail("algebra read")))
    with pytest.raises(InternalCheckError, match="escaped the closed span"):
        is_complete(g)
    assert builds == {"from_scaled": [], "validate": []}


def moved(da, a, b, k, delta):
    """da with coordinate k of [b_a, b_b] in its table moved by delta."""
    table = {key: dict(row) for key, row in da.table.items()}
    row = table.setdefault((a, b), {})
    row[k] = row.get(k, 0) + delta
    return replace(da, table=table)


@pytest.fixture
def holomorph_walks(monkeypatch):
    """The (algebra, implied) pairs handed to derivations.validate_or_raise with implied > 0."""
    walks = []
    real = derivations.validate_or_raise

    def spy(g, *, implied=0):
        if implied:
            walks.append((g, implied))
        return real(g, implied=implied)

    monkeypatch.setattr(derivations, "validate_or_raise", spy)
    return walks


def holomorph_over(monkeypatch, h, bad):
    """holomorph(h) with derivation_algebra handing it bad; raises on a corrupted table."""
    with monkeypatch.context() as m:
        m.setattr(derivations, "derivation_algebra", lambda g: bad)
        with pytest.raises(InternalCheckError, match="Jacobi identity fails"):
            holomorph(h)


@pytest.mark.parametrize("name", ["aff1", "abelian(2)"])
def test_holomorph_catches_a_corrupted_derivation_table_that_passes_its_own_walk(monkeypatch, name):
    # span_table's coordinate read mutated: every single-coordinate change of
    # D(h)'s table makes the holomorph raise, and some pass validate on D alone
    h = catalog.get(name).algebra
    da = derivation_algebra(h)
    passed_alone = 0
    for (a, b), k in product(combinations(range(da.dim), 2), range(da.dim)):
        bad = moved(da, a, b, k, 1)
        passed_alone += validate(bad.built).ok
        holomorph_over(monkeypatch, h, bad)
    assert passed_alone > 0


def test_the_holomorph_walk_reports_what_the_full_walk_does(monkeypatch, holomorph_walks):
    names = catalog.list_names()
    for name in names:
        holomorph(catalog.get(name).algebra)
    # the perfect suite builds 4 specimens x 5 partners + 7 counterexample holomorphs
    assert all(r.ok for r in run_suites(["perfect"], seed=0))
    assert len(holomorph_walks) == len(names) + 27
    rng = random.Random(0)
    corruptions = passed_alone = 0
    for name in names:
        h = catalog.get(name).algebra
        da = derivation_algebra(h)
        if da.dim < 2:
            continue
        for _ in range(20):
            a, b = sorted(rng.sample(range(da.dim), 2))
            bad = moved(da, a, b, rng.randrange(da.dim), rng.choice((-2, -1, 1, 2)))
            passed_alone += validate(bad.built).ok
            corruptions += 1
            holomorph_over(monkeypatch, h, bad)
    assert len(holomorph_walks) == len(names) + 27 + corruptions
    assert passed_alone > 0
    for g, implied in holomorph_walks:
        assert validate(g, implied=implied) == validate(g)


def test_derivations_unchanged_by_fractional_rescaling():
    # e'_i = d_i e_i gives the constants d_i d_j c_ijk / d_k; the Leibniz
    # system is then assembled from numerators over a nontrivial denominator
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        d = [Fraction(i + 2, 2 * i + 3) for i in range(g.dim)]
        brackets = {
            (i, j): {k: d[i] * d[j] * c / d[k] for k, c in row.items()}
            for (i, j), row in g.brackets().items()
        }
        h = LieAlgebra.from_brackets(g.dim, brackets, name=f"{name}'")
        assert h.integer_constants[0] > 1 or not g.brackets()
        da, db = derivation_algebra(g), derivation_algebra(h)
        assert (db.dim, db.inner.dim) == (da.dim, da.inner.dim)
        assert validate(db.algebra).ok
        for f in map(Mat, reference.matrices(h.dim, db.span.integer_rows)):
            assert is_derivation(h, f)
            assert old_leibniz_defect(h, f) is None
