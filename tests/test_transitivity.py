import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference
from lieideal import catalog, suites, transitivity
from lieideal.derivations import holomorph
from lieideal.exactlin import Mat, Subspace, intersect, subspace_sum
from lieideal.liealg import (
    InternalCheckError,
    LieAlgebra,
    LinMap,
    Subalgebra,
    center,
    centralizer,
    derived_subalgebra,
    direct_sum,
    full_subalgebra,
    is_ideal,
    is_solvable_space,
    normalizer,
    subalgebra,
    validate,
)
from lieideal.suites import NON_PERFECT_NAMES
from lieideal.transitivity import (
    HypothesisError,
    IdealChain,
    cartan_eigenspaces,
    check_cartan_criterion,
    check_complete_subideal,
    check_perfect_transitivity,
    check_radical_intersection,
    check_self_normalizing_theorem,
    check_skew_form_criterion,
    _grid_lines,
    counterexample_extension,
    enumerate_grid_subalgebras,
    grid_subspaces,
    ideal_closure,
    is_self_normalizing,
    levi_criterion,
    normalizer_tower,
    random_solvable_algebra,
    subideal_chain,
    subideal_oracle,
)


@pytest.fixture(scope="module")
def heis():
    return catalog.get("heisenberg3").algebra


@pytest.fixture(scope="module")
def sl2():
    return catalog.get("sl2").algebra


# --- ideal closure ----------------------------------------------------------


def test_closure_of_ideal_is_fixed_point(heis):
    h = subalgebra(heis, [[0, 0, 1]])
    assert ideal_closure(heis, h).space == h.space


def test_closure_of_e_line_is_all_of_sl2(sl2):
    h = subalgebra(sl2, [[0, 1, 0]])
    assert ideal_closure(sl2, h).dim == 3


def test_closure_of_x_line_in_heisenberg(heis):
    h = subalgebra(heis, [[1, 0, 0]])
    assert ideal_closure(heis, h).space == Subspace.span(3, [[1, 0, 0], [0, 0, 1]])


def test_a_closure_that_is_no_subalgebra_of_a_lie_algebra_is_an_internal_error(sl2, monkeypatch):
    # in a Lie algebra the ideal closure is a subalgebra, so a round that
    # ended anywhere else is a bug, not bad input; span(E, F) holds no [E, F] = H
    monkeypatch.setattr(transitivity, "saturate", lambda space, escaping: Subspace.span(3, [[0, 1, 0], [0, 0, 1]]))
    with pytest.raises(InternalCheckError, match=r"^ideal closure: subspace is not bracket-closed"):
        ideal_closure(sl2, subalgebra(sl2, [[0, 1, 0]]))


# --- subideal decision ------------------------------------------------------


def test_subideal_chain_in_heisenberg(heis):
    verdict = subideal_chain(heis, subalgebra(heis, [[1, 0, 0]]))
    assert verdict
    assert verdict.chain.dims() == (1, 2, 3)
    assert verdict.chain.verify()


def test_e_line_is_not_subideal_of_sl2(sl2):
    verdict = subideal_chain(sl2, subalgebra(sl2, [[0, 1, 0]]))
    assert not verdict
    assert verdict.floor.dim == 3  # series stabilized at all of sl2


def test_whole_algebra_is_its_own_chain(sl2):
    verdict = subideal_chain(sl2, full_subalgebra(sl2))
    assert verdict
    assert verdict.chain.dims() == (3,)


def test_chain_length_bounded_by_dimension():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        from lieideal.liealg import derived_subalgebra

        verdict = subideal_chain(g, derived_subalgebra(full_subalgebra(g)))
        assert verdict
        assert len(verdict.chain) <= g.dim + 1


def _invert(m: Mat) -> Mat:
    """The right half of the RREF of [m | I], by the reference."""
    n = m.rows
    reduced = reference.rref(2 * n, [list(row) + reference.unit(n, i) for i, row in enumerate(m.entries)])
    assert reference.pivots(reduced)[:n] == list(range(n)), "matrix is singular"
    return Mat([row[n:] for row in reduced], cols=n)


def _change_basis(g: LieAlgebra, p: Mat) -> LieAlgebra:
    # new basis vectors are the columns of p
    p_inv, consts = _invert(p).entries, g.brackets()
    cols = [p.column(i) for i in range(g.dim)]
    c = [[reference.apply(p_inv, reference.bracket(consts, x, y)) for y in cols] for x in cols]
    return LieAlgebra(c)


def test_subideal_verdict_is_basis_independent(heis, sl2):
    rng = random.Random(11)
    cases = [
        (heis, [[1, 0, 0]]),
        (heis, [[0, 0, 1]]),
        (sl2, [[0, 1, 0]]),
        (sl2, [[1, 0, 0]]),
    ]
    for g, vectors in cases:
        n = g.dim
        for _ in range(3):
            while True:
                p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if Subspace.span(n, p.entries).dim == n:
                    break
            g2 = _change_basis(g, p)
            assert validate(g2).ok
            p_inv = _invert(p)
            moved = [p_inv.apply([Fraction(x) for x in v]) for v in vectors]
            h1 = subalgebra(g, vectors)
            h2 = subalgebra(g2, moved)
            assert bool(subideal_chain(g, h1)) == bool(subideal_chain(g2, h2))


# --- counterexamples ---------------------------------------------------------


def test_counterexample_for_line():
    cert = counterexample_extension(catalog.abelian(1))
    assert cert.chain.dims() == (1, 2, 6)
    # k = abelian(2); the escaping value is minus the abelianization image
    assert cert.escaping_value[1] == Fraction(-1)
    assert all(not x for i, x in enumerate(cert.escaping_value) if i != 1)
    assert cert.verify()


def test_counterexample_for_aff1():
    cert = counterexample_extension(catalog.get("aff1").algebra)
    assert cert.chain.links[1].dim == 3  # k = aff1 + Q
    # X_o = x has abelianization image 1; escape shows up in the quotient slot
    assert cert.escaping_value[2] == Fraction(-1)
    assert cert.verify()


@pytest.mark.parametrize("name", NON_PERFECT_NAMES)
def test_counterexample_certificate_refuses_tampering(name):
    cert = counterexample_extension(catalog.get(name).algebra)
    assert cert.verify()
    x, y = cert.witness_pair
    # [y, x] = -[x, y] still leaves h, but y is not in h
    swapped = replace(
        cert, witness_pair=(y, x), escaping_value=tuple(-v for v in cert.escaping_value)
    )
    assert not swapped.verify()
    # a chain of ideals from h that stops short of the ambient
    cut = replace(cert, chain=IdealChain(cert.chain.links[:-1]))
    assert cut.chain.verify() and not cut.verify()


def test_chain_through_another_parent_does_not_verify(sl2, heis):
    cert = counterexample_extension(catalog.get("aff1").algebra)
    h, _, top = cert.chain.links
    # the middle link is sl2 itself: another parent, another ambient dimension
    foreign = IdealChain((h, full_subalgebra(sl2), top))
    assert not foreign.verify()
    assert not replace(cert, chain=foreign).verify()
    # another parent of the same dimension
    assert not IdealChain((Subalgebra(heis, Subspace.zero(heis.dim)), full_subalgebra(sl2))).verify()


def test_counterexample_refused_for_perfect(sl2):
    with pytest.raises(HypothesisError):
        counterexample_extension(sl2)
    with pytest.raises(HypothesisError):
        counterexample_extension(catalog.get("sl2_rad2").algebra)


def test_counterexample_chain_is_subideal_but_not_ideal():
    cert = counterexample_extension(catalog.get("heisenberg3").algebra)
    h = cert.chain.links[0]
    assert subideal_chain(cert.ambient, h)
    assert not is_ideal(cert.ambient, h)


# --- perfect transitivity ----------------------------------------------------


def test_sl2_inside_its_holomorph(sl2):
    g, emb_h, _ = holomorph(sl2)
    h = Subalgebra(g, emb_h.image())
    chain = check_perfect_transitivity(g, h)
    assert chain.verify()
    assert is_ideal(g, h)


def test_sl2_rad2_pipeline():
    p5 = catalog.get("sl2_rad2").algebra
    k, emb_h, _ = direct_sum(p5, catalog.get("aff1").algebra)
    g, emb_k, _ = holomorph(k)
    h = Subalgebra(
        g,
        Subspace.span(g.dim, [emb_k.apply(emb_h.apply(p5.basis_vector(i))) for i in range(5)]),
    )
    chain = check_perfect_transitivity(g, h)
    assert chain.verify()


def test_direct_summand_is_ideal():
    so3 = catalog.get("so3").algebra
    g, e1, _ = direct_sum(so3, so3)
    h = Subalgebra(g, e1.image())
    chain = check_perfect_transitivity(g, h)
    assert chain.dims()[-1] == 6


def test_perfect_transitivity_requires_perfect(heis):
    with pytest.raises(HypothesisError):
        check_perfect_transitivity(heis, subalgebra(heis, [[1, 0, 0]]))


# --- complete subideals -------------------------------------------------------


def test_complete_subideal_aff1_pair():
    aff1 = catalog.get("aff1").algebra
    k, e1, e2 = direct_sum(aff1, aff1)
    g, emb_k, _ = holomorph(k)
    h = Subalgebra(g, Subspace.span(g.dim, [emb_k.apply(e1.apply(aff1.basis_vector(i))) for i in range(2)]))
    k_sub = Subalgebra(g, emb_k.image())
    c_k = check_complete_subideal(h, k_sub, g)
    assert is_ideal(g, h)
    expected_c = Subspace.span(g.dim, [emb_k.apply(e2.apply(aff1.basis_vector(i))) for i in range(2)])
    assert c_k.space == expected_c


def test_complete_subideal_sl2_pair(sl2):
    k, e1, _ = direct_sum(sl2, sl2)
    g, emb_k, _ = holomorph(k)
    h = Subalgebra(g, Subspace.span(g.dim, [emb_k.apply(e1.apply(sl2.basis_vector(i))) for i in range(3)]))
    k_sub = Subalgebra(g, emb_k.image())
    c_k = check_complete_subideal(h, k_sub, g)
    assert is_ideal(g, h)
    assert subspace_sum(h.space, c_k.space) == k_sub.space and intersect(h.space, c_k.space).dim == 0


def test_complete_subideal_trivial_case(sl2):
    full = full_subalgebra(sl2)
    assert check_complete_subideal(full, full, sl2).dim == 0


def test_complete_subideal_rejects_incomplete_h(heis):
    full = full_subalgebra(heis)
    with pytest.raises(HypothesisError):
        check_complete_subideal(full, full, heis)


def _centralizers_in_k(h, k, g):
    """RREF rows of z(k) and c_k(h), by the reference: the x = sum a_i k_i with [x, y] = 0 for y in k or in h."""
    consts, ks = g.brackets(), k.space.basis.entries

    def centralizing(ys):
        # coordinate t of [x, y] is linear in a: one equation per y and t
        rows = []
        for y in ys:
            columns = [reference.bracket(consts, x, y) for x in ks]
            rows += [[column[t] for column in columns] for t in range(g.dim)]
        return reference.rref(g.dim, reference.matmul(reference.nullspace(len(ks), rows), ks))

    return centralizing(ks), centralizing(h.space.basis.entries)


# the complete suite's instances: a complete h, a centerless partner, and
# k = h (+) partner inside the holomorph of k
COMPLETE_H = ("aff1", "sl2", "so3")
CENTERLESS_PARTNERS = ("aff1", "sl2", "so3", "sl2_rad2", "sl2_sum_aff1", "so3_sum_so3")


@pytest.mark.parametrize(("h_name", "p_name"), itertools.product(COMPLETE_H, CENTERLESS_PARTNERS))
def test_complete_subideal_matches_the_abstract_route(h_name, p_name):
    h_alg = catalog.get(h_name).algebra
    k_alg, emb_h, _ = direct_sum(h_alg, catalog.get(p_name).algebra)
    g, emb_k, _ = holomorph(k_alg)
    h, k = Subalgebra(g, emb_k.compose(emb_h).image()), Subalgebra(g, emb_k.image())
    z_k, c_k = _centralizers_in_k(h, k, g)
    assert intersect(k.space, centralizer(g, k).space).basis.entries == z_k
    assert centralizer(k, k).space.basis.entries == z_k
    assert len(z_k) == 0
    c_sub = check_complete_subideal(h, k, g)
    # solved over k's rows, c_k(h) is k met with c_g(h), as N_k(h) is with N_g(h)
    assert c_sub == centralizer(k, h)
    assert c_sub.space == intersect(k.space, centralizer(g, h).space)
    assert normalizer(k, h).space == intersect(k.space, normalizer(g, h).space)
    assert c_sub.space.basis.entries == c_k
    assert len(c_k) == k.dim - h.dim


def test_complete_subideal_rejects_a_centered_middle(sl2):
    g, e1, _ = direct_sum(sl2, catalog.abelian(1))
    h, k = Subalgebra(g, e1.image()), full_subalgebra(g)
    z_k, _ = _centralizers_in_k(h, k, g)
    assert intersect(k.space, centralizer(g, k).space).basis.entries == z_k
    assert centralizer(k, k).space.basis.entries == z_k
    assert len(z_k) == 1
    with pytest.raises(HypothesisError, match="trivial center"):
        check_complete_subideal(h, k, g)


# --- radical criteria ---------------------------------------------------------


def _decided(ambient, h):
    """(ambient, h, chain): the hypothesis certificate the radical criteria take."""
    verdict = subideal_chain(ambient, h)
    assert verdict
    return ambient, h, verdict.chain


def test_radical_intersection_in_heisenberg(heis):
    h = subalgebra(heis, [[1, 0, 0]])
    assert check_radical_intersection(*_decided(heis, h)) == h.space


def test_radical_intersection_semisimple_factor(sl2):
    g, e1, e2 = direct_sum(sl2, catalog.abelian(1))
    h = Subalgebra(g, e1.image())
    assert check_radical_intersection(*_decided(g, h)).dim == 0


def test_radical_intersection_identity_case(sl2):
    assert check_radical_intersection(*_decided(sl2, full_subalgebra(sl2))).dim == 0


def test_radical_intersection_needs_subideal(sl2):
    # span(F) is no ideal of sl2, so the two-link chain fails verify()
    f_line, full = subalgebra(sl2, [[0, 0, 1]]), full_subalgebra(sl2)
    bad = IdealChain((f_line, full))
    assert not bad.verify()
    for check in (check_radical_intersection, levi_criterion):
        with pytest.raises(HypothesisError):
            check(sl2, f_line, bad)


def test_radical_criteria_need_a_chain_from_h_to_the_ambient(heis):
    x_line = subalgebra(heis, [[1, 0, 0]])
    z_line = subalgebra(heis, [[0, 0, 1]])
    _, _, z_chain = _decided(heis, z_line)
    plane = subalgebra(heis, [[1, 0, 0], [0, 0, 1]])
    _, _, x_in_plane = _decided(plane, x_line)
    for check in (check_radical_intersection, levi_criterion):
        # a verified chain for another h, or into another ambient, is no certificate
        with pytest.raises(HypothesisError):
            check(heis, x_line, z_chain)
        with pytest.raises(HypothesisError):
            check(heis, x_line, x_in_plane)
        check(plane, x_line, x_in_plane)  # the chain that does run from h to the ambient


def test_radical_criteria_refuse_a_chain_through_another_parent(heis):
    aff1 = catalog.get("aff1").algebra
    h = subalgebra(aff1, [[0, 1]])  # [aff1, aff1]: an ideal, so only the last link is wrong
    chain = IdealChain((h, full_subalgebra(aff1), full_subalgebra(heis)))
    assert not chain.verify()
    for check in (check_radical_intersection, levi_criterion):
        with pytest.raises(HypothesisError):
            check(heis, h, chain)


def test_levi_criterion_all_false(heis):
    assert levi_criterion(*_decided(heis, subalgebra(heis, [[1, 0, 0]]))) is False


def test_levi_criterion_all_true(heis):
    assert levi_criterion(*_decided(heis, subalgebra(heis, [[1, 0, 0], [0, 0, 1]]))) is True


def test_levi_criterion_zero_radical():
    so3 = catalog.get("so3").algebra
    g, e1, _ = direct_sum(so3, so3)
    assert levi_criterion(*_decided(g, Subalgebra(g, e1.image()))) is True


# --- form criteria ------------------------------------------------------------


def test_skew_form_axis_of_so3():
    entry = catalog.get("so3")
    g = entry.algebra
    ideal = check_skew_form_criterion(
        g,
        entry.tagged_forms["minus_killing"],
        subalgebra(g, [[0, 0, 1]]),
        full_subalgebra(g),
    )
    assert ideal is False


def test_skew_form_trivial_equal_case():
    entry = catalog.get("so3")
    g = entry.algebra
    full = full_subalgebra(g)
    assert check_skew_form_criterion(g, entry.tagged_forms["minus_killing"], full, full) is True


def test_skew_form_killing_on_cartan_line_fails_hypotheses(sl2):
    killing = catalog.get("sl2").tagged_forms["killing"]
    with pytest.raises(HypothesisError):
        check_skew_form_criterion(
            sl2, killing, subalgebra(sl2, [[1, 0, 0]]), full_subalgebra(sl2)
        )


# --- Cartan involutions ---------------------------------------------------------


def test_cartan_eigenspaces_of_sl2(sl2):
    theta = catalog.get("sl2").tagged_maps["cartan_involution"]
    decomp = cartan_eigenspaces(sl2, theta)
    assert decomp.compact_part.space == Subspace.span(3, [[0, 1, -1]])
    assert decomp.noncompact_part == Subspace.span(3, [[1, 0, 0], [0, 1, 1]])
    full_inertia = decomp.form.inertia_on()
    assert full_inertia.is_positive_definite()


def test_cartan_identity_on_so3_is_compact():
    so3 = catalog.get("so3").algebra
    decomp = cartan_eigenspaces(so3, LinMap(so3, so3, Mat.identity(3)))
    assert decomp.compact_part.dim == 3
    assert decomp.noncompact_part.dim == 0


def test_cartan_identity_on_sl2_rejected(sl2):
    with pytest.raises(HypothesisError):
        cartan_eigenspaces(sl2, LinMap(sl2, sl2, Mat.identity(3)))


def test_cartan_rejected_on_non_semisimple():
    g = catalog.get("gl2").algebra
    with pytest.raises(HypothesisError):
        cartan_eigenspaces(g, LinMap(g, g, Mat.identity(4)))


def test_cartan_criterion_on_sl2(sl2):
    theta = catalog.get("sl2").tagged_maps["cartan_involution"]
    u = subalgebra(sl2, [[0, 1, -1]])
    assert check_cartan_criterion(sl2, theta, u, full_subalgebra(sl2)) is False
    assert check_cartan_criterion(sl2, theta, full_subalgebra(sl2), full_subalgebra(sl2)) is True


def test_cartan_criterion_requires_containment(sl2):
    theta = catalog.get("sl2").tagged_maps["cartan_involution"]
    with pytest.raises(HypothesisError):
        check_cartan_criterion(
            sl2, theta, subalgebra(sl2, [[1, 0, 0]]), full_subalgebra(sl2)
        )


# --- normalizer towers -----------------------------------------------------------


def test_normalizer_tower_in_heisenberg(heis):
    tower = normalizer_tower(heis, subalgebra(heis, [[1, 0, 0]]))
    assert [s.dim for s in tower] == [1, 2, 3]


def test_cartan_subalgebra_is_self_normalizing(sl2):
    assert is_self_normalizing(sl2, subalgebra(sl2, [[1, 0, 0]]))


def test_ideal_normalizes_to_everything(heis):
    tower = normalizer_tower(heis, subalgebra(heis, [[0, 0, 1]]))
    assert [s.dim for s in tower] == [1, 3]
    assert is_self_normalizing(heis, full_subalgebra(heis))


def test_self_normalizing_theorem_perfect_tag():
    entry = catalog.get("gl2")
    g = entry.algebra
    h = Subalgebra(g, entry.tagged_subalgebras["sl2"])
    n_h = check_self_normalizing_theorem(g, h, "perfect")
    assert is_self_normalizing(g, n_h)
    assert n_h.dim == 4  # N = gl2


def test_self_normalizing_theorem_compactly_embedded(sl2):
    entry = catalog.get("sl2")
    h = Subalgebra(sl2, entry.tagged_subalgebras["compact_line"])
    n_h = check_self_normalizing_theorem(
        sl2, h, "compactly_embedded", form=entry.tagged_forms["compact_embedding"]
    )
    assert is_self_normalizing(sl2, n_h)
    assert n_h.space == h.space


def test_self_normalizing_theorem_skip_case(heis):
    entry = catalog.get("heisenberg3")
    h = Subalgebra(heis, entry.tagged_subalgebras["xz_plane"])
    with pytest.raises(HypothesisError):
        check_self_normalizing_theorem(heis, h, "central_radical")


def test_self_normalizing_theorem_unknown_tag(sl2):
    with pytest.raises(ValueError):
        check_self_normalizing_theorem(sl2, full_subalgebra(sl2), "mystery")


# --- oracle and random corpus -----------------------------------------------------


# the catalog names of dim <= 3, written out so that no algebra is built while
# the module is collected
SMALL_CATALOG = ["abelian(1)", "abelian(2)", "abelian(3)", "heisenberg3", "aff1", "sl2", "so3"]


def test_small_catalog_is_every_name_of_dim_at_most_3():
    assert SMALL_CATALOG == [name for name in catalog.list_names() if catalog.get(name).algebra.dim <= 3]


def test_oracle_examples(heis, sl2):
    assert subideal_oracle(enumerate_grid_subalgebras(heis, grid_subspaces(heis.dim)), subalgebra(heis, [[1, 0, 0]]))
    assert not subideal_oracle(enumerate_grid_subalgebras(sl2, grid_subspaces(sl2.dim)), subalgebra(sl2, [[0, 1, 0]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_lines_are_one_per_direction(n):
    lines = _grid_lines(n)
    assert len(lines) == (3**n - 1) // 2
    # sparse integer rows: entries +-1 at increasing indices, the first one 1
    assert all(v[0][1] == 1 and {x for _, x in v} <= {-1, 1} for v in lines)
    assert all([i for i, _ in v] == sorted({i for i, _ in v}) for v in lines)
    assert len({Subspace.integer_span(n, [v]) for v in lines}) == len(lines)


def _grid_closed_by_reference(g):
    """The spans of 0, g and one or two grid directions that the reference finds bracket-closed."""
    n, consts = g.dim, g.brackets()
    # one direction per line: its first nonzero entry is 1
    lines = [v for v in itertools.product((-1, 0, 1), repeat=n) if [x for x in v if x][:1] == [1]]
    spans = [[], [reference.unit(n, i) for i in range(n)]]
    spans += [list(combo) for r in (1, 2) for combo in itertools.combinations(lines, r)]
    rank = lambda rows: len(reference.rref(n, rows))
    return {Subspace.span(n, rows) for rows in spans if rank(reference.closure(n, consts, rows)) == rank(rows)}


def test_grid_subalgebras_from_shared_spaces_match_the_per_algebra_enumeration():
    # the oracle spans the grid once per dimension and filters it per algebra
    draws = [g for seed in range(8) for _, g in suites._draws(seed, 3, 100, range(1, 4))]
    algebras = [catalog.get(name).algebra for name in SMALL_CATALOG] + draws
    spaces = {n: grid_subspaces(n) for n in (1, 2, 3)}
    for g in algebras:
        shared = enumerate_grid_subalgebras(g, spaces[g.dim])
        assert shared == enumerate_grid_subalgebras(g, grid_subspaces(g.dim))
        assert {h.space for h in shared} == _grid_closed_by_reference(g)
    # the shared lists are read, never changed
    assert spaces == {n: grid_subspaces(n) for n in (1, 2, 3)}
    assert [len(spaces[n]) for n in (1, 2, 3)] == [2, 6, 40]
    with pytest.raises(ValueError, match="dimension <= 3"):
        grid_subspaces(4)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_oracle_searches_only_its_candidates(name):
    g = catalog.get(name).algebra
    for h in enumerate_grid_subalgebras(g, grid_subspaces(g.dim)):
        assert subideal_oracle([], h) == (h.dim == g.dim)
        assert subideal_oracle([full_subalgebra(g)], h) == is_ideal(g, h)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_oracle_with_chain_links_matches_decision(name):
    g = catalog.get(name).algebra
    grid = enumerate_grid_subalgebras(g, grid_subspaces(g.dim))
    for h in grid:
        verdict = subideal_chain(g, h)
        links = list(verdict.chain.links) if verdict else []
        assert subideal_oracle(grid + links, h) == bool(verdict)


def test_zero_subalgebra_edge_cases():
    g = catalog.get("sl2_sum_aff1").algebra
    z = Subalgebra(g, Subspace.zero(g.dim))
    verdict = subideal_chain(g, z)
    assert verdict and verdict.chain.dims() == (0, 5)
    assert check_radical_intersection(g, z, verdict.chain).dim == 0
    assert levi_criterion(g, z, verdict.chain) is True


def test_random_solvable_is_solvable_and_deterministic():
    g1 = random_solvable_algebra(random.Random(42))
    g2 = random_solvable_algebra(random.Random(42))
    assert g1.c == g2.c
    assert validate(g1).ok
    assert is_solvable_space(g1, Subspace.full(g1.dim))


# --- ideal membership and closure against the dense reference ----------------


@pytest.mark.parametrize("name", catalog.list_names())
def test_is_ideal_and_ideal_closure_match_span_reference(name):
    entry = catalog.get(name)
    g = entry.algebra
    full = full_subalgebra(g)
    subs = [full, Subalgebra(g, Subspace.zero(g.dim)), center(g), derived_subalgebra(full)]
    subs += [Subalgebra(g, s) for s in entry.tagged_subalgebras.values()]
    if g.dim <= 3:
        subs += enumerate_grid_subalgebras(g, grid_subspaces(g.dim))
    n, consts = g.dim, g.brackets()
    for amb in subs:
        for h in subs:
            if not amb.space.contains(h.space):
                continue
            a, b = amb.space.basis.entries, h.space.basis.entries
            assert is_ideal(amb, h) == reference.is_ideal(n, consts, a, b)
            assert ideal_closure(amb, h).space.basis.entries == reference.ideal_closure(n, consts, a, b)
