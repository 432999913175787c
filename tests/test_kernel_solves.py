"""The sparse kernel solves against the dense code they replaced.

center, centralizer, normalizer, intersect, killing_form and quotient
work on sparse columns (exactlin.column_kernel) or directly on the sparse
structure constants.  The references below are the dense computations they
replaced: stacked adjoint matrices, the constraint matrix of a subspace (the
matrix of its residual map), the dense trace loop of the Killing form and the
quotient's dense projection.  Their kernels are taken row by row through
Echelon, as the dense nullspace did, and their ad_x is built column by column
from the dense bracket, so none of them reads LieAlgebra.scaled_adjoint.
"""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from lieideal import catalog
from lieideal.derivations import derivation_algebra, holomorph
from lieideal.exactlin import (
    Echelon,
    Mat,
    Subspace,
    column_kernel,
    commutator,
    dense_vector,
    intersect,
    lift,
    nullspace,
    over_lcm,
)
from lieideal.liealg import (
    LieAlgebra,
    LinMap,
    Subalgebra,
    center,
    centralizer,
    derived_subalgebra,
    direct_sum,
    full_subalgebra,
    is_homomorphism,
    is_ideal,
    killing_form,
    normalizer,
    quotient,
    radical,
    span_algebra,
    sub_radical,
    sub_to_algebra,
)
from lieideal.suites import check_adjoint_identity
from lieideal.transitivity import enumerate_grid_subalgebras, ideal_closure, random_solvable_algebra


def dense_nullspace(m):
    ech = Echelon(m.cols)
    for r in m.entries:
        ech.add(enumerate(r))
    return Subspace.span(m.cols, ech.nullspace_rows())


def constraint_matrix(space):
    """I minus, at each pivot column p_i, the RREF row i: the residual map's matrix."""
    n = space.ambient_dim
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for p, row in zip(space.pivots, space.rows):
        for r, b in row:
            rows[r][p] -= b
    return Mat(rows, cols=n)


def common_kernel(g, mats):
    return dense_nullspace(Mat([row for m in mats for row in m.entries], cols=g.dim))


def ref_ad(g, x):
    """ad_x as a dense matrix, column j the dense [x, e_j]: no adjoint kernel is read."""
    return Mat.from_columns([g.bracket(x, g.basis_vector(j)) for j in range(g.dim)], rows=g.dim)


def ref_center(g):
    return common_kernel(g, (ref_ad(g, g.basis_vector(i)) for i in range(g.dim)))


def ref_centralizer(g, h):
    return common_kernel(g, (ref_ad(g, y) for y in h.basis_vectors()))


def ref_normalizer(g, h):
    c = constraint_matrix(h.space)
    return common_kernel(g, (c * ref_ad(g, y) for y in h.basis_vectors()))


def ref_intersect(u, v):
    m = constraint_matrix(u)
    return dense_nullspace(Mat(m.entries + constraint_matrix(v).entries, cols=u.ambient_dim))


def ref_killing(g):
    n = g.dim
    ads = [ref_ad(g, g.basis_vector(i)) for i in range(n)]
    K = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    K[i][j] += ads[i].entries[a][b] * ads[j].entries[b][a]
    return Mat(K, cols=n)


def ref_quotient(g, ideal):
    """Brackets and projection: the constraint matrix's rows off the ideal's pivots."""
    pivots = set(ideal.space.pivots)
    coords = [j for j in range(g.dim) if j not in pivots]
    proj = Mat([constraint_matrix(ideal.space).entries[c] for c in coords], cols=g.dim)
    e = g.basis_vector
    brackets = {
        (a, b): dict(enumerate(proj.apply(g.bracket(e(coords[a]), e(coords[b])))))
        for a in range(len(coords))
        for b in range(a + 1, len(coords))
    }
    return LieAlgebra.from_brackets(len(coords), brackets), proj


def ref_adjoint_identities(g):
    """Count [f, ad_{e_i}] == ad_{f(e_i)} as dense Mat products, over D(g)'s realization."""
    ads = [ref_ad(g, g.basis_vector(i)) for i in range(g.dim)]
    count = 0
    for f in derivation_algebra(g).realization:
        fm = f.matrix
        for i, ad in enumerate(ads):
            assert fm * ad - ad * fm == ref_ad(g, fm.column(i))
            count += 1
    return count


def rescale(g, d):
    """g in the basis e'_i = d_i e_i, and the map of coordinates into it."""
    brackets = {
        (i, j): {k: d[i] * d[j] * c / d[k] for k, c in row.items()}
        for (i, j), row in g.brackets().items()
    }
    h = LieAlgebra.from_brackets(g.dim, brackets, name=f"{g.name}'")
    return h, lambda v: [Fraction(x) / d[i] for i, x in enumerate(v)]


def shear(g):
    """g in the basis e'_0 = e_0, e'_j = e_j + e_(j-1), and the map of coordinates into it.

    Centers, derived algebras and radicals that are coordinate subspaces of
    the catalog's basis are not in this one, so their RREF rows have entries
    off the pivots.
    """
    n = g.dim

    def move(w):
        # w = sum_j x_j e'_j has w_k = x_k + x_(k+1)
        x = [Fraction(0)] * (n + 1)
        for k in reversed(range(n)):
            x[k] = Fraction(w[k]) - x[k + 1]
        return x[:n]

    basis = [[int(k in (j, j - 1)) for k in range(n)] for j in range(n)]
    brackets = {
        (i, j): dict(enumerate(move(g.bracket(basis[i], basis[j]))))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_brackets(n, brackets, name=f"{g.name}~"), move


def _corpus():
    """(label, algebra, tagged subspaces): the catalog, rescaled, sheared, and random algebras."""
    out = []
    for name in catalog.list_names():
        entry = catalog.get(name)
        g = entry.algebra
        tags = list(entry.tagged_subalgebras.values())
        out.append((name, g, tags))
        for h, move in (rescale(g, [Fraction(i + 2, 2 * i + 3) for i in range(g.dim)]), shear(g)):
            moved = [Subspace.span(g.dim, map(move, t.basis_vectors())) for t in tags]
            out.append((h.name, h, moved))
    for seed in range(8):
        g = random_solvable_algebra(random.Random(seed), 3 if seed % 4 else 2, 2 + seed % 3)
        out.append((f"solvable{seed}", g, []))
    return out


CORPUS = _corpus()
IDS = [label for label, _, _ in CORPUS]


def subalgebras(g, tags):
    """Tagged subalgebras, center, derived algebra, basis lines and, at dim <= 3, the grid."""
    subs = {Subalgebra(g, t) for t in tags}
    subs |= {center(g), derived_subalgebra(full_subalgebra(g))}
    subs |= {Subalgebra(g, Subspace.span(g.dim, [{i: 1}])) for i in range(g.dim)}
    if g.dim <= 3:
        subs |= set(enumerate_grid_subalgebras(g))
    return sorted(subs, key=lambda h: (h.dim, h.space.pivots, h.space.rows))


def test_corpus_reaches_dim_6_fractions_and_non_coordinate_ideals():
    dims = {g.dim for label, g, _ in CORPUS if label.startswith("solvable")}
    assert max(dims) == 6 and min(dims) <= 3
    assert any(g.integer_constants[0] > 1 for _, g, _ in CORPUS)
    # every catalog algebra has den = 1; each nonabelian one is rescaled to den > 1
    assert all(catalog.get(name).algebra.integer_constants[0] == 1 for name in catalog.list_names())
    rescaled = [g for label, g, _ in CORPUS if label.endswith("'")]
    assert len(rescaled) == len(catalog.list_names())
    fractional = [g for g in rescaled if g.integer_constants[0] > 1]
    assert fractional == [g for g in rescaled if g.brackets()]
    # some centers and derived algebras have RREF rows with entries off the pivots
    assert any(
        len(row) > 1
        for _, g, _ in CORPUS
        for ideal in (center(g), derived_subalgebra(full_subalgebra(g)))
        for row in ideal.space.rows
    )


@pytest.mark.parametrize("g", [g for _, g, _ in CORPUS], ids=IDS)
def test_center_and_killing_form_match_dense(g):
    assert center(g).space == ref_center(g)
    assert killing_form(g).matrix == ref_killing(g)


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_centralizer_and_normalizer_match_dense(g, tags):
    for h in subalgebras(g, tags):
        assert centralizer(g, h).space == ref_centralizer(g, h)
        assert normalizer(g, h).space == ref_normalizer(g, h)


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_intersect_matches_dense(g, tags):
    spaces = [h.space for h in subalgebras(g, tags)] + [Subspace.zero(g.dim)]
    for u, v in itertools.product(spaces, repeat=2):
        assert intersect(u, v) == ref_intersect(u, v)


@pytest.mark.parametrize("g", [g for _, g, _ in CORPUS], ids=IDS)
def test_quotient_matches_dense(g):
    for ideal in (center(g), derived_subalgebra(full_subalgebra(g)), radical(g)):
        q, proj = quotient(g, ideal)
        ref_q, ref_proj = ref_quotient(g, ideal)
        assert q == ref_q
        assert proj.matrix == ref_proj


def ref_sub_algebra(g, h):
    """h in its RREF basis, its constants read off the dense bracket and coordinates."""
    basis = h.basis_vectors()
    brackets = {
        (a, b): h.space.coordinates(dict(enumerate(g.bracket(basis[a], basis[b]))))
        for a, b in itertools.combinations(range(h.dim), 2)
    }
    return LieAlgebra.from_brackets(h.dim, brackets)


# every catalog algebra has den = 1; only rescaling moves it, so only these
# can tell a bracket divided by den * L^2 from one divided by L^2 alone
MOVED = [(label, g, tags) for label, g, tags in CORPUS if label.endswith(("'", "~"))]


def moved_subalgebras(g, tags):
    return [Subalgebra(g, t) for t in tags] + [center(g), derived_subalgebra(full_subalgebra(g))]


def test_moved_corpus_has_den_above_1_under_nonabelian_subalgebras():
    assert any(
        g.integer_constants[0] > 1 and sub_to_algebra(h).brackets()
        for _, g, tags in MOVED
        for h in moved_subalgebras(g, tags)
    )


@pytest.mark.parametrize(
    ("g", "tags"), [(g, t) for _, g, t in MOVED], ids=[label for label, _, _ in MOVED]
)
def test_sub_to_algebra_matches_dense(g, tags):
    for h in moved_subalgebras(g, tags):
        algebra = sub_to_algebra(h)
        assert algebra == ref_sub_algebra(g, h)
        incl = LinMap(algebra, g, h.space.basis.transpose())
        assert is_homomorphism(incl)
        assert incl.image() == h.space


# --- lift against the dense inclusion it replaced ------------------------------
#
# sub_radical used to carry a subspace of sub_to_algebra(h)'s coordinates back
# to the parent through a dense inclusion: Mat.from_columns on h's RREF basis,
# LinMap.apply on each basis vector, then a Fraction span.  DerivationAlgebra.
# adjoint_coordinates used to solve for the dense ad_x, flattened.  The
# references keep those routes.

# the catalog, rescaled to den > 1 and sheared off the coordinate axes
CATALOG_AND_MOVED = [(label, g, tags) for label, g, tags in CORPUS if not label.startswith("solvable")]
CATALOG_AND_MOVED_IDS = [label for label, _, _ in CATALOG_AND_MOVED]


def ref_lift(g, h, sub):
    """sub, a subalgebra of sub_to_algebra(h), in g's coordinates through the dense inclusion."""
    incl = Mat.from_columns(h.basis_vectors(), rows=g.dim)
    return Subspace.span(g.dim, [incl.apply(v) for v in sub.basis_vectors()])


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CATALOG_AND_MOVED], ids=CATALOG_AND_MOVED_IDS)
def test_lift_matches_the_dense_inclusion(g, tags):
    for h in subalgebras(g, tags):
        algebra = sub_to_algebra(h)
        rad, z = radical(algebra), center(algebra)
        assert lift(h.space, rad.space) == ref_lift(g, h, rad) == sub_radical(h)
        # z(h) in g's coordinates, as check_complete_subideal takes z(k)
        assert lift(h.space, z.space) == ref_lift(g, h, z) == intersect(h.space, centralizer(g, h).space)
        assert lift(h.space, Subspace.full(h.dim)) == h.space
        assert lift(h.space, Subspace.zero(h.dim)) == Subspace.zero(g.dim)


@pytest.mark.parametrize("g", [g for _, g, _ in CATALOG_AND_MOVED], ids=CATALOG_AND_MOVED_IDS)
def test_adjoint_coordinates_match_the_matrix_route(g):
    rng = random.Random(g.dim)
    da = derivation_algebra(g)
    for d in (da, derivation_algebra(da.algebra)):  # on g, then on D(g)
        n = d.base.dim
        xs = [d.base.basis_vector(i) for i in range(n)]
        xs += [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)) for _ in range(3)]
        for x in xs:
            got = d.adjoint_coordinates(x)
            assert got == d.coordinates_of(d.base.adjoint_matrix(x).matrix)
            assert all(type(v) is Fraction for v in got)


def test_column_kernel_and_nullspace_match_the_row_solve():
    rng = random.Random(0)
    for _ in range(200):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = Mat(
            [[Fraction(rng.choice([0, 0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)],
            cols=cols,
        )
        ref = dense_nullspace(m)
        assert nullspace(m) == ref
        columns = [{i: x for i, x in enumerate(m.column(j)) if x} for j in range(cols)]
        assert column_kernel(columns) == ref


@pytest.mark.parametrize("g", [g for _, g, _ in CORPUS], ids=IDS)
def test_sparse_adjoint_identity_matches_dense(g):
    n, den = g.dim, g.integer_constants[0]
    for x in [{i: 1} for i in range(n)] + [{i: i - 2 for i in range(n) if i != 2}]:
        dense = [Fraction(x.get(i, 0)) for i in range(n)]
        ad = ref_ad(g, dense)
        flat = {a * n + b: v * den for a, r in enumerate(ad.entries) for b, v in enumerate(r) if v}
        assert g.scaled_adjoint(x.items()) == flat
        assert g.adjoint_matrix(dense).matrix == ad
    assert check_adjoint_identity(g.name, g) == ref_adjoint_identities(g)



# --- the integer kernels against the Fraction code they replaced ---------------
#
# scaled_bracket, Subspace.scaled_residual and Subspace.integer_span run the
# bracket -> membership/span loop in integers.  The references are the loops
# they replaced, written out here, and a dense Gauss-Jordan elimination in
# Fractions that shares no code with Echelon.


def old_sparse_bracket(g, x, y):
    """The Fraction bracket loop before scaled_bracket: clear only when den > 1."""
    den, num = g.integer_constants
    d = 1
    if den > 1:
        (dx, xs), (dy, ys) = over_lcm(x), over_lcm(y)
        x, y, d = xs.items(), ys.items(), dx * dy * den
    out = {}
    for i, xi in x:
        for j, yj in y:
            for k, v in num[i][j]:
                out[k] = out.get(k, 0) + xi * yj * v
    return {k: v if d == 1 else Fraction(v, d) for k, v in out.items() if v}


def old_scaled_residual(u, num):
    """The all-pivots loop before the pivot-indexed one: L*num minus every row's share."""
    L, rows = u.integer_rows
    num = dict(num)
    work = {j: L * x for j, x in num.items()}
    for p, row in zip(u.pivots, rows):
        c = num.get(p)
        if c:
            for j, b in row:
                work[j] = work.get(j, 0) - c * b
    return {j: w for j, w in work.items() if w}


def dense_rref(n, vectors):
    """Reduced row-echelon rows of the span of dense vectors, by plain Gauss-Jordan."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    out, r = [], 0
    for c in range(n):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def sample_vectors(rng, space):
    """Members, non-members, the empty vector and vectors with entries off the pivots, in ints."""
    n, rows = space.ambient_dim, space.integer_rows[1]
    off = [j for j in range(n) if j not in space.pivots]
    out = [{}]
    for _ in range(6):
        member: dict[int, int] = {}
        for row in rows:
            c = rng.randint(-3, 3)
            for j, b in row:
                member[j] = member.get(j, 0) + c * b
        out.append({j: v for j, v in member.items() if v})
        anywhere = {j: rng.randint(-4, 4) for j in rng.sample(range(n), rng.randint(1, n))}
        out.append({j: v for j, v in anywhere.items() if v})
        if off:
            out.append({rng.choice(off): rng.randint(1, 5)})
    return out


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_scaled_bracket_is_den_times_the_old_bracket(g, tags):
    den, n = g.integer_constants[0], g.dim
    rows = [r for h in subalgebras(g, tags) for r in h.space.integer_rows[1]]
    rows += [((i, 1),) for i in range(n)]
    rng = random.Random(n)
    for x, y in itertools.islice(itertools.product(rows, repeat=2), 400):
        ref = old_sparse_bracket(g, x, y)
        got = g.scaled_bracket(x, y)
        assert got == {k: den * v for k, v in ref.items()}
        assert all(type(v) is int for v in got.values())
        assert g.bracket(dense_vector(n, x), dense_vector(n, y)) == dense_vector(n, ref.items())
        # Fraction inputs: the kernel stays exact, the dense bracket still matches
        fx = [(j, Fraction(v, rng.randint(1, 4))) for j, v in x]
        fy = [(j, Fraction(v, rng.randint(1, 4))) for j, v in y]  # any vectors: entries differ
        ref = old_sparse_bracket(g, fx, fy)
        assert g.scaled_bracket(fx, fy) == {k: den * v for k, v in ref.items()}
        got = g.bracket(dense_vector(n, fx), dense_vector(n, fy))
        assert got == dense_vector(n, ref.items())
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_pivot_indexed_residual_matches_the_all_pivots_loop(g, tags):
    rng = random.Random(g.dim)
    spaces = [h.space for h in subalgebras(g, tags)] + [Subspace.zero(g.dim)]
    for space in spaces:
        L = space.integer_rows[0]
        for v in sample_vectors(rng, space):
            ref = old_scaled_residual(space, v.items())
            assert space.scaled_residual(v.items()) == ref
            assert space.residual(v) == {j: Fraction(w, L) for j, w in ref.items()}
            assert space.contains_vector(v) == (not ref)
            # membership ignores scale, also a fractional one
            halves = {j: Fraction(x, 2) for j, x in v.items()}
            assert space.contains_vector(halves) == (not ref)
            assert (not space.scaled_residual(halves.items())) == (not ref)


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_integer_span_equals_the_fraction_span_and_dense_rref(g, tags):
    n = g.dim
    rng = random.Random(n + 1)
    subs = subalgebras(g, tags)
    for h, k in itertools.islice(itertools.product(subs, repeat=2), 60):
        ys = k.space.integer_rows[1]
        rows = [g.scaled_bracket(x, y) for x in h.space.integer_rows[1] for y in ys]
        rows += [dict(r) for r in h.space.integer_rows[1]]
        rows += sample_vectors(rng, k.space)[:3]
        got = Subspace.integer_span(n, [r.items() for r in rows])
        fractions = []  # the same rows, each over a denominator of its own
        for r in rows:
            d = rng.randint(1, 5)
            fractions.append({j: Fraction(v, d) for j, v in r.items()})
        assert got == Subspace.span(n, fractions)
        assert got.basis.entries == dense_rref(n, [[r.get(j, 0) for j in range(n)] for r in rows])


def dense_is_ideal(g, amb, h):
    e = h.space.basis.entries
    return all(
        len(dense_rref(g.dim, [*e, g.bracket(x, y)])) == h.dim
        for x in amb.space.basis.entries
        for y in e
    )


def dense_ideal_closure(g, amb, h):
    """S <- S + ad_x(S) with dense adjoint matrices, until the rank stops growing."""
    ads = [ref_ad(g, x) for x in amb.space.basis.entries]
    rows = dense_rref(g.dim, h.space.basis.entries)
    while True:
        grown = dense_rref(g.dim, [*rows, *(ad.apply(v) for ad in ads for v in rows)])
        if len(grown) == len(rows):
            return rows
        rows = grown


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_is_ideal_and_ideal_closure_match_dense(g, tags):
    subs = subalgebras(g, tags)
    ambients = [full_subalgebra(g)] + [k for k in subs if 0 < k.dim < g.dim][:4]
    for amb in ambients:
        for h in subs:
            if not amb.space.contains(h.space):
                continue
            assert is_ideal(amb, h) == dense_is_ideal(g, amb, h)
            assert ideal_closure(amb, h).space.basis.entries == dense_ideal_closure(g, amb, h)


# --- the integer builders against the Fraction path they replaced -----------
#
# span_algebra, quotient, direct_sum and holomorph hand integer tables to
# LieAlgebra.from_scaled.  The references are the builders before that change,
# which assembled Fraction brackets (from brackets(), Subspace.rows and the
# Fraction residual) in the form from_brackets takes.  Each built algebra must
# show the same constants through brackets() and carry the same name.


def old_span_brackets(space, bracket, scale):
    """Each coordinate as Fraction(c, scale * L^2), scanning all r pivots per pair."""
    L, rows = space.integer_rows
    d = scale * L * L
    return {
        (a, b): {i: Fraction(c, d) for i, p in enumerate(space.pivots) if (c := w.get(p))}
        for a, b in itertools.combinations(range(len(rows)), 2)
        for w in [bracket(rows[a], rows[b])]
    }


def old_quotient_brackets(g, ideal):
    space, table = ideal.space, g.brackets()
    pivots = set(space.pivots)
    coords = [j for j in range(g.dim) if j not in pivots]
    pos = {c: a for a, c in enumerate(coords)}
    return {
        (a, b): {pos[k]: v for k, v in space.residual(table.get((ca, cb), {})).items()}
        for a, ca in enumerate(coords)
        for b, cb in enumerate(coords[a + 1 :], a + 1)
    }


def old_direct_sum_brackets(g1, g2):
    brackets = g1.brackets()
    for (i, j), row in g2.brackets().items():
        brackets[(g1.dim + i, g1.dim + j)] = {g1.dim + k: v for k, v in row.items()}
    return brackets


def old_holomorph_brackets(h):
    """h's brackets, each Fraction row f of D(h)'s span as [f, e_j] = f(e_j), then D(h)'s brackets."""
    da, n = derivation_algebra(h), h.dim
    brackets = h.brackets()
    for a, f in enumerate(da.span.rows):
        for idx, v in f:
            k, j = divmod(idx, n)
            brackets.setdefault((n + a, j), {})[k] = v
    for (a, b), row in da.algebra.brackets().items():
        brackets[(n + a, n + b)] = {n + k: v for k, v in row.items()}
    return brackets


def assert_built_as(algebra, dim, brackets, name=None):
    """algebra holds exactly the nonzero Fraction brackets, (j, i) pairs folded onto i < j."""
    folded = {}
    for (i, j), row in brackets.items():
        sign, key = (1, (i, j)) if i < j else (-1, (j, i))
        out = folded.setdefault(key, {})
        for k, v in row.items():
            out[k] = out.get(k, 0) + sign * v
    folded = {p: {k: v for k, v in row.items() if v} for p, row in folded.items()}
    assert algebra.dim == dim and algebra.name == name
    assert algebra.brackets() == {p: row for p, row in folded.items() if row}
    assert algebra == LieAlgebra.from_brackets(dim, brackets)


@pytest.mark.parametrize(("g", "tags"), [(g, t) for _, g, t in CORPUS], ids=IDS)
def test_span_algebra_and_quotient_match_the_fraction_path(g, tags):
    den = g.integer_constants[0]
    for h in subalgebras(g, tags):
        brackets = old_span_brackets(h.space, g.scaled_bracket, den)
        assert_built_as(span_algebra(h.space, g.scaled_bracket, den), h.dim, brackets)
        assert_built_as(sub_to_algebra(h), h.dim, brackets)
    da = derivation_algebra(g)
    bracket = partial(commutator, g.dim)
    brackets = old_span_brackets(da.span, bracket, 1)
    assert_built_as(span_algebra(da.span, bracket, 1, name="D"), da.dim, brackets, "D")
    assert da.algebra.brackets() == span_algebra(da.span, bracket, 1).brackets()
    name = None if g.name is None else f"{g.name}/ideal"
    for ideal in (center(g), derived_subalgebra(full_subalgebra(g)), radical(g)):
        q, _ = quotient(g, ideal)
        assert_built_as(q, g.dim - ideal.dim, old_quotient_brackets(g, ideal), name)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=IDS)
def test_direct_sum_and_holomorph_match_the_fraction_path(index):
    _, g, _ = CORPUS[index]
    # the next algebra of the corpus, often of another den: the sum's is their lcm
    _, other, _ = CORPUS[(index + 1) % len(CORPUS)]
    for second in (g, other):
        total, _, _ = direct_sum(g, second)
        name = f"{g.name}+{second.name}" if g.name and second.name else None
        assert_built_as(total, g.dim + second.dim, old_direct_sum_brackets(g, second), name)
    big, _, _ = holomorph(g)
    name = None if g.name is None else f"H({g.name})"
    assert_built_as(big, g.dim + derivation_algebra(g).dim, old_holomorph_brackets(g), name)
