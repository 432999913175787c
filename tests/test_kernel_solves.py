"""The sparse kernel solves against the dense code they replaced.

center, centralizer, normalizer, intersect, killing_form and quotient
work on sparse columns (exactlin.column_kernel) or directly on the sparse
structure constants.  The references below are the dense computations they
replaced: stacked adjoint matrices, the constraint matrix of a subspace (the
matrix of its residual map), the dense trace loop of the Killing form and the
quotient's dense projection.  Their kernels are taken row by row through
Echelon, as the dense nullspace did.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lieideal import catalog
from lieideal.derivations import derivation_algebra, scaled_adjoint
from lieideal.exactlin import Echelon, Mat, Subspace, column_kernel, intersect, nullspace
from lieideal.liealg import (
    LieAlgebra,
    Subalgebra,
    center,
    centralizer,
    derived_subalgebra,
    full_subalgebra,
    killing_form,
    normalizer,
    quotient,
    radical,
)
from lieideal.suites import check_adjoint_identity
from lieideal.transitivity import enumerate_grid_subalgebras, random_solvable_algebra


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


def ref_center(g):
    return common_kernel(g, (g.adjoint_matrix(g.basis_vector(i)).matrix for i in range(g.dim)))


def ref_centralizer(g, h):
    return common_kernel(g, (g.adjoint_matrix(y).matrix for y in h.basis_vectors()))


def ref_normalizer(g, h):
    c = constraint_matrix(h.space)
    return common_kernel(g, (c * g.adjoint_matrix(y).matrix for y in h.basis_vectors()))


def ref_intersect(u, v):
    m = constraint_matrix(u)
    return dense_nullspace(Mat(m.entries + constraint_matrix(v).entries, cols=u.ambient_dim))


def ref_killing(g):
    n = g.dim
    ads = [g.adjoint_matrix(g.basis_vector(i)).matrix for i in range(n)]
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
    ads = [g.adjoint_matrix(g.basis_vector(i)).matrix for i in range(g.dim)]
    count = 0
    for f in derivation_algebra(g).realization:
        fm = f.matrix
        for i, ad in enumerate(ads):
            assert fm * ad - ad * fm == g.adjoint_matrix(fm.column(i)).matrix
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
        ad = g.adjoint_matrix([Fraction(x.get(i, 0)) for i in range(n)]).matrix
        flat = {a * n + b: v * den for a, r in enumerate(ad.entries) for b, v in enumerate(r) if v}
        assert scaled_adjoint(g, x.items()) == flat
    assert check_adjoint_identity(g.name, g) == ref_adjoint_identities(g)

