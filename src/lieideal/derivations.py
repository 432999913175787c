"""Derivation algebras, holomorphs, and the derivation tower.

A derivation of g is an endomorphism f with f([x,y]) = [f(x),y] + [x,f(y)].
The solver treats the n^2 matrix entries of f (row-major) as unknowns and
takes the exact kernel of the stacked Leibniz constraints over all basis
pairs, assembled from the numerators in LieAlgebra.integer_constants and never
divided by their denominator den: the system is homogeneous, and the inner
derivations, taken as den * ad_{e_i}, span the same subspace.  The canonical
RREF kernel rows fix the structure constants of D(g) deterministically:
liealg.span_algebra reads them off the kernel, with the sparse
exactlin.commutator on the integer-scaled flattened rows as the bracket, and
checks that every commutator stays in the kernel; LieAlgebra.scaled_adjoint
flattens the inner den * ad_{e_i} the same way.  The holomorph takes its
constants from h's and D(h)'s integer_constants and the kernel's integer_rows
over one lcm, through LieAlgebra.from_scaled.  Only the realization maps read
the kernel's Fraction rows, and only they and the coordinates handed back to
callers are dense.

derivation_algebra caches the solve on the algebra's structure, which
ignores names; a hit is handed back renamed for the caller's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from math import lcm

from .exactlin import Echelon, Mat, Subspace, Vector, commutator, dense_vector, sparse_vector
from .liealg import (
    InternalCheckError,
    LieAlgebra,
    LinMap,
    Subalgebra,
    center,
    is_ideal,
    span_algebra,
    validate_or_raise,
)


@dataclass(frozen=True)
class DerivationAlgebra:
    """D(base): abstract structure constants plus the matrix realization.

    ``span`` is the solution space of the Leibniz system in flattened
    (row-major) endomorphism coordinates: entry (a, b) of a derivation sits
    at index a * n + b of its row.
    """

    base: LieAlgebra
    algebra: LieAlgebra
    inner: Subspace
    span: Subspace

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def realization(self) -> tuple[LinMap, ...]:
        """The span's RREF rows reshaped to dense matrices, built on first use."""
        n = self.base.dim
        maps = []
        for row in self.span.rows:
            flat = dense_vector(n * n, row)
            m = Mat([flat[a * n : (a + 1) * n] for a in range(n)], cols=n)
            maps.append(LinMap(self.base, self.base, m))
        return tuple(maps)

    def coordinates_of(self, endo: Mat) -> Vector:
        """Coordinates of an endomorphism in the derivation basis.

        Raises if the matrix is not a derivation (not in the span).
        """
        n = self.base.dim
        flat = {a * n + b: x for a, row in enumerate(endo.entries) for b, x in enumerate(row) if x}
        coords = self.span.coordinates(flat)
        if coords is None:
            raise ValueError("endomorphism is not in the derivation span")
        return dense_vector(self.dim, coords.items())

    def adjoint_coordinates(self, x) -> Vector:
        """Coordinates of ad_x inside D(base): those of den * ad_x, over den.

        ad_x is a member by linearity, since _solve checks every ad_{e_i}.
        """
        g = self.base
        coords = self.span.coordinates(g.scaled_adjoint(sparse_vector(g.dim, x).items()))
        return dense_vector(self.dim, ((i, q / g.integer_constants[0]) for i, q in coords.items()))


def _leibniz_kernel(g: LieAlgebra) -> list[dict[int, int]]:
    """Integer kernel of the Leibniz system, in numerators; unknowns f_ab at index a*n + b."""
    n = g.dim
    nz = g.integer_constants[1]
    ech = Echelon(n * n)
    for i in range(n):
        for j in range(i + 1, n):
            # one equation per output coordinate k:
            #   sum_m c_ijm f_km - sum_a c_ajk f_ai - sum_b c_ibk f_bj = 0
            rows: list[dict[int, int]] = [dict() for _ in range(n)]
            for m, v in nz[i][j]:
                for k in range(n):
                    key = k * n + m
                    rows[k][key] = rows[k].get(key, 0) + v
            for a in range(n):
                for k, v in nz[a][j]:
                    key = a * n + i
                    rows[k][key] = rows[k].get(key, 0) - v
            for b in range(n):
                for k, v in nz[i][b]:
                    key = b * n + j
                    rows[k][key] = rows[k].get(key, 0) - v
            for row in rows:
                if row:
                    ech.add(row.items())
    return ech.nullspace_rows()


def _d_name(g: LieAlgebra) -> str | None:
    return None if g.name is None else f"D({g.name})"


# 256 solves keep every hit of `verify --suite all` (81 hits, 135 misses at
# seed 0) while bounding what a long-lived process holds
@lru_cache(maxsize=256)
def _solve(g: LieAlgebra) -> DerivationAlgebra:
    """Solve the Leibniz system and package D(g).

    The abstract bracket is the commutator of the realization matrices,
    taken on the flattened kernel rows and re-expressed in them; the inner
    subspace is the span of the adjoint maps' coordinates.
    """
    n = g.dim
    kernel = Subspace.integer_span(n * n, map(dict.items, _leibniz_kernel(g)))
    algebra = validate_or_raise(span_algebra(kernel, partial(commutator, n), 1, name=_d_name(g)))
    inner_rows = [kernel.coordinates(g.scaled_adjoint(((i, 1),))) for i in range(n)]
    if None in inner_rows:
        raise InternalCheckError("inner derivation escaped the solution span")
    inner = Subspace.span(kernel.dim, inner_rows)
    return DerivationAlgebra(base=g, algebra=algebra, inner=inner, span=kernel)


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """D(g), solved once per structure and named after the caller's algebra.

    The cache treats equal structures alike whatever their names; a hit for
    another algebra object is repackaged around the caller's algebra as a new
    DerivationAlgebra, never by mutating the cached value.
    """
    da = _solve(g)
    if da.base is g:
        return da
    return replace(da, base=g, algebra=da.algebra.renamed(_d_name(g)))


derivation_algebra.cache_info = _solve.cache_info
derivation_algebra.cache_clear = _solve.cache_clear


def leibniz_defect(g: LieAlgebra, f: Mat) -> Vector | None:
    """First nonzero f([ei,ej]) - [f ei, ej] - [ei, f ej], or None if f derives."""
    n = g.dim
    for i in range(n):
        fi = f.column(i)
        for j in range(i + 1, n):
            lhs = f.apply(g.bracket(g.basis_vector(i), g.basis_vector(j)))
            rhs1 = g.bracket(fi, g.basis_vector(j))
            rhs2 = g.bracket(g.basis_vector(i), f.column(j))
            defect = tuple(a - b - c for a, b, c in zip(lhs, rhs1, rhs2))
            if any(defect):
                return defect
    return None


def is_derivation(g: LieAlgebra, f: Mat) -> bool:
    return leibniz_defect(g, f) is None


def is_complete(g: LieAlgebra) -> bool:
    """Trivial center and every derivation inner."""
    if center(g).dim != 0:
        return False
    da = derivation_algebra(g)
    return da.inner.dim == da.dim


def holomorph(h: LieAlgebra) -> tuple[LieAlgebra, LinMap, LinMap]:
    """Semidirect product of h with its derivation algebra.

    Coordinates: the first dim(h) axes carry h, the rest carry D(h).  The
    bracket is [(X,f),(Y,g)] = ([X,Y] + f(Y) - g(X), [f,g]); the h part is
    an ideal, the derivation part a subalgebra.
    """
    da = derivation_algebra(h)
    n, d = h.dim, da.dim
    N = n + d
    # h's constants, the derivations' entries and D(h)'s constants over one lcm
    L, rows = da.span.integer_rows
    scale = lcm(h.integer_constants[0], L, da.algebra.integer_constants[0])
    table = {**h.scaled_table(scale), **da.algebra.scaled_table(scale, n)}
    s = scale // L
    for a, f in enumerate(rows):
        # [e_j, f] = -f(e_j), minus column j of f = rows[a] / L
        for idx, v in f:
            k, j = divmod(idx, n)
            table.setdefault((j, n + a), {})[k] = -v * s
    name = None if h.name is None else f"H({h.name})"
    g = validate_or_raise(LieAlgebra.from_scaled(N, scale, table, name=name))
    embed_h = LinMap(h, g, Mat([[1 if i == j else 0 for j in range(n)] for i in range(N)], cols=n))
    embed_d = LinMap(
        da.algebra,
        g,
        Mat([[1 if i == n + j else 0 for j in range(d)] for i in range(N)], cols=d),
    )
    h_part = Subalgebra(g, embed_h.image())
    if not is_ideal(g, h_part):
        raise InternalCheckError("holomorph base part is not an ideal")
    Subalgebra(g, embed_d.image())  # raises if not bracket-closed
    return g, embed_h, embed_d


@dataclass(frozen=True)
class TowerReport:
    """Stages g, D(g), D^2(g), ... with the adjoint embeddings between them.

    stabilized_at is the index of the first complete stage, or None when the
    step budget ran out first.
    """

    stages: tuple[LieAlgebra, ...]
    embeddings: tuple[LinMap, ...]
    stabilized_at: int | None

    @property
    def exceeded_budget(self) -> bool:
        return self.stabilized_at is None


def derivation_tower(g: LieAlgebra, max_steps: int | None = None) -> TowerReport:
    """Iterate D until a complete stage appears or the budget runs out.

    Requires trivial center; each stage is embedded in the next through its
    adjoint representation (faithful, by centerlessness) and every stage is
    re-checked centerless, which the tower theorem guarantees.
    """
    if center(g).dim != 0:
        raise ValueError("derivation tower needs a centerless algebra")
    if max_steps is None:
        max_steps = g.dim * g.dim + 1
    stages = [g]
    embeddings: list[LinMap] = []
    for _ in range(max_steps):
        current = stages[-1]
        if is_complete(current):
            return TowerReport(tuple(stages), tuple(embeddings), len(stages) - 1)
        da = derivation_algebra(current)
        nxt = da.algebra
        if center(nxt).dim != 0:
            raise InternalCheckError("derivation algebra of a centerless algebra has center")
        cols = [
            da.adjoint_coordinates(current.basis_vector(i))
            for i in range(current.dim)
        ]
        emb = LinMap(current, nxt, Mat.from_columns(cols, rows=nxt.dim))
        _check_tower_embedding(emb)
        stages.append(nxt)
        embeddings.append(emb)
    if is_complete(stages[-1]):
        return TowerReport(tuple(stages), tuple(embeddings), len(stages) - 1)
    return TowerReport(tuple(stages), tuple(embeddings), None)


def _check_tower_embedding(emb: LinMap) -> None:
    from .liealg import is_homomorphism

    if emb.kernel().dim != 0:
        raise InternalCheckError("tower embedding is not injective")
    if not is_homomorphism(emb):
        raise InternalCheckError("tower embedding is not a homomorphism")
    image = Subalgebra(emb.target, emb.image())
    if not is_ideal(emb.target, image):
        raise InternalCheckError("tower embedding image is not an ideal")


@dataclass(frozen=True)
class DerivedTowerCheck:
    """Both sides of: D(g) is complete iff g is an ideal of D^2(g)."""

    lhs_complete: bool
    rhs_ideal: bool

    @property
    def consistent(self) -> bool:
        return self.lhs_complete == self.rhs_ideal


def theorem_derived_check(g: LieAlgebra) -> DerivedTowerCheck:
    if center(g).dim != 0:
        raise ValueError("check needs a centerless algebra")
    da1 = derivation_algebra(g)
    d1 = da1.algebra
    da2 = derivation_algebra(d1)
    d2 = da2.algebra
    lhs = is_complete(d1)
    image_rows = []
    for i in range(g.dim):
        inner1 = da1.adjoint_coordinates(g.basis_vector(i))
        inner2 = da2.adjoint_coordinates(inner1)
        image_rows.append(inner2)
    image = Subalgebra(d2, Subspace.span(d2.dim, image_rows))
    rhs = is_ideal(d2, image)
    return DerivedTowerCheck(lhs_complete=lhs, rhs_ideal=rhs)


def is_characteristic(g: LieAlgebra, h: Subalgebra) -> bool:
    """Every derivation of g maps h into h.  h must be an ideal of g."""
    if h.parent != g:
        raise ValueError("subalgebra of a different algebra")
    if not is_ideal(g, h):
        raise ValueError("is_characteristic needs an ideal")
    n = g.dim
    for f in derivation_algebra(g).span.integer_rows[1]:
        for u in map(dict, h.space.integer_rows[1]):
            # f(u) from the flattened entries f_ab = f[a * n + b]
            image: dict[int, int] = {}
            for idx, v in f:
                a, b = divmod(idx, n)
                if b in u:
                    image[a] = image.get(a, 0) + v * u[b]
            if h.space.scaled_residual(image.items()):
                return False
    return True
