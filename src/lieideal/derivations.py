"""Derivation algebras, holomorphs, and the derivation tower.

A derivation of g is an endomorphism f with f([x,y]) = [f(x),y] + [x,f(y)].
The solver treats the n^2 matrix entries of f (row-major) as unknowns and
takes the exact kernel of the stacked Leibniz constraints over all basis
pairs, read from the numerators in LieAlgebra.integer_constants and never
divided by their denominator den: the system is homogeneous, and the inner
derivations, taken as den * ad_{e_i}, span the same subspace.  The system is
solved on the solution side, in exactlin.SolutionBasis, with no equation
built as a row: its dots with the few solutions left are summed straight from
the constants.  On sparse constants most equations are redundant, many
repeating an earlier one up to scale, and cost only those products; the rest
go to SolutionBasis.eliminate.  Repeats and the order of the equations change no
result, as Echelon then takes the final span to its canonical RREF.  Those
kernel rows fix the structure constants of D(g) deterministically:
liealg.span_table reads them off the kernel, with
exactlin.Commutator on the integer-scaled flattened rows as the bracket, and
checks on every solve that each commutator stays in the kernel.  It brackets
only the pairs whose supports meet (Commutator.pairs), as every other
commutator is zero.  The abstract algebra D(g) is built from that table
only when DerivationAlgebra.built is first read, and walked by validate only
when DerivationAlgebra.algebra is: the callers that read only the span
(is_complete, the dimension) never build it, and the holomorph builds it
without walking it, by a lemma.  In g = h x| D(h), for
i < n = dim h and D's basis f_a, f_b, the Jacobi triple (e_i, f_a, f_b)
holds exactly when the table's [f_a, f_b] and f_a f_b - f_b f_a agree on
e_i.  So once every triple that meets h holds, D's table is the commutator
of its realization maps, the kernel's RREF rows, which are independent, and
Jacobi inside D follows from associativity.  The walk visits i < n first,
so a walk limited to those reports the full walk's first failing triple,
and it catches every change to D's table, also one that D's own walk lets
pass.  Each inner den * ad_{e_i},
which LieAlgebra.scaled_adjoint flattens the same way, is checked to lie in
the kernel by its scaled residual, and its coordinates are read at the
kernel's pivots.  The holomorph takes its constants from h's and D(h)'s
integer_constants and the kernel's integer_rows over one lcm, through
LieAlgebra.from_scaled, and embeds h and D(h) as blocks of coordinates.  Only
the coordinates handed back to callers are dense; the command line prints
the span's integer_rows.

is_characteristic solves no D(g) at all.  "f maps h into h" is a set of
linear forms in f's entries, which SolutionBasis.dots reads against the
solutions of the Leibniz equations of the pairs inside h's pivot columns
first: those contain Der(g), so forms vanishing there prove h characteristic,
as they always do for a perfect ideal on its own coordinates.  Only
otherwise do the remaining pairs follow, and a form that still has a nonzero
dot names a derivation moving h, the negative answer's certificate, which
leibniz_defect re-checks.  The solve of a set of pairs is _leibniz_solve,
which _leibniz_kernel runs on every pair i < j in order.

derivation_algebra is an lru_cache keyed on the algebra's structure, which
ignores names: every algebra of one structure gets the same DerivationAlgebra,
named after the first of them to be solved, so D(g) is built and walked
at most once per structure.

theorem_derived_check is a criterion with transitivity's contract: it raises
HypothesisError when g has a center, TheoremViolationError when its two sides
(D(g) complete, g an ideal of D^2(g)) disagree, and otherwise returns the
side they agree on.  The constructions raise InternalCheckError when a
re-check of what they built fails.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from types import MappingProxyType

from .exactlin import (
    Commutator,
    Mat,
    SolutionBasis,
    Subspace,
    Vector,
    dense_vector,
    sparse_vector,
)
from .liealg import (
    HypothesisError,
    InternalCheckError,
    LieAlgebra,
    LinMap,
    Subalgebra,
    TheoremViolationError,
    block_embedding,
    center,
    is_homomorphism,
    is_ideal,
    span_table,
    validate_or_raise,
)


@dataclass(frozen=True)
class DerivationAlgebra:
    """D(base): the solution span and its checked bracket table.

    ``span`` is the solution space of the Leibniz system in flattened
    (row-major) endomorphism coordinates: entry (a, b) of a derivation sits
    at index a * n + b of its row.  ``table`` is span_table's: the nonzero
    coordinates of [b_a, b_b], a < b, over L^2, for the pairs of the span's
    RREF basis whose supports meet, each checked to stay in the span when
    the solve ran; every other pair's commutator is zero.  ``built`` is
    built from it on first read, and ``algebra`` is that same object once
    validate has walked it.  derivation_algebra hands one object to every
    algebra of a structure, so D(g) is built and walked once per structure,
    named after ``base``, the first of them to be solved.
    """

    base: LieAlgebra
    inner: Subspace
    span: Subspace
    table: Mapping[tuple[int, int], Mapping[int, int]] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def built(self) -> LieAlgebra:
        """D(base) in the span's RREF basis, from the table over L^2, not yet walked."""
        L = self.span.integer_rows[0]
        name = None if self.base.name is None else f"D({self.base.name})"
        return LieAlgebra.from_scaled(self.dim, L * L, self.table, name=name)

    @cached_property
    def algebra(self) -> LieAlgebra:
        """built, once validate has walked it."""
        return validate_or_raise(self.built)

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

        ad_x is a member by linearity, since derivation_algebra checks every ad_{e_i}.
        """
        g = self.base
        coords = self.span.coordinates(g.scaled_adjoint(sparse_vector(g.dim, x).items()))
        return dense_vector(self.dim, ((i, q / g.integer_constants[0]) for i, q in coords.items()))


def _leibniz_kernel(g: LieAlgebra) -> list[dict[int, int]]:
    """Integer basis of the Leibniz system's solutions, in flattened endomorphism coordinates.

    Every pair i < j in order, solved into a fresh SolutionBasis.  Neither
    repeated equations nor their order change the span that comes out, only
    which integer basis of it; integer_span puts the span in canonical RREF.
    """
    solutions = SolutionBasis(g.dim * g.dim)
    _leibniz_solve(g, combinations(range(g.dim), 2), solutions)
    return list(solutions.vectors.values())


def _leibniz_solve(g: LieAlgebra, pairs: Iterable[tuple[int, int]], solutions: SolutionBasis) -> None:
    """Keep in solutions only what also solves the Leibniz equations of the given pairs i < j.

    The unknowns are the entries f_ab, at index a*n + b.  For a pair i < j
    and each output coordinate k it touches, the equation reads
      sum_m c_ijm f_km - sum_a c_ajk f_ai + sum_b c_bik f_bj = 0,
    the last sum being -sum_b c_ibk f_bj by antisymmetry, in the numerators
    of integer_constants: num[i][j] lists the (m, c_ijm) and into[j][k] the
    (a, c_ajk), so a pair with [e_i, e_j] = 0 visits only the k that some
    [e_a, e_j] or [e_b, e_i] reaches.  No equation is built: each term is
    dotted straight into the solutions nonzero at its unknown, and the dots
    of an equation that touches one go to SolutionBasis.eliminate, which
    changes nothing when all are zero, as for every equation that repeats
    an earlier one up to scale.
    """
    n = g.dim
    num = g.integer_constants[1]
    into: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n)]
    for a in range(n):
        for j in range(n):
            for k, v in num[a][j]:
                into[j].setdefault(k, []).append((a, v))
    basis, at, eliminate = solutions.vectors, solutions.at, solutions.eliminate
    for i, j in pairs:
        ij, into_i, into_j = num[i][j], into[i], into[j]
        for k in range(n) if ij else into_i.keys() | into_j.keys():
            dots: dict[int, int] = {}
            for m, v in ij:
                c = k * n + m
                for t in at[c]:
                    dots[t] = dots.get(t, 0) + v * basis[t][c]
            for a, v in into_j.get(k, ()):
                c = a * n + i
                for t in at[c]:
                    dots[t] = dots.get(t, 0) - v * basis[t][c]
            for b, v in into_i.get(k, ()):
                c = b * n + j
                for t in at[c]:
                    dots[t] = dots.get(t, 0) + v * basis[t][c]
            if dots:
                eliminate(dots)


# 256 solves keep every hit of `verify --suite all` (75 hits, 60 misses at
# seed 0) while bounding what a long-lived process holds
@lru_cache(maxsize=256)
def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """D(g): the Leibniz system solved and packaged once per structure.

    The cache treats equal structures alike whatever their names: a hit for
    another algebra of g's structure is the same object, whose base is the
    first of them to be solved.  The bracket table is the commutator of the
    realization matrices, taken on the flattened kernel rows, checked to stay
    in the kernel and re-expressed in it; the inner subspace is the span of
    the adjoint maps' coordinates.
    """
    n = g.dim
    kernel = Subspace.integer_span(n * n, map(dict.items, _leibniz_kernel(g)))
    table = MappingProxyType(span_table(kernel, Commutator(n)))
    inner_rows = []
    for i in range(n):
        ad = g.scaled_adjoint(((i, 1),))
        if kernel.scaled_residual(ad.items()):
            raise InternalCheckError("inner derivation escaped the solution span")
        # a member's coordinate on kernel row r is its entry at pivots[r]
        inner_rows.append([(r, ad[p]) for r, p in enumerate(kernel.pivots) if p in ad])
    inner = Subspace.integer_span(kernel.dim, inner_rows)
    return DerivationAlgebra(base=g, inner=inner, span=kernel, table=table)


def leibniz_defect(g: LieAlgebra, f: Mat) -> Vector | None:
    """First nonzero f([ei,ej]) - [f ei, ej] - [ei, f ej], pairs i < j in order, or None if f derives.

    Summed on g's integer numerators and on f's columns times d, the lcm of f's
    denominators, both read once.  It shares nothing with _leibniz_kernel or
    SolutionBasis, so it checks the solve independently.
    """
    n, (den, num) = g.dim, g.integer_constants
    if f.shape != (n, n):
        raise ValueError(f"endomorphism shape {f.shape} != ({n}, {n})")
    d = lcm(*(x.denominator for row in f.entries for x in row))
    cols = [[(a, int(x * d)) for a, x in enumerate(f.column(b)) if x] for b in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            acc = {}
            for m, c in num[i][j]:  # f([e_i, e_j]) = sum_m c_ijm f(e_m)
                for k, v in cols[m]:
                    acc[k] = acc.get(k, 0) + c * v
            for a, v in cols[i]:  # [f e_i, e_j] = sum_a f_ai [e_a, e_j]
                for k, c in num[a][j]:
                    acc[k] = acc.get(k, 0) - v * c
            for b, v in cols[j]:  # [e_i, f e_j] = sum_b f_bj [e_i, e_b]
                for k, c in num[i][b]:
                    acc[k] = acc.get(k, 0) - v * c
            if any(acc.values()):
                return dense_vector(n, ((k, Fraction(v, den * d)) for k, v in acc.items()))
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

    One walk checks it, D(h)'s own included.  For i < n = dim h and D's
    basis f_a, f_b, Jacobi on (e_i, f_a, f_b) holds exactly when the table's
    [f_a, f_b] is f_a f_b - f_b f_a on e_i.  Once every triple that meets h
    holds, D(h)'s table is the commutator of its realization maps, the
    kernel's independent RREF rows, so its own triples hold by associativity
    and validate leaves them out (implied=dim D(h)).  D(h) is
    derivation_algebra(h).built, not walked: one object for every algebra of
    h's structure, and embed_d's source is what DerivationAlgebra.algebra
    returns once read.
    """
    da = derivation_algebra(h)
    dh = da.built
    n, d = h.dim, da.dim
    N = n + d
    # h's constants, the derivations' entries and D(h)'s constants over one lcm
    L, rows = da.span.integer_rows
    scale = lcm(h.integer_constants[0], L, dh.integer_constants[0])
    table = {**h.scaled_table(scale), **dh.scaled_table(scale, n)}
    s = scale // L
    for a, f in enumerate(rows):
        # [e_j, f] = -f(e_j), minus column j of f = rows[a] / L
        for idx, v in f:
            k, j = divmod(idx, n)
            table.setdefault((j, n + a), {})[k] = -v * s
    name = None if h.name is None else f"H({h.name})"
    # D(h)'s own triples follow from those that meet h (the docstring's
    # lemma), and the walk reaches them last: it leaves them out
    g = validate_or_raise(LieAlgebra.from_scaled(N, scale, table, name=name), implied=d)
    embed_h, embed_d = block_embedding(h, g, 0), block_embedding(dh, g, n)
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
    while not is_complete(stages[-1]):
        if len(embeddings) >= max_steps:
            return TowerReport(tuple(stages), tuple(embeddings), None)
        current = stages[-1]
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
    return TowerReport(tuple(stages), tuple(embeddings), len(stages) - 1)


def _check_tower_embedding(emb: LinMap) -> None:
    if emb.kernel().dim != 0:
        raise InternalCheckError("tower embedding is not injective")
    if not is_homomorphism(emb):
        raise InternalCheckError("tower embedding is not a homomorphism")
    image = Subalgebra(emb.target, emb.image())
    if not is_ideal(emb.target, image):
        raise InternalCheckError("tower embedding image is not an ideal")


def theorem_derived_check(g: LieAlgebra) -> bool:
    """D(g) is complete iff g is an ideal of D^2(g), for centerless g; returns
    whether D(g) is complete.

    g sits in D^2(g) through ad twice.  Raises TheoremViolationError when the
    two sides disagree.
    """
    if center(g).dim != 0:
        raise HypothesisError("check needs a centerless algebra")
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
    if lhs != rhs:
        raise TheoremViolationError(f"tower theorem sides disagree: complete={lhs}, ideal={rhs}")
    return lhs


def is_characteristic(g: LieAlgebra, h: Subalgebra) -> bool:
    """Every derivation of g maps h into h.  h must be an ideal of g.

    Decided on the Leibniz equations, with no D(g) built.  "f maps h into h"
    is a set of linear forms in f's flattened entries: for each integer row u
    of h and each column k off h's pivots, entry k of h.space.scaled_residual(f u),
    L (f u)_k - sum_p (f u)_p R_p[k] over h's scaled RREF rows R_p.  The
    equations of the pairs of h's pivot columns go first: their solutions
    contain Der(g), so if every form vanishes on them, h is characteristic.
    For a perfect ideal on its own coordinates they always settle it, as
    they read (f [e_p, e_q])_k = 0 for every k off h and the [e_p, e_q] span
    h.  Otherwise the remaining pairs follow in the same SolutionBasis, whose
    solutions are then exactly Der(g): a form that still has a nonzero dot
    gives the answer no, and that solution is the certificate, a derivation
    moving h, re-checked by leibniz_defect, which shares nothing with the
    solve, before it is believed.
    """
    if h.parent != g:
        raise ValueError("subalgebra of a different algebra")
    if not is_ideal(g, h):
        raise ValueError("is_characteristic needs an ideal")
    n, space = g.dim, h.space
    L, rows = space.integer_rows
    # column k off the pivots -> (a, coefficient of (f u)_a in the form's entry k)
    through = {k: [(k, L)] for k in range(n) if k not in space.off_pivot}
    for p, rest in space.off_pivot.items():
        for k, r in rest:
            through[k].append((p, -r))
    # (f u)_a = sum_b f_ab u_b, so the form's coefficient of f_ab is c_a u_b
    forms = [[(a * n + b, c * x) for a, c in coefs for b, x in u] for u in rows for coefs in through.values()]
    if not forms:  # h = 0 or h = g
        return True
    solutions = SolutionBasis(n * n)
    inside = set(space.pivots)
    remaining = ((i, j) for i, j in combinations(range(n), 2) if not {i, j} <= inside)
    for pairs in (combinations(space.pivots, 2), remaining):
        _leibniz_solve(g, pairs, solutions)
        # a solution on which some form is nonzero
        moving = next((t for form in forms for t in solutions.dots(form)), None)
        if moving is None:
            return True
    f = [[Fraction(0)] * n for _ in range(n)]
    for idx, v in solutions.vectors[moving].items():
        f[idx // n][idx % n] = Fraction(v)
    witness = Mat(f, cols=n)
    moved = any(space.scaled_residual(enumerate(witness.apply(u))) for u in space.basis.entries)
    if leibniz_defect(g, witness) is not None or not moved:
        raise InternalCheckError("the solution moving h is not a derivation that moves h")
    return False

