"""Lie algebras over Q by structure constants.

An algebra is its dimension plus its nonzero structure constants, stored once as
LieAlgebra.integer_constants = (den, num): den is the lcm of the denominators of
the c_ijk, where [e_i, e_j] = sum_k c_ijk e_k, and num[i][j] holds the pairs
(k, c_ijk * den) with c_ijk != 0 in increasing k.  Both (i,j) and (j,i) are
stored, and memory grows with the number of nonzero constants, not with dim^3.
Every builder hands its [e_i, e_j], i < j, to LieAlgebra.from_scaled as
integers over one scale, which it reduces by their gcd once: span_algebra and
D(g) (span_table's checked coordinates over the bracket's scale times L^2; a
Commutator brackets only the pairs whose supports meet), direct_sum, quotient
(the residuals of the numerators, over den * L) and the holomorph.  from_brackets,
for files and the catalog, clears its Fractions' denominators once and hands
the integers on; the dense __init__ stores its tensor as given.
One kernel per operation works on sparse vectors, integers in, integers out:
scaled_bracket returns den * [x, y] and scaled_adjoint den * ad_x, flattened
row-major.  The routines that bracket subspace rows take them on
Subspace.integer_rows, since no scale moves a span or a membership, and a
bracket's membership is read by the one membership kernel,
space.scaled_residual(scaled_bracket(x, y).items()): is_ideal, centralizer,
normalizer, the closure check on Subalgebra and transitivity.ideal_closure,
and closure and span_table on the bracket they are handed; bracket_spaces
spans scaled_bracket's output, over the pairs a < b of u's rows when v == u.
On coordinate subspaces (Subspace.axis_set) the closure check, is_ideal and
transitivity.ideal_closure read axis_residual instead, by the support rule:
[e_p, e_q] lies in such a space exactly when num[p][q]'s support does, which
is exact because no constructor stores a zero constant.
Membership work brackets only what can still escape, by one lemma
(fresh_rows): for u inside w, w's RREF rows at the pivots u lacks span w
together with u.  is_ideal takes x over the ambient's rows at the pivots h
lacks, as [h, h] lies in h already.  centralizer and normalizer take x over
the ambient's rows too, and exactlin.lift maps a proper ambient's kernel back.
Two bounded loops reach every fixed point.  saturate spans a space with the
residuals that escape it until none does, and a round that does not raise
the dimension raises InternalCheckError: closure, ideal_closure.  Each round
after the first hands escaping only the rows the last one added.
stable_series takes terms until one repeats, and raises past its bound: the
derived, lower central, subideal and normalizer series, all monotone.
validate sums Jacobi once per basis pair, over the nonzero constants only,
and is_homomorphism compares both sides in integers.  center is the
column_kernel of the den * ad_{e_i}, and _killing_numerators their trace
pairing, den^2 * B in ints, which radical reads through integer_complement
and integer_inertia and killing_form divides by den^2.
Only the public edge divides, once: bracket (on dense tuples),
adjoint_matrix, killing_form, brackets() and c, the dense tensor that only
the benchmark and tests read.
Subalgebras are canonical subspaces of the parent's coordinate space that are
verified bracket-closed on construction; nothing is ever closed silently.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .exactlin import (
    Commutator,
    Inertia,
    IntRow,
    Mat,
    Scalar,
    SparseItems,
    Subspace,
    Vector,
    column_kernel,
    dense_vector,
    inertia,
    integer_complement,
    integer_inertia,
    lift,
    nullspace,
    orthogonal_complement,
    over_lcm,
    rat,
    sparse_vector,
)


class InternalCheckError(AssertionError):
    """Two independent computations of the same fact disagreed: a bug."""


class HypothesisError(ValueError):
    """A theorem's hypothesis failed to verify; the check does not apply."""


class TheoremViolationError(InternalCheckError):
    """A proven statement came out false on verified inputs: a bug."""


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its nonzero structure constants."""

    __slots__ = ("dim", "name", "integer_constants", "_hash")

    def __init__(
        self,
        c: Sequence[Sequence[Sequence[Scalar]]],
        name: str | None = None,
    ):
        """Take a dense tensor c[i][j][k] as given, antisymmetric or not.

        validate() reports what is wrong with it; from_brackets is the
        constructor for data known to be antisymmetric.
        """
        dim = len(c)
        rows = []
        for plane in c:
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise ValueError("structure tensor is not dim x dim x dim")
            rows.append([[(k, q) for k, x in enumerate(row) if (q := rat(x))] for row in plane])
        den = lcm(*(q.denominator for plane in rows for t in plane for _, q in t))
        num = tuple(
            tuple(tuple((k, q.numerator * (den // q.denominator)) for k, q in t) for t in plane)
            for plane in rows
        )
        self._store(den, num, name)

    def _store(self, den: int, num: tuple[tuple[IntRow, ...], ...], name: str | None) -> None:
        """Keep integer_constants = (den, num) as given: num[i][j] holds (k, c_ijk * den)."""
        self.dim, self.name, self.integer_constants = len(num), name, (den, num)
        self._hash: int | None = None

    @staticmethod
    def from_scaled(
        dim: int,
        scale: int,
        table: Mapping[tuple[int, int], Mapping[int, int]],
        name: str | None = None,
    ) -> "LieAlgebra":
        """Build from integers, [e_i, e_j] = table[i, j] / scale for i < j.

        (j, i) is filled by antisymmetry and zeros are dropped.  scale and every
        entry are divided by their gcd once, which leaves den the lcm of the
        reduced denominators: no Fraction is built and no lcm is taken.
        """
        if scale <= 0:
            raise ValueError(f"scale {scale} is not positive")
        g = gcd(scale, *(v for row in table.values() for v in row.values()))
        num: list[list[IntRow]] = [[()] * dim for _ in range(dim)]
        for (i, j), row in table.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket index ({i},{j}) is not 0 <= i < j < {dim}")
            fwd = tuple(sorted((k, v // g) for k, v in row.items() if v))
            if fwd and not (0 <= fwd[0][0] and fwd[-1][0] < dim):
                raise ValueError(f"bracket output index outside [0, {dim})")
            num[i][j], num[j][i] = fwd, tuple((k, -v) for k, v in fwd)
        alg = LieAlgebra.__new__(LieAlgebra)
        alg._store(scale // g, tuple(map(tuple, num)), name)
        return alg

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Scalar]],
        name: str | None = None,
    ) -> "LieAlgebra":
        """Build from sparse [e_i, e_j] data, filling (j, i) by antisymmetry.

        Values for the same (i, j, k) add up, and zeros are dropped.  The
        denominators are cleared once and from_scaled stores the integers.
        """
        acc: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            # values given for [e_i, e_i] cancel: they go to a dict nothing reads
            fwd = acc.setdefault((min(i, j), max(i, j)), {}) if i != j else {}
            sign = 1 if i < j else -1
            for k, v in row.items():
                if not 0 <= k < dim:
                    raise ValueError(f"bracket output index {k} out of range")
                fwd[k] = fwd.get(k, 0) + sign * rat(v)
        den = lcm(*(q.denominator for row in acc.values() for q in row.values()))
        table = {
            key: {k: q.numerator * (den // q.denominator) for k, q in row.items()}
            for key, row in acc.items()
        }
        return LieAlgebra.from_scaled(dim, den, table, name)

    def renamed(self, name: str | None) -> "LieAlgebra":
        """The same structure, its constants shared, under another name."""
        g = copy(self)
        g.name = name
        return g

    def scaled_table(self, scale: int, shift: int = 0) -> dict[tuple[int, int], dict[int, int]]:
        """scale * [e_i, e_j] for i < j, nonzero only, every index moved up by shift.

        scale must be a multiple of den; the result is what from_scaled takes
        over scale, so sums and extensions copy constants in integers.
        """
        den, num = self.integer_constants
        s, rest = divmod(scale, den)
        if rest:
            raise ValueError(f"scale {scale} is not a multiple of den {den}")
        return {
            (i + shift, j + shift): {k + shift: v * s for k, v in num[i][j]}
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
            if num[i][j]
        }

    def brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The nonzero [e_i, e_j] with i < j, in the form from_brackets takes."""
        den = self.integer_constants[0]
        return {
            key: {k: Fraction(v, den) for k, v in row.items()}
            for key, row in self.scaled_table(den).items()
        }

    @property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense tensor c[i][j][k], built on each access."""
        den, num = self.integer_constants
        return tuple(
            tuple(dense_vector(self.dim, ((k, Fraction(v, den)) for k, v in t)) for t in plane)
            for plane in num
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LieAlgebra) and self.integer_constants == other.integer_constants

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.integer_constants)
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "LieAlgebra"
        return f"<{label} dim={self.dim}>"

    def scaled_bracket(self, x: SparseItems, y: SparseItems) -> dict[int, Fraction | int]:
        """den * [x, y] for sparse vectors, as its nonzero entries by index.

        The one bracket kernel: the sum over x_i * y_j * num[i][j], with no
        division, so integer inputs give integers.  A scale moves no span and
        no membership, so the closure, ideal and span loops take it as it is.
        """
        num = self.integer_constants[1]
        out: dict[int, Fraction | int] = {}
        for i, xi in x:
            numi = num[i]
            for j, yj in y:
                terms = numi[j]
                if terms:
                    s = xi * yj
                    for k, v in terms:
                        out[k] = out.get(k, 0) + s * v
        return {k: v for k, v in out.items() if v}

    def axis_residual(self, i: int, j: int, axes: frozenset[int]) -> IntRow:
        """S.scaled_residual(scaled_bracket(e_i, e_j).items()) for the coordinate S with axis_set axes.

        The support rule: [e_i, e_j] lies in S exactly when every k in
        num[i][j] lies in axes.  It is exact because no constructor stores a
        zero constant and S's scaled_residual of a vector is its entries off
        the axes, unchanged (L = 1): these are the entries of num[i][j] off
        the axes, in increasing k, read in the same orientation as
        scaled_bracket reads them.
        """
        terms = self.integer_constants[1][i][j]
        return tuple(e for e in terms if e[0] not in axes) if terms else ()

    def scaled_adjoint(self, x: SparseItems) -> dict[int, Fraction | int]:
        """den * ad_x flattened row-major, as its nonzero entries by index.

        The one adjoint kernel: entry k * n + j is den * [x, e_j]_k, the sum
        over x_i * num[i][j], so integer inputs give integers.
        """
        n, num = self.dim, self.integer_constants[1]
        out: dict[int, Fraction | int] = {}
        for i, xi in x:
            for j, terms in enumerate(num[i]):
                for k, v in terms:
                    out[k * n + j] = out.get(k * n + j, 0) + xi * v
        return {idx: v for idx, v in out.items() if v}

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """[x, y] for dense tuples: with x = X/dx and y = Y/dy, scaled_bracket(X, Y) / (dx dy den)."""
        n = self.dim
        (dx, xs), (dy, ys) = (over_lcm(sparse_vector(n, v).items()) for v in (x, y))
        d = dx * dy * self.integer_constants[0]
        w = self.scaled_bracket(xs.items(), ys.items())
        return dense_vector(n, ((k, Fraction(v, d)) for k, v in w.items()))

    def adjoint_matrix(self, x: Sequence[Scalar]) -> "LinMap":
        """ad_x as a linear map y -> [x, y]: scaled_adjoint(x) / den."""
        n, den = self.dim, self.integer_constants[0]
        m = [[Fraction(0)] * n for _ in range(n)]
        for idx, v in self.scaled_adjoint(sparse_vector(n, x).items()).items():
            m[idx // n][idx % n] = Fraction(v, den)
        return LinMap(self, self, Mat(m, cols=n))

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    antisymmetry_failure: tuple[int, int, int] | None = None
    jacobi_failure: tuple[int, int, int] | None = None

    def message(self) -> str:
        if self.ok:
            return "valid Lie algebra (antisymmetry and Jacobi hold)"
        if self.antisymmetry_failure is not None:
            return f"antisymmetry fails at (i,j,k)={self.antisymmetry_failure}"
        return f"Jacobi identity fails at triple (i,j,k)={self.jacobi_failure}"


def validate(g: LieAlgebra, *, implied: int = 0) -> ValidationReport:
    """Check antisymmetry on all basis pairs and Jacobi on all basis triples.

    implied leaves out the triples inside the last implied coordinates, for a
    caller whose triples there follow from the others (the holomorph's D(h)):
    the walk reaches them last, so the report is the full walk's.
    """
    n = g.dim
    nz = g.integer_constants[1]
    for i in range(n):
        for j in range(i, n):
            fwd, bwd = nz[i][j], nz[j][i]
            if fwd != tuple((k, -v) for k, v in bwd):
                a, b = dict(fwd), dict(bwd)
                k = min(k for k in a.keys() | b.keys() if a.get(k, 0) != -b.get(k, 0))
                return ValidationReport(False, antisymmetry_failure=(i, j, k))
    # every Jacobi term is a product of two constants, so on the numerators
    # over one common denominator a sum vanishes iff the rational one does.
    # Per pair i < j, the sums for every k > j share one accumulator keyed
    # k * n + t, and the least k with a nonzero sum is the first failing
    # triple of the walk over k.  Each row lists its nonzero brackets as
    # (k, num[m][k]) in increasing k, so only those are read.
    partners = [[(k, t) for k, t in enumerate(row) if t] for row in nz]
    keys = [[k for k, _ in row] for row in partners]
    for i in range(n - implied):
        nz_i = nz[i]
        for j in range(i + 1, n):
            acc: dict[int, int] = {}
            get = acc.get
            # [[e_i, e_j], e_k] = sum_m c_ijm [e_m, e_k]
            for m, v in nz_i[j]:
                for k, mk in partners[m][bisect_right(keys[m], j) :]:
                    base = k * n
                    for t, w in mk:
                        acc[base + t] = get(base + t, 0) + v * w
            # [[e_j, e_k], e_i] = sum_m c_jkm [e_m, e_i]
            for k, jk in partners[j][bisect_right(keys[j], j) :]:
                base = k * n
                for m, v in jk:
                    for t, w in nz[m][i]:
                        acc[base + t] = get(base + t, 0) + v * w
            # [[e_k, e_i], e_j] = -sum_m c_ikm [e_m, e_j], as antisymmetry holds
            for k, ik in partners[i][bisect_right(keys[i], j) :]:
                base = k * n
                for m, v in ik:
                    for t, w in nz[m][j]:
                        acc[base + t] = get(base + t, 0) - v * w
            if any(acc.values()):
                k = min(kt for kt, v in acc.items() if v) // n
                return ValidationReport(False, jacobi_failure=(i, j, k))
    return ValidationReport(True)


def validate_or_raise(g: LieAlgebra, *, implied: int = 0) -> LieAlgebra:
    """g, re-checked after a construction from verified input: a failure is a bug.

    Input read from text is checked by catalog.loads, which raises ParseError.
    """
    report = validate(g, implied=implied)
    if not report.ok:
        raise InternalCheckError(report.message())
    return g


@dataclass(frozen=True)
class LinMap:
    """Linear map between the coordinate spaces of two algebras.

    offset is set by block_embedding alone, after construction: the matrix
    is then the identity onto target coordinates offset, ...,
    offset + source.dim - 1, and image and compose take that shortcut.
    """

    source: LieAlgebra
    target: LieAlgebra
    matrix: Mat
    offset: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match map "
                f"{self.source.dim} -> {self.target.dim}"
            )

    def apply(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.apply(v)

    def image(self) -> Subspace:
        if self.offset is not None:
            return Subspace.axes(self.target.dim, self.offset, self.offset + self.source.dim)
        return Subspace.span(
            self.target.dim, [self.matrix.column(j) for j in range(self.source.dim)]
        )

    def kernel(self) -> Subspace:
        return nullspace(self.matrix)

    def compose(self, other: "LinMap") -> "LinMap":
        if other.target != self.source:
            raise ValueError("composition type mismatch")
        if self.offset is not None and other.offset is not None:
            return block_embedding(other.source, self.target, self.offset + other.offset)
        return LinMap(other.source, self.target, self.matrix * other.matrix)


def block_embedding(source: LieAlgebra, target: LieAlgebra, offset: int) -> LinMap:
    """The inclusion of source's coordinates as target's offset, ..., offset + source.dim - 1."""
    emb = LinMap(source, target, Mat.unit_block(target.dim, source.dim, offset))
    object.__setattr__(emb, "offset", offset)  # frozen: set once, next to the matrix it describes
    return emb


@dataclass(frozen=True)
class SymForm:
    """Symmetric bilinear form on an algebra's coordinate space."""

    ambient: LieAlgebra
    matrix: Mat

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise ValueError("form matrix is not symmetric")
        if self.matrix.rows != self.ambient.dim:
            raise ValueError("form/algebra dimension mismatch")

    def inertia_on(self, u: Subspace | None = None) -> Inertia:
        return inertia(self.matrix, u)

    def complement(self, u: Subspace) -> Subspace:
        return orthogonal_complement(self.matrix, u)


class Subalgebra:
    """A bracket-closed subspace of a parent algebra.

    The constructor rejects subspaces that are not closed; use
    generated_subalgebra to take closures explicitly.  It brackets the pairs
    a < b of the space's rows, in order; on a coordinate space (axis_set) the
    pair of axes p, q is closed exactly when num[p][q]'s support lies in
    the space, the support rule, read by axis_residual.  The radical, once
    sub_radical solves it, is kept on the object and lives as long as it.
    """

    __slots__ = ("parent", "space", "_radical")

    def __init__(self, parent: LieAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise ValueError("subspace ambient dimension != algebra dimension")
        rows, axes, piv = space.integer_rows[1], space.axis_set, space.pivots
        # every bracket lies in Q^n, so only a proper subspace can fail
        if space.dim < parent.dim:
            for a, b in combinations(range(len(rows)), 2):
                if (
                    space.scaled_residual(parent.scaled_bracket(rows[a], rows[b]).items())
                    if axes is None
                    else parent.axis_residual(piv[a], piv[b], axes)
                ):
                    raise ValueError(
                        f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
                    )
        self.parent = parent
        self.space = space
        self._radical: Subspace | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subalgebra)
            and self.parent == other.parent
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.space))

    def __repr__(self) -> str:
        return f"<Subalgebra dim {self.dim} of {self.parent!r}>"


def subalgebra(parent: LieAlgebra, vectors: Iterable[Sequence[Scalar]]) -> Subalgebra:
    return Subalgebra(parent, Subspace.span(parent.dim, vectors))


def full_subalgebra(g: LieAlgebra) -> Subalgebra:
    return Subalgebra(g, Subspace.full(g.dim))


# a sparse bracket: two SparseItems in, the nonzero entries of the result out
Bracket = Callable[[SparseItems, SparseItems], dict[int, Fraction | int]]
T = TypeVar("T")


def fresh_rows(grown: Subspace, old: Subspace) -> list[IntRow]:
    """grown's RREF rows at the pivots old lacks, for old inside grown: with old they span grown.

    old's pivots are among grown's.  For v in grown, v minus its combination
    of old's rows (by its entries at old's pivots) is zero at those pivots,
    so its RREF coordinates in grown, its entries at grown's pivots, fall on
    these rows alone.
    """
    have = set(old.pivots)
    return [row for p, row in zip(grown.pivots, grown.integer_rows[1]) if p not in have]


def saturate(
    space: Subspace, escaping: Callable[[Subspace, Sequence[IntRow]], list[SparseItems]]
) -> Subspace:
    """space spanned with the nonzero residuals escaping(space, fresh) returns, until it returns none.

    fresh is every row of space in the first round and then the rows the last
    round added (fresh_rows), so a round brackets only what can still escape:
    once [a, s_{t-1}] lies in s_t, [a, s_t] lies in s_t iff [a, fresh_t] does.
    """
    fresh: Sequence[IntRow] = space.integer_rows[1]
    while new := escaping(space, fresh):
        grown = Subspace.integer_span(space.ambient_dim, [*space.integer_rows[1], *new])
        if grown.dim <= space.dim:
            raise InternalCheckError(f"a round of residuals left the dimension at {space.dim}")
        space, fresh = grown, fresh_rows(grown, space)
    return space


def stable_series(first: T, step: Callable[[T], T], bound: int) -> list[T]:
    """first, step(first), ... up to the first term equal to the one before, at most bound terms."""
    series = [first]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
        if len(series) > bound:
            raise InternalCheckError(f"series failed to stabilize within {bound} terms")
    return series


def closure(space: Subspace, bracket: Bracket) -> Subspace:
    """Smallest subspace containing space and closed under bracket, or any fixed nonzero multiple of it.

    s_t = s_{t-1} + span(fresh), so [s_t, s_t] lies in [s_{t-1}, s_{t-1}],
    inside s_t already, plus [s_t, fresh]: a round brackets each fresh row
    with s_t's older rows and the fresh rows in pairs a < b, which in the
    first round are all of them.
    """

    def escaping(s: Subspace, fresh: Sequence[IntRow]) -> list[SparseItems]:
        new = {row[0][0] for row in fresh}  # a row's first entry is at its pivot
        old = [row for row in s.integer_rows[1] if row[0][0] not in new]
        return [
            w.items()
            for x, y in chain(product(old, fresh), combinations(fresh, 2))
            if (w := s.scaled_residual(bracket(x, y).items()))
        ]

    return saturate(space, escaping)


def span_table(space: Subspace, bracket: Bracket) -> dict[tuple[int, int], dict[int, int]]:
    """The checked coordinates of the bracket-closed span's [b_a, b_b], a < b, in its RREF basis.

    bracket returns scale times the product: 1 for exactlin.Commutator, den
    for LieAlgebra.scaled_bracket.  Each [b_a, b_b] bracketed must lie in the
    span, or InternalCheckError is raised: a bracket that leaves it is a bug
    in the caller's closure, not a property of the input.  Its coordinates,
    read through a pivot -> index map, are scale * L^2 times the true ones,
    nonzero only.  A Commutator brackets only the pairs its pairs() lists,
    as every other commutator is zero; any other bracket takes every pair.
    """
    L, rows = space.integer_rows
    # the basis is rows / L, so [b_a, b_b] = w / (scale * L^2), whose
    # coordinate on b_i is its entry at pivots[i]
    index = {p: i for i, p in enumerate(space.pivots)}
    pairs = bracket.pairs(rows) if isinstance(bracket, Commutator) else combinations(range(len(rows)), 2)
    table = {}
    for a, b in pairs:
        w = bracket(rows[a], rows[b])
        if space.scaled_residual(w.items()):
            raise InternalCheckError(f"[basis {a}, basis {b}] escaped the closed span")
        if coords := {index[p]: c for p, c in w.items() if p in index}:
            table[(a, b)] = coords
    return table


def span_algebra(space: Subspace, bracket: Bracket, scale: int, name: str | None = None) -> LieAlgebra:
    """The bracket-closed span as an abstract algebra in its RREF basis: span_table over scale * L^2."""
    L = space.integer_rows[0]
    return LieAlgebra.from_scaled(space.dim, scale * L * L, span_table(space, bracket), name=name)


def generated_subalgebra(parent: LieAlgebra, vectors: Iterable[Sequence[Scalar]]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the given vectors."""
    return Subalgebra(parent, closure(Subspace.span(parent.dim, vectors), parent.scaled_bracket))


def bracket_spaces(g: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all [x, y] with x in u, y in v.

    For v == u the pairs a < b of u's rows span it: [y, x] = -[x, y] and [x, x] = 0.
    """
    if u.ambient_dim != g.dim or v.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension != algebra dimension")
    xs = u.integer_rows[1]
    pairs = combinations(xs, 2) if u == v else product(xs, v.integer_rows[1])
    return Subspace.integer_span(g.dim, (g.scaled_bracket(x, y).items() for x, y in pairs))


def derived_subalgebra(h: Subalgebra) -> Subalgebra:
    return Subalgebra(h.parent, bracket_spaces(h.parent, h.space, h.space))


def is_perfect(h: Subalgebra | LieAlgebra) -> bool:
    h = as_subalgebra(h)
    return bracket_spaces(h.parent, h.space, h.space) == h.space


def as_subalgebra(g: Subalgebra | LieAlgebra) -> Subalgebra:
    if isinstance(g, Subalgebra):
        return g
    return full_subalgebra(g)


def is_ideal(ambient: LieAlgebra | Subalgebra, h: Subalgebra) -> bool:
    """[ambient, h] contained in h.  Requires h inside the ambient space.

    h and the ambient's fresh_rows over h span the ambient, and [h, h] lies
    in h, so x ranges over those rows only: (dim ambient - dim h) * dim h
    brackets for an ideal.  When the ambient and h are both coordinate
    (axis_set), x and y are axes e_p and e_q, and the support rule decides
    each pair: [e_p, e_q] lies in h exactly when num[p][q]'s support does.
    """
    amb = as_subalgebra(ambient)
    if h.parent != amb.parent:
        raise ValueError("subalgebras live in different parent algebras")
    if not amb.space.contains(h.space):
        raise ValueError("h is not contained in the ambient subalgebra")
    g, space, xs = amb.parent, h.space, fresh_rows(amb.space, h.space)
    # stop at the first [x, y] that escapes h
    if amb.space.axis_set is not None and (axes := space.axis_set) is not None:
        return not any(g.axis_residual(p, q, axes) for ((p, _),) in xs for q in space.pivots)
    return not any(
        space.scaled_residual(g.scaled_bracket(x, y).items()) for x in xs for y in space.integer_rows[1]
    )


def center(g: LieAlgebra) -> Subalgebra:
    """{x : ad_x = 0}: column i is den * ad_{e_i}."""
    return Subalgebra(g, column_kernel([g.scaled_adjoint(((i, 1),)) for i in range(g.dim)]))


def _bracket_kernel(amb: Subalgebra, ys: Sequence[SparseItems], target: Subspace) -> Subalgebra:
    """{x in amb : [x, y] in target for every y}: column a stacks the residuals of the [x_a, y].

    x_a ranges over amb's integer rows, so the kernel holds coordinates in
    those rows, and exactlin.lift maps it back to g's coordinates.  A full
    amb's rows are the unit vectors, so its kernel is the answer as it stands.
    Every column carries the same scale, den * L, so the kernel is unchanged.
    """
    g, space = amb.parent, amb.space
    n = g.dim
    columns = []
    for x in space.integer_rows[1]:
        col: dict[int, int] = {}
        for t, y in enumerate(ys):
            w = target.scaled_residual(g.scaled_bracket(x, y).items())
            col.update((t * n + k, v) for k, v in w.items())
        columns.append(col)
    kernel = column_kernel(columns)
    return Subalgebra(g, kernel if space.dim == n else lift(space, kernel))


def centralizer(ambient: LieAlgebra | Subalgebra, h: Subalgebra) -> Subalgebra:
    """{x in the ambient : [x, y] = 0 for all y in h}.

    The ambient is g or a subalgebra k of it, as for is_ideal: c_k(h) is
    solved over k's dim k rows, not as c_g(h) met with k.
    """
    amb = as_subalgebra(ambient)
    if h.parent != amb.parent:
        raise ValueError("subalgebra of a different algebra")
    return _bracket_kernel(amb, h.space.integer_rows[1], Subspace.zero(amb.parent.dim))


def normalizer(ambient: LieAlgebra | Subalgebra, h: Subalgebra) -> Subalgebra:
    """{x in the ambient : [x, h] inside h}, over the ambient's rows as centralizer.

    Closure under brackets is checked on build.
    """
    amb = as_subalgebra(ambient)
    if h.parent != amb.parent:
        raise ValueError("subalgebra of a different algebra")
    return _bracket_kernel(amb, h.space.integer_rows[1], h.space)


def _killing_numerators(g: LieAlgebra) -> list[list[int]]:
    """den^2 * B(e_i, e_j) = trace(den ad_i den ad_j), the trace pairing of the scaled adjoints."""
    n = g.dim
    ads = [g.scaled_adjoint(((i, 1),)) for i in range(n)]
    # entry (a, b) of ad_i meets entry (b, a) of ad_j in the trace
    transposed = [[(idx % n * n + idx // n, v) for idx, v in ad.items()] for ad in ads]
    K = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = ads[j]
            K[i][j] = K[j][i] = sum(v * t.get(ba, 0) for ba, v in transposed[i])
    return K


def killing_form(g: LieAlgebra) -> SymForm:
    """B(e_i, e_j) = trace(ad_i ad_j): _killing_numerators over den^2."""
    d2 = g.integer_constants[0] ** 2
    K = [[Fraction(v, d2) for v in row] for row in _killing_numerators(g)]
    return SymForm(g, Mat(K, cols=g.dim))


def derived_series(g: LieAlgebra, start: Subspace | None = None) -> list[Subspace]:
    """Strictly decreasing series U, [U,U], [[U,U],[U,U]], ... until stable."""
    u = start if start is not None else Subspace.full(g.dim)
    return stable_series(u, lambda v: bracket_spaces(g, v, v), g.dim + 1)


def lower_central_series(g: LieAlgebra, start: Subspace | None = None) -> list[Subspace]:
    u = start if start is not None else Subspace.full(g.dim)
    return stable_series(u, lambda v: bracket_spaces(g, u, v), g.dim + 1)


def is_solvable_space(g: LieAlgebra, u: Subspace) -> bool:
    return derived_series(g, u)[-1].dim == 0


def radical(g: LieAlgebra) -> Subalgebra:
    """Maximal solvable ideal, via the Killing-orthogonal complement of [g,g].

    Valid in characteristic zero.  The result is cross-checked: it must be a
    solvable ideal and the quotient's Killing form must be nondegenerate, and
    the two semisimplicity tests (radical = 0, Killing nondegenerate) must
    agree.  Any mismatch is an internal bug, not a property of the input.
    """
    full = Subspace.full(g.dim)
    return _radical(g, bracket_spaces(g, full, full))


def _radical(g: LieAlgebra, derived: Subspace) -> Subalgebra:
    """radical(g), for a caller that holds derived = [g, g] already."""
    K = _killing_numerators(g)
    rad_space = integer_complement(K, derived)
    rad = Subalgebra(g, rad_space)
    # a radical that is all of g is solvable iff [g, g] is, held already
    if not is_solvable_space(g, derived if rad_space.dim == g.dim else rad_space):
        raise InternalCheckError("radical candidate is not solvable")
    if not is_ideal(g, rad):
        raise InternalCheckError("radical candidate is not an ideal")
    killing_nondeg = integer_inertia(K).is_nondegenerate()
    if killing_nondeg != (rad_space.dim == 0):
        raise InternalCheckError(
            "semisimplicity tests disagree: Killing nondegeneracy vs radical"
        )
    if rad_space.dim and rad_space.dim < g.dim:
        q, _ = quotient(g, rad)
        if not integer_inertia(_killing_numerators(q)).is_nondegenerate():
            raise InternalCheckError("quotient by radical is not semisimple")
    return rad


def is_semisimple(g: LieAlgebra) -> bool:
    return radical(g).dim == 0


def quotient(g: LieAlgebra, ideal: Subalgebra) -> tuple[LieAlgebra, LinMap]:
    """Quotient algebra on the complement of the ideal's pivot coordinates.

    Returns the quotient and the projection, a surjective homomorphism whose
    kernel is exactly the ideal.
    """
    if ideal.parent != g:
        raise ValueError("ideal of a different algebra")
    if not is_ideal(g, ideal):
        raise ValueError("subalgebra is not an ideal; cannot form the quotient")
    n, space = g.dim, ideal.space
    pivots = set(space.pivots)
    coords = [j for j in range(n) if j not in pivots]
    # the residual in the ideal is zero at its pivots, so it lives on coords
    pos = {c: a for a, c in enumerate(coords)}
    images = [space.residual({j: 1}) for j in range(n)]
    proj = Mat([[w.get(c, 0) for w in images] for c in coords], cols=n)  # m x n
    # den * L times the residual of [e_ca, e_cb], from the numerators as they are
    (den, num), L = g.integer_constants, space.integer_rows[0]
    table = {
        (a, b): {pos[k]: v for k, v in space.scaled_residual(num[ca][cb]).items()}
        for a, ca in enumerate(coords)
        for b, cb in enumerate(coords[a + 1 :], a + 1)
    }
    q = LieAlgebra.from_scaled(
        len(coords), den * L, table, name=None if g.name is None else f"{g.name}/ideal"
    )
    validate_or_raise(q)
    return q, LinMap(g, q, proj)


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> tuple[LieAlgebra, LinMap, LinMap]:
    """Block sum with zero cross-brackets, plus the two embeddings."""
    n1, n2 = g1.dim, g2.dim
    n = n1 + n2
    den = lcm(g1.integer_constants[0], g2.integer_constants[0])
    table = {**g1.scaled_table(den), **g2.scaled_table(den, n1)}
    name = None
    if g1.name and g2.name:
        name = f"{g1.name}+{g2.name}"
    g = LieAlgebra.from_scaled(n, den, table, name=name)
    return g, block_embedding(g1, g, 0), block_embedding(g2, g, n1)


def is_homomorphism(f: LinMap) -> bool:
    """f([e_i, e_j]) = [f e_i, f e_j] on all basis pairs i < j, in order.

    With F = f times d, the lcm of f's denominators, both sides are integer
    sums over the numerators: f([e_i, e_j]) = sum_m c_ijm F e_m / (d ds) and
    [f e_i, f e_j] = [F e_i, F e_j]_t / (d^2 dt), for the source's and the
    target's den ds and dt.  So the pair holds iff d dt times the first sum
    equals ds times the second.
    """
    (ds, src), (dt, tgt) = f.source.integer_constants, f.target.integer_constants
    m = f.matrix
    d = lcm(*(x.denominator for row in m.entries for x in row))
    cols = [[(a, int(x * d)) for a, x in enumerate(m.column(b)) if x] for b in range(m.cols)]
    g = gcd(d * dt, ds)
    left, right = d * dt // g, ds // g
    for i in range(m.cols):
        for j in range(i + 1, m.cols):
            acc: dict[int, int] = {}
            for k, c in src[i][j]:
                for a, v in cols[k]:
                    acc[a] = acc.get(a, 0) + left * c * v
            for a, u in cols[i]:
                tgt_a = tgt[a]
                for b, v in cols[j]:
                    for t, c in tgt_a[b]:
                        acc[t] = acc.get(t, 0) - right * u * v * c
            if any(acc.values()):
                return False
    return True


def is_automorphism(f: LinMap) -> bool:
    if f.source != f.target:
        return False
    if f.kernel().dim != 0:
        return False
    return is_homomorphism(f)


def sub_to_algebra(h: Subalgebra) -> LieAlgebra:
    """The subalgebra as an abstract algebra in its RREF basis; exactlin.lift maps back."""
    return span_algebra(h.space, h.parent.scaled_bracket, h.parent.integer_constants[0])


def sub_radical(h: Subalgebra) -> Subspace:
    """Radical of the subalgebra, as a subspace of the parent's coordinates.

    Solved on the first call and kept on h.
    """
    if h._radical is None:
        h._radical = lift(h.space, radical(sub_to_algebra(h)).space)
    return h._radical


__all__ = [
    "InternalCheckError",
    "LieAlgebra",
    "LinMap",
    "SymForm",
    "Subalgebra",
    "ValidationReport",
    "as_subalgebra",
    "block_embedding",
    "bracket_spaces",
    "center",
    "centralizer",
    "closure",
    "derived_series",
    "derived_subalgebra",
    "direct_sum",
    "fresh_rows",
    "full_subalgebra",
    "generated_subalgebra",
    "is_automorphism",
    "is_homomorphism",
    "is_ideal",
    "is_perfect",
    "is_semisimple",
    "is_solvable_space",
    "killing_form",
    "lower_central_series",
    "normalizer",
    "quotient",
    "radical",
    "saturate",
    "span_algebra",
    "span_table",
    "stable_series",
    "sub_radical",
    "sub_to_algebra",
    "subalgebra",
    "validate",
    "validate_or_raise",
]
