"""Lie algebras over Q by structure constants.

An algebra is its dimension plus its nonzero structure constants, stored once as
LieAlgebra.integer_constants = (den, num): den is the lcm of the denominators of
the c_ijk, where [e_i, e_j] = sum_k c_ijk e_k, and num[i][j] holds the pairs
(k, c_ijk * den) with c_ijk != 0 in increasing k.  Both (i,j) and (j,i) are
stored, and memory grows with the number of nonzero constants, not with dim^3.
Every builder hands its [e_i, e_j], i < j, to LieAlgebra.from_scaled as
integers over one scale, which it reduces by their gcd once: span_algebra (its
coordinates over the bracket's scale times L^2), direct_sum, quotient (the
residuals of the numerators, over den * L) and the holomorph.  from_brackets,
for files and the catalog, clears its Fractions' denominators once and hands
the integers on; the dense __init__ stores its tensor as given.
One kernel per operation works on sparse vectors, integers in, integers out:
scaled_bracket returns den * [x, y] and scaled_adjoint den * ad_x, flattened
row-major.  The routines that bracket subspace rows (closure,
generated_subalgebra, is_ideal, bracket_spaces, centralizer, normalizer and the
closure check on Subalgebra) hand scaled_bracket's output on
Subspace.integer_rows straight to Subspace.scaled_residual or integer_span,
since no scale moves a span or a membership.  center is the column_kernel of
the den * ad_{e_i} and killing_form their trace pairing over den^2.  Only the
public edge divides, once: bracket (on dense tuples), adjoint_matrix,
brackets() and c, the dense tensor that only the benchmark and tests read.
Subalgebras are canonical subspaces of the parent's coordinate space that are
verified bracket-closed on construction; nothing is ever closed silently.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .exactlin import (
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
    lift,
    nullspace,
    orthogonal_complement,
    over_lcm,
    rat,
    sparse_vector,
)


class InternalCheckError(AssertionError):
    """Two independent computations of the same fact disagreed: a bug."""


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


def validate(g: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity on all basis triples."""
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
    # over one common denominator a sum vanishes iff the rational one does
    for i in range(n):
        for j in range(i + 1, n):
            ij, nz_j = nz[i][j], nz[j]
            for k in range(j + 1, n):
                jk, ki = nz_j[k], nz[k][i]
                if not (ij or jk or ki):
                    continue  # every term of the sum below is zero
                acc: dict[int, int] = {}
                for ab, cc in ((ij, k), (jk, i), (ki, j)):
                    # [[e_a, e_b], e_c]
                    for m, v in ab:
                        for t, w in nz[m][cc]:
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    return ValidationReport(False, jacobi_failure=(i, j, k))
    return ValidationReport(True)


def validate_or_raise(g: LieAlgebra) -> LieAlgebra:
    report = validate(g)
    if not report.ok:
        raise ValueError(report.message())
    return g


@dataclass(frozen=True)
class LinMap:
    """Linear map between the coordinate spaces of two algebras."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: Mat

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match map "
                f"{self.source.dim} -> {self.target.dim}"
            )

    def apply(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.apply(v)

    def image(self) -> Subspace:
        return Subspace.span(
            self.target.dim, [self.matrix.column(j) for j in range(self.source.dim)]
        )

    def kernel(self) -> Subspace:
        return nullspace(self.matrix)

    def compose(self, other: "LinMap") -> "LinMap":
        if other.target != self.source:
            raise ValueError("composition type mismatch")
        return LinMap(other.source, self.target, self.matrix * other.matrix)


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

    def value(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.matrix.entries[i]
                for j, yj in enumerate(y):
                    if yj and row[j]:
                        acc += xi * row[j] * yj
        return acc

    def inertia_on(self, u: Subspace | None = None) -> Inertia:
        return inertia(self.matrix, u)

    def complement(self, u: Subspace) -> Subspace:
        return orthogonal_complement(self.matrix, u)


class Subalgebra:
    """A bracket-closed subspace of a parent algebra.

    The constructor rejects subspaces that are not closed; use
    generated_subalgebra to take closures explicitly.  The radical, once
    sub_radical solves it, is kept on the object and lives as long as it.
    """

    __slots__ = ("parent", "space", "_radical")

    def __init__(self, parent: LieAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise ValueError("subspace ambient dimension != algebra dimension")
        rows = space.integer_rows[1]
        # every bracket lies in Q^n, so only a proper subspace can fail
        if space.dim < parent.dim:
            for a in range(len(rows)):
                for b in range(a + 1, len(rows)):
                    if space.scaled_residual(parent.scaled_bracket(rows[a], rows[b]).items()):
                        raise ValueError(
                            f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
                        )
        self.parent = parent
        self.space = space
        self._radical: Subspace | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.space.basis.entries

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


def zero_subalgebra(g: LieAlgebra) -> Subalgebra:
    return Subalgebra(g, Subspace.zero(g.dim))


# a sparse bracket: two SparseItems in, the nonzero entries of the result out
Bracket = Callable[[SparseItems, SparseItems], dict[int, Fraction | int]]


def closure(space: Subspace, bracket: Bracket) -> Subspace:
    """Smallest subspace containing space and closed under bracket.

    Only spans are taken, so bracket may hand back any fixed nonzero multiple
    of the product, such as LieAlgebra.scaled_bracket.
    """
    while True:
        rows = space.integer_rows[1]
        new = [
            bracket(rows[a], rows[b]).items()
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        ]
        grown = Subspace.integer_span(space.ambient_dim, [*rows, *new])
        if grown.dim == space.dim:
            return space
        space = grown


def span_algebra(space: Subspace, bracket: Bracket, scale: int, name: str | None = None) -> LieAlgebra:
    """The bracket-closed span as an abstract algebra in its RREF basis.

    bracket returns scale times the product: 1 for exactlin.commutator, den
    for LieAlgebra.scaled_bracket.  Every [b_a, b_b], a < b, is re-expressed
    in the basis, its coordinates read through a pivot -> index map and handed
    to from_scaled over scale * L^2; a bracket that leaves the span is a bug
    in the caller's closure, not a property of the input.
    """
    L, rows = space.integer_rows
    # the basis is rows / L, so [b_a, b_b] = w / (scale * L^2), whose
    # coordinate on b_i is its entry at pivots[i]
    index = {p: i for i, p in enumerate(space.pivots)}
    r = len(rows)
    table = {}
    for a in range(r):
        for b in range(a + 1, r):
            w = bracket(rows[a], rows[b])
            if space.scaled_residual(w.items()):
                raise InternalCheckError(f"[basis {a}, basis {b}] escaped the closed span")
            table[(a, b)] = {index[p]: c for p, c in w.items() if p in index}
    return LieAlgebra.from_scaled(r, scale * L * L, table, name=name)


def generated_subalgebra(parent: LieAlgebra, vectors: Iterable[Sequence[Scalar]]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the given vectors."""
    return Subalgebra(parent, closure(Subspace.span(parent.dim, vectors), parent.scaled_bracket))


def bracket_spaces(g: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all [x, y] with x in u, y in v."""
    if u.ambient_dim != g.dim or v.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension != algebra dimension")
    ys = v.integer_rows[1]
    products = [g.scaled_bracket(x, y).items() for x in u.integer_rows[1] for y in ys]
    return Subspace.integer_span(g.dim, products)


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
    """[ambient, h] contained in h.  Requires h inside the ambient space."""
    amb = as_subalgebra(ambient)
    if h.parent != amb.parent:
        raise ValueError("subalgebras live in different parent algebras")
    if not amb.space.contains(h.space):
        raise ValueError("h is not contained in the ambient subalgebra")
    # stop at the first [x, y] that escapes h
    bracket, escapes, ys = amb.parent.scaled_bracket, h.space.scaled_residual, h.space.integer_rows[1]
    return not any(escapes(bracket(x, y).items()) for x in amb.space.integer_rows[1] for y in ys)


def center(g: LieAlgebra) -> Subalgebra:
    """{x : ad_x = 0}: column i is den * ad_{e_i}."""
    return Subalgebra(g, column_kernel([g.scaled_adjoint(((i, 1),)) for i in range(g.dim)]))


def _bracket_kernel(g: LieAlgebra, ys: Sequence[SparseItems], target: Subspace) -> Subalgebra:
    """{x : [x, y] in target for every y}: column i stacks the residuals of the [e_i, y].

    Every column carries the same scale, den * L, so the kernel is unchanged.
    """
    n = g.dim
    columns = []
    for i in range(n):
        col: dict[int, int] = {}
        for t, y in enumerate(ys):
            w = target.scaled_residual(g.scaled_bracket(((i, 1),), y).items())
            col.update((t * n + k, v) for k, v in w.items())
        columns.append(col)
    return Subalgebra(g, column_kernel(columns))


def centralizer(g: LieAlgebra, h: Subalgebra) -> Subalgebra:
    """{x : [x, y] = 0 for all y in h}."""
    if h.parent != g:
        raise ValueError("subalgebra of a different algebra")
    return _bracket_kernel(g, h.space.integer_rows[1], Subspace.zero(g.dim))


def normalizer(g: LieAlgebra, h: Subalgebra) -> Subalgebra:
    """{x : [x, h] inside h}; closure under brackets is checked on build."""
    if h.parent != g:
        raise ValueError("subalgebra of a different algebra")
    return _bracket_kernel(g, h.space.integer_rows[1], h.space)


def killing_form(g: LieAlgebra) -> SymForm:
    """B(e_i, e_j) = trace(ad_i ad_j), the trace pairing of the den * ad_{e_i}, over den^2."""
    n = g.dim
    ads = [g.scaled_adjoint(((i, 1),)) for i in range(n)]
    # entry (a, b) of ad_i meets entry (b, a) of ad_j in the trace
    transposed = [[(idx % n * n + idx // n, v) for idx, v in ad.items()] for ad in ads]
    d2 = g.integer_constants[0] ** 2
    K = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = ads[j]
            K[i][j] = K[j][i] = Fraction(sum(v * t.get(ba, 0) for ba, v in transposed[i]), d2)
    return SymForm(g, Mat(K, cols=n))


def derived_series(g: LieAlgebra, start: Subspace | None = None) -> list[Subspace]:
    """Strictly decreasing series U, [U,U], [[U,U],[U,U]], ... until stable."""
    u = start if start is not None else Subspace.full(g.dim)
    series = [u]
    while True:
        nxt = bracket_spaces(g, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def lower_central_series(g: LieAlgebra, start: Subspace | None = None) -> list[Subspace]:
    u = start if start is not None else Subspace.full(g.dim)
    series = [u]
    while True:
        nxt = bracket_spaces(g, u, series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable_space(g: LieAlgebra, u: Subspace) -> bool:
    return derived_series(g, u)[-1].dim == 0


def radical(g: LieAlgebra) -> Subalgebra:
    """Maximal solvable ideal, via the Killing-orthogonal complement of [g,g].

    Valid in characteristic zero.  The result is cross-checked: it must be a
    solvable ideal and the quotient's Killing form must be nondegenerate, and
    the two semisimplicity tests (radical = 0, Killing nondegenerate) must
    agree.  Any mismatch is an internal bug, not a property of the input.
    """
    k = killing_form(g)
    derived = bracket_spaces(g, Subspace.full(g.dim), Subspace.full(g.dim))
    rad_space = orthogonal_complement(k.matrix, derived)
    rad = Subalgebra(g, rad_space)
    if not is_solvable_space(g, rad_space):
        raise InternalCheckError("radical candidate is not solvable")
    if not is_ideal(g, rad):
        raise InternalCheckError("radical candidate is not an ideal")
    killing_nondeg = inertia(k.matrix).is_nondegenerate()
    if killing_nondeg != (rad_space.dim == 0):
        raise InternalCheckError(
            "semisimplicity tests disagree: Killing nondegeneracy vs radical"
        )
    if rad_space.dim and rad_space.dim < g.dim:
        q, _ = quotient(g, rad)
        if not inertia(killing_form(q).matrix).is_nondegenerate():
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
    e1 = Mat([[1 if i == j else 0 for j in range(n1)] for i in range(n)], cols=n1)
    e2 = Mat(
        [[1 if i == n1 + j else 0 for j in range(n2)] for i in range(n)], cols=n2
    )
    return g, LinMap(g1, g, e1), LinMap(g2, g, e2)


def is_homomorphism(f: LinMap) -> bool:
    """f([x, y]) = [f(x), f(y)] on all basis pairs."""
    src, tgt = f.source, f.target
    for i in range(src.dim):
        fi = f.matrix.column(i)
        for j in range(i + 1, src.dim):
            lhs = f.apply(src.bracket(src.basis_vector(i), src.basis_vector(j)))
            rhs = tgt.bracket(fi, f.matrix.column(j))
            if lhs != rhs:
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
    "bracket_spaces",
    "center",
    "centralizer",
    "closure",
    "derived_series",
    "derived_subalgebra",
    "direct_sum",
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
    "span_algebra",
    "sub_radical",
    "sub_to_algebra",
    "subalgebra",
    "validate",
    "validate_or_raise",
    "zero_subalgebra",
]
