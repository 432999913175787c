"""Exact linear algebra over the rationals.

Everything in here is exact: scalars at the interface are
``fractions.Fraction`` and the inner loops run on integers.  ``Mat``, a dense
grid of Fractions, stays at the edges: maps, forms, inertia and formatting.  A
subspace is stored once, as ``Subspace.integer_rows`` = (L, rows): its unique
reduced row-echelon rows times the lcm L of their denominators, so equal
subspaces have equal fields.  One scale on every row changes no span, kernel or
membership, so every kernel reads the integers, and so do the builders (the
holomorph takes D(g)'s span as ``integer_rows``); only formatting, forms, maps
and D(g)'s realization read the views ``Subspace.rows`` (Fractions) and
``Subspace.basis`` (dense).  Sparse vectors are dicts from
index to nonzero value, ints kept as ints.  Two integer kernels take sparse
items as they are: ``Subspace.scaled_residual`` (L times the residual, visiting
only the vector's own entries through a read-only pivot -> row map) and
``Subspace.integer_span``.  ``residual``, ``contains_vector`` and ``span`` check
and clear what comes from outside, call them and hand back Fractions.
``Echelon`` reduces gcd-normalized integer rows and builds no Fraction; it
clears denominators only for a row that holds one.  ``Subspace.span`` is the
one row reduction, and its ``dim`` the only rank; ``column_kernel`` is the one
solve, and ``lift`` maps coordinates in a subspace's RREF basis back to its
ambient.  ``commutator`` brackets matrices flattened row-major, the order in
which ``LieAlgebra.scaled_adjoint``, the one adjoint kernel, flattens den * ad_x.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Sequence, Union

Vector = tuple[Fraction, ...]
# nonzero (index, value) pairs in increasing index order
SparseRow = tuple[tuple[int, Fraction], ...]
IntRow = tuple[tuple[int, int], ...]  # a SparseRow in integers
# (index, nonzero value) pairs, re-iterable: a SparseRow, an IntRow or a dict's items()
SparseItems = Iterable[tuple[int, Fraction | int]]

Scalar = Union[Fraction, int, str]


def rat(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string like "3/4" to an exact rational."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# Fraction("1e999999999") builds 10**999999999 before anything sees the value,
# so a literal's length plus its exponent is bounded first, as MAX_DIM bounds dim
MAX_LITERAL_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*$")


def parse_rational(text: str) -> Fraction:
    """A literal from outside, like "-3/4" or "1.5e-3"; ValueError if malformed or too long."""
    m = len(text) <= MAX_LITERAL_DIGITS and _EXPONENT.search(text)
    if len(text) + (abs(int(m.group(1))) if m else 0) > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal longer than {MAX_LITERAL_DIGITS} digits, exponent included")
    return Fraction(text)


def over_lcm(items: SparseItems) -> tuple[int, dict[int, int]]:
    """(d, {i: v * d}) for the lcm d of the values' denominators; ints have d = 1."""
    d = lcm(*(v.denominator for _, v in items))
    return d, {i: v.numerator * (d // v.denominator) for i, v in items}


def sparse_vector(n: int, v: Sequence[Scalar] | Mapping[int, Scalar]) -> dict[int, Fraction | int]:
    """The nonzero entries of a dense or sparse (index -> value) vector of Q^n; ints stay ints."""
    if isinstance(v, Mapping):
        items = v.items()
    elif len(v) == n:
        items = enumerate(v)
    else:
        raise ValueError(f"vector length {len(v)} != ambient {n}")
    out = {j: q for j, x in items if (q := x if isinstance(x, (int, Fraction)) else Fraction(x))}
    if out and not (0 <= min(out) and max(out) < n):
        raise ValueError(f"sparse vector index outside [0, {n})")
    return out


def dense_vector(n: int, v: SparseItems) -> Vector:
    """The vector of Q^n with the given (index, value) entries, zero elsewhere, in Fractions."""
    out = [Fraction(0)] * n
    for j, x in v:
        out[j] = rat(x)
    return tuple(out)


class Mat:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, entries: Iterable[Iterable[Scalar]], cols: int | None = None):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows
        self._hash: int | None = None

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> "Mat":
        cols = [tuple(rat(x) for x in c) for c in columns]
        if cols:
            rows = len(cols[0])
        if rows is None:
            raise ValueError("empty matrix needs an explicit row count")
        return Mat([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.cols, self.entries))
        return self._hash

    def _check_same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def scale(self, s: Scalar) -> "Mat":
        s = rat(s)
        return Mat([[s * a for a in r] for r in self.entries], cols=self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        ot = other.entries
        out = []
        for r in self.entries:
            row = [Fraction(0)] * other.cols
            for k, a in enumerate(r):
                if a:
                    orow = ot[k]
                    for j in range(other.cols):
                        if orow[j]:
                            row[j] += a * orow[j]
            out.append(row)
        return Mat(out, cols=other.cols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        out = [Fraction(0)] * self.rows
        for i, r in enumerate(self.entries):
            acc = Fraction(0)
            for a, x in zip(r, v):
                if a and x:
                    acc += a * x
            out[i] = acc
        return tuple(out)

    def transpose(self) -> "Mat":
        return Mat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"


# ---------------------------------------------------------------------------
# integer row-reduction engine
# ---------------------------------------------------------------------------
#
# Rows are sparse dicts {column: nonzero int}, gcd-normalized.  We build a
# row-echelon form incrementally (pivot column -> row), then back-substitute
# once at the end.  Incoming rows never touch pivot rows, so accumulating a
# few thousand sparse equations stays cheap.


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the gcd of the entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Integer combination of row and prow whose entry at col is zero."""
    a, b = prow[col], row[col]
    new: dict[int, int] = {}
    for c, v in row.items():
        w = v * a - prow.get(c, 0) * b
        if w:
            new[c] = w
    for c, v in prow.items():
        if c not in row:
            w = -v * b
            if w:
                new[c] = w
    return new


def _reduce_row(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Eliminate row against the current echelon rows; row becomes primitive."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            return _primitive(row)
        row = _eliminate(row, prow, lead)
    return {}


class Echelon:
    """Incremental integer row-echelon form of a growing equation system."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    def add(self, coeffs: SparseItems) -> None:
        """Reduce one equation into the form; only a row holding a Fraction is cleared."""
        row = {c: v for c, v in coeffs if v}
        try:
            row = _primitive(row)
        except TypeError:  # gcd takes no Fraction: clear the denominators first
            row = _primitive(over_lcm(row.items())[1])
        row = _reduce_row(row, self.pivots)
        if row:
            self.pivots[min(row)] = row

    def rref_rows(self) -> tuple[list[int], int, list[IntRow]]:
        """Back-substitute: pivot columns, L and the RREF rows times L, in integers.

        Row i is primitive, so its RREF row, row i over its pivot entry p_i, has
        denominators with lcm |p_i|: L is the lcm of the |p_i|.
        """
        piv_cols = sorted(self.pivots)
        reduced: dict[int, dict[int, int]] = {}
        for c in reversed(piv_cols):
            row = self.pivots[c]
            for c2 in list(row):
                if c2 != c and c2 in reduced:
                    row = _eliminate(row, reduced[c2], c2)
            reduced[c] = _primitive(row)
        L = lcm(*(reduced[c][c] for c in piv_cols))
        out = []
        for c in piv_cols:
            s = L // reduced[c][c]  # exact, and negative with the pivot entry
            out.append(tuple(sorted((cc, v * s) for cc, v in reduced[c].items())))
        return piv_cols, L, out

    def nullspace_rows(self) -> list[dict[int, int]]:
        """Integer basis of the solution space: L times the vector that is 1 at free column f."""
        piv_cols, L, rows = self.rref_rows()
        basis = {f: {f: L} for f in range(self.ncols) if f not in self.pivots}
        for p, row in zip(piv_cols, rows):
            for c, v in row:
                if c != p:  # in RREF every other column of a row is free
                    basis[c][p] = -v
        return list(basis.values())


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, held once, as its unique RREF rows times one integer.

    integer_rows = (L, rows): L is the lcm of the RREF rows' denominators and
    rows[i] is RREF row i times L, an IntRow with L at pivots[i] and 0 at every
    other pivot.  By canonicality, equal subspaces have equal fields.
    """

    ambient_dim: int
    pivots: tuple[int, ...]
    integer_rows: tuple[int, tuple[IntRow, ...]]

    @staticmethod
    def span(
        ambient_dim: int, vectors: Iterable[Sequence[Scalar] | Mapping[int, Scalar]]
    ) -> "Subspace":
        """Span of dense vectors or sparse index -> value mappings, in any mix."""
        return Subspace.integer_span(
            ambient_dim, (sparse_vector(ambient_dim, v).items() for v in vectors)
        )

    @staticmethod
    def integer_span(ambient_dim: int, rows: Iterable[SparseItems]) -> "Subspace":
        """Span of sparse rows whose indices lie in [0, ambient_dim), taken as given.

        The kernel behind span, for rows that are already sparse: integer rows
        (integer_rows, scaled brackets, scaled residuals) reach Echelon with no
        Fraction and no pass over denominators.
        """
        ech = Echelon(ambient_dim)
        for row in rows:
            ech.add(row)
        piv_cols, L, out = ech.rref_rows()
        return Subspace(ambient_dim, tuple(piv_cols), (L, tuple(out)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), (1, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        rows = tuple(((i, 1),) for i in range(ambient_dim))
        return Subspace(ambient_dim, tuple(range(ambient_dim)), (1, rows))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> tuple[SparseRow, ...]:
        """The RREF rows in Fractions, 1 at each pivot; built on each access."""
        L, rows = self.integer_rows
        return tuple(tuple((j, Fraction(v, L)) for j, v in row) for row in rows)

    @cached_property
    def basis(self) -> Mat:
        """The RREF rows as a dense matrix, built on first use."""
        return Mat([dense_vector(self.ambient_dim, r) for r in self.rows], cols=self.ambient_dim)

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    @cached_property
    def _off_pivot(self) -> Mapping[int, IntRow]:
        """Pivot column -> the rest of its scaled row, built once and read-only.

        Not a field, so equality and hashing never see it.
        """
        rows = self.integer_rows[1]
        return MappingProxyType(
            {p: tuple(e for e in row if e[0] != p) for p, row in zip(self.pivots, rows)}
        )

    def scaled_residual(self, v: SparseItems) -> dict[int, Fraction | int]:
        """L times (v minus its combination of the rows), nonzero entries only.

        The one membership kernel: empty iff v is a member, whatever v's
        scale, and integer v gives integers.  With the scaled rows R_i of
        integer_rows it is L*v - sum_i v[p_i] * R_i.  Row i is L at pivots[i]
        and 0 at every other pivot, so only v's own entries are visited: a
        pivot entry cancels and brings in the rest of its row, any other entry
        is scaled by L.
        """
        L = self.integer_rows[0]
        off_pivot = self._off_pivot
        work: dict[int, Fraction | int] = {}
        for j, x in v:
            rest = off_pivot.get(j)
            if rest is None:
                work[j] = work.get(j, 0) + L * x
            else:
                for k, b in rest:
                    work[k] = work.get(k, 0) - x * b
        return {j: w for j, w in work.items() if w}

    def residual(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> dict[int, Fraction]:
        """Nonzero entries of v minus its combination of the rows; empty iff v is a member.

        With v = N / d in integers it is scaled_residual(N) / (L*d).
        """
        d, num = over_lcm(sparse_vector(self.ambient_dim, v).items())
        Ld = self.integer_rows[0] * d
        return {j: Fraction(w, Ld) for j, w in self.scaled_residual(num.items()).items()}

    def contains_vector(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> bool:
        return not self.scaled_residual(sparse_vector(self.ambient_dim, v).items())

    def coordinates(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> dict[int, Fraction] | None:
        """Nonzero coefficients of v by row index, or None if v is not a member.

        A member's coefficient of row i is its entry at pivots[i].
        """
        if self.residual(v):
            return None
        at = (lambda p: v.get(p, 0)) if isinstance(v, Mapping) else v.__getitem__
        return {i: q for i, p in enumerate(self.pivots) if (q := rat(at(p)))}

    def contains(self, other: "Subspace | Sequence[Fraction]") -> bool:
        if isinstance(other, Subspace):
            if other.ambient_dim != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
            return not any(map(self.scaled_residual, other.integer_rows[1]))
        return self.contains_vector(other)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def commutator(n: int, x: SparseItems, y: SparseItems) -> dict[int, Fraction]:
    """XY - YX for sparse n x n matrices flattened row-major; nonzero entries only."""
    out: dict[int, Fraction] = {}
    for left, right, sign in ((x, y, 1), (y, x, -1)):
        by_row: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for idx, b in right:
            k, j = divmod(idx, n)
            by_row[k].append((j, b))
        for idx, a in left:
            i, k = divmod(idx, n)
            if by_row[k]:
                a *= sign
                base = i * n
                for j, b in by_row[k]:
                    out[base + j] = out.get(base + j, 0) + a * b
    return {idx: v for idx, v in out.items() if v}


def column_kernel(columns: Sequence[Mapping[int, Fraction]]) -> Subspace:
    """{x : sum_a x_a * columns[a] = 0} in Q^len(columns), for sparse columns.

    Their transposed rows, in row order, are the equations handed to Echelon.
    """
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for a, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, []).append((a, v))
    ech = Echelon(len(columns))
    for r in sorted(rows):
        ech.add(rows[r])
    return Subspace.integer_span(len(columns), map(dict.items, ech.nullspace_rows()))


def nullspace(m: Mat) -> Subspace:
    """Exact kernel {v : m v = 0} as a canonical subspace."""
    return column_kernel([sparse_vector(m.rows, m.column(j)) for j in range(m.cols)])


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.integer_span(u.ambient_dim, u.integer_rows[1] + v.integer_rows[1])


def lift(u: Subspace, coords: Subspace) -> Subspace:
    """The subspace of u's ambient whose coordinates in u's RREF basis span coords.

    Row x of coords maps to sum_a x_a u_a over u's integer rows: the basis times L.
    """
    if coords.ambient_dim != u.dim:
        raise ValueError("coordinate dimension != subspace dimension")
    rows = u.integer_rows[1]
    vectors = []
    for x in coords.integer_rows[1]:
        w: dict[int, int] = {}
        for a, xa in x:
            for j, b in rows[a]:
                w[j] = w.get(j, 0) + xa * b
        vectors.append(w.items())
    return Subspace.integer_span(u.ambient_dim, vectors)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u lifted from {x : sum_a x_a u_a in v}, the kernel of the v.scaled_residual(u_a)."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return lift(u, column_kernel([v.scaled_residual(r) for r in u.integer_rows[1]]))


def orthogonal_complement(b: Mat, u: Subspace) -> Subspace:
    """{v : b(v, u_i) = 0 for all basis u_i}; b is a symmetric form's matrix."""
    if b.rows != u.ambient_dim or b.cols != u.ambient_dim:
        raise ValueError("form/ambient dimension mismatch")
    if u.dim == 0:
        return Subspace.full(u.ambient_dim)
    constraints = Mat([b.apply(row) for row in u.basis.entries], cols=u.ambient_dim)
    return nullspace(constraints)


@dataclass(frozen=True)
class Inertia:
    """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def is_positive_definite(self) -> bool:
        return self.n_minus == 0 and self.n_zero == 0

    def is_negative_definite(self) -> bool:
        return self.n_plus == 0 and self.n_zero == 0

    def is_nondegenerate(self) -> bool:
        return self.n_zero == 0


def inertia(b: Mat, u: Subspace | None = None) -> Inertia:
    """Inertia of the symmetric form b restricted to u (default: everything).

    Exact symmetric congruence elimination.  When every remaining diagonal
    entry vanishes but some off-diagonal a_jk does not, the congruence
    e_j -> e_j + e_k manufactures the nonzero diagonal pivot 2*a_jk.
    """
    if not b.is_symmetric():
        raise ValueError("form matrix is not symmetric")
    if u is None:
        u = Subspace.full(b.rows)
    if u.ambient_dim != b.rows:
        raise ValueError("form/ambient dimension mismatch")
    r = u.dim
    ub = [b.apply(row) for row in u.basis.entries]
    m = [[_dot(u.basis.entries[i], ub[j]) for j in range(r)] for i in range(r)]
    n_plus = n_minus = n_zero = 0
    i = 0
    while i < r:
        k = next((k for k in range(i, r) if m[k][k]), None)
        if k is None:
            jk = next(
                ((j, l) for j in range(i, r) for l in range(j + 1, r) if m[j][l]),
                None,
            )
            if jk is None:
                n_zero += r - i
                break
            j, l = jk
            for t in range(r):
                m[j][t] += m[l][t]
            for t in range(r):
                m[t][j] += m[t][l]
            k = j
        if k != i:
            m[i], m[k] = m[k], m[i]
            for t in range(r):
                m[t][i], m[t][k] = m[t][k], m[t][i]
        d = m[i][i]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for t in range(i + 1, r):
            c = m[t][i]
            if c:
                f = c / d
                for s in range(r):
                    m[t][s] -= f * m[i][s]
                for s in range(r):
                    m[s][t] -= f * m[s][i]
        i += 1
    return Inertia(n_plus, n_minus, n_zero)


def _dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    acc = Fraction(0)
    for a, b in zip(x, y):
        if a and b:
            acc += a * b
    return acc

