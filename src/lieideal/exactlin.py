"""Exact linear algebra over the rationals.

Everything in here is exact: scalars at the interface are
``fractions.Fraction`` and the inner loops run on integers.  ``Mat``, a dense
grid of Fractions, stays at the edges, as the public matrix of a map or a form
and for formatting.  It keeps what those read: ``identity``, ``unit_block``,
``from_columns``, ``column`` and ``scale`` build maps and forms, ``apply`` is
a map's image of a vector, ``__mul__`` composes maps and forms theta^2 and
B theta, and ``nullspace`` is a map's kernel.  It has no sum, transpose or zero
test.  A form is read once, through ``is_symmetric`` and its entries times the
lcm of their denominators: ``inertia`` takes the Gram matrix of those on a
subspace's integer rows to ``integer_inertia``'s integer Schur complements,
and ``orthogonal_complement`` hands the rows x^T B to ``row_kernel``; the
form and Cartan checks read the integer kernels too.  A
subspace is stored once, as ``Subspace.integer_rows`` = (L, rows): its unique
reduced row-echelon rows times the lcm L of their denominators, so equal
subspaces have equal fields.  One scale on every row changes no span, kernel or
membership, so every kernel reads the integers, and so do the builders (the
holomorph takes D(g)'s span as ``integer_rows``) and the command line's
formatting, which prints each entry of ``integer_rows`` over L in lowest
terms.  Only is_characteristic's re-check of its certificate reads the dense
Fraction view ``Subspace.basis``.  A literal from outside is read once, by
``parse_literal``, into (numerator, denominator): a plain integer or ratio in
ASCII digits by int(), anything else by Fraction after its length is bounded.
``quoted`` is the one rule by which an error message quotes text from
outside, cut to a bounded length.  Sparse vectors are dicts from index to
nonzero value, ints kept as ints.  Two integer kernels take sparse
items as they are: ``Subspace.scaled_residual`` (L times the residual, visiting
only the vector's own entries through a read-only pivot -> row map) and
``Subspace.integer_span``.  ``residual``, ``contains_vector`` and ``span`` check
and clear what comes from outside, call them and hand back Fractions.
``Subspace.axis_set`` marks a coordinate subspace, whose RREF rows are unit
vectors: a vector lies in it exactly when its support does, and
``contains`` decides by that support rule.
``Echelon`` keeps gcd-normalized integer rows in reduced form as it grows,
each zero at every other pivot, so an incoming row is eliminated once per
pivot column it holds and ``rref_rows`` only rescales; it builds no Fraction
and clears denominators only for a row that holds one.  ``Subspace.span`` is
the one row reduction, and its ``dim`` the only rank.  Kernels are solved two ways:
``column_kernel`` reduces the equations into ``Echelon`` and reads its
``nullspace_rows``, while ``SolutionBasis`` keeps the solutions instead: its
caller dots each equation with the few solutions that touch it (``dots`` does
so for an equation given as sparse items), and
``eliminate`` skips an equation whose dots are all zero, the side that wins
on the tall, redundant Leibniz system of D(g), whose equations are never
built as rows.  ``lift`` maps coordinates in a subspace's
RREF basis back to its ambient.  ``Commutator`` brackets matrices flattened
row-major, the order in which ``LieAlgebra.scaled_adjoint``, the one adjoint
kernel, flattens den * ad_x; it lays each operand out once per instance, and
its ``pairs`` lists the pairs of a basis whose commutators can be nonzero.
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
# nonzero (index, value) pairs in increasing index order, in integers
IntRow = tuple[tuple[int, int], ...]
# (index, nonzero value) pairs, re-iterable: an IntRow or a dict's items()
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
# an integer or a ratio of two in ASCII digits, which int() reads as Fraction would
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def quoted(text: str, width: int = 20) -> str:
    """repr(text), or of its first width characters followed by its length when longer.

    Text from outside can be of any length.  A literal's refusal and a .lie
    field name quote 20 characters, as their messages name a file, a line or
    a record already; a catalog name quotes 60.  repr writes a backslash as
    two bytes and a control character as four, and UTF-8 takes two or more
    for a letter like é, so the head is cut further until its repr fits in
    width + 2 bytes: the bound is on the quoted form, not on characters.
    """
    head = text[:width]
    while len(repr(head).encode()) > width + 2:
        head = head[:-1]
    if head == text:
        return repr(text)
    return f"{head!r}... ({len(text)} characters)"


def parse_literal(text: str) -> tuple[int, int]:
    """A literal from outside, like "-3/4" or "1.5e-3", as (numerator, denominator) in lowest terms.

    ValueError if malformed, too long, not ASCII or holding an underscore, and
    ZeroDivisionError for a zero denominator; a plain integer or ratio is read
    by int(), anything else by Fraction.
    """
    plain = _PLAIN.fullmatch(text)
    if plain and len(text) <= MAX_LITERAL_DIGITS:
        n = int(plain[1])
        if plain[2] is None:
            return n, 1
        d = int(plain[2])
        if d:  # n/0 is Fraction's to refuse
            g = gcd(n, d)
            return n // g, d // g
    return _fraction_literal(text)


def _fraction_literal(text: str) -> tuple[int, int]:
    """parse_literal through Fraction alone: the path of every literal that is not plain."""
    # Fraction reads "1_0" as 10 from Python 3.11 on and refuses it before, so
    # an underscore is refused here on every version; it reads other scripts'
    # digits too, which no other integer of a file or the command line takes
    if "_" in text:
        raise ValueError(f"underscore in literal {quoted(text)}")
    if not text.isascii():
        raise ValueError(f"non-ASCII character {next(c for c in text if not c.isascii())!r} in literal")
    m = len(text) <= MAX_LITERAL_DIGITS and _EXPONENT.search(text)
    if len(text) + (abs(int(m.group(1))) if m else 0) > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal longer than {MAX_LITERAL_DIGITS} digits, exponent included")
    try:
        q = Fraction(text)
    except ValueError:
        # Fraction's own message, with the literal quoted by the one rule
        raise ValueError(f"Invalid literal for Fraction: {quoted(text)}") from None
    return q.numerator, q.denominator


def parse_rational(text: str) -> Fraction:
    """parse_literal(text) as a Fraction."""
    return Fraction(*parse_literal(text))


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
        return Mat.unit_block(n, n)

    @staticmethod
    def unit_block(rows: int, cols: int, offset: int = 0) -> "Mat":
        """1 at (offset + j, j) for every j < cols and 0 elsewhere, rows sharing their tuples."""
        if not 0 <= offset <= rows - cols:
            raise ValueError(f"a block of {cols} columns at row {offset} does not fit in {rows}")
        zero = (Fraction(0),) * cols
        entries = [zero] * rows
        for j in range(cols):
            entries[offset + j] = zero[:j] + (Fraction(1),) + zero[j + 1 :]
        m = Mat.__new__(Mat)
        m.rows, m.cols, m.entries, m._hash = rows, cols, tuple(entries), None
        return m

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
# Rows are sparse dicts {column: nonzero int}, gcd-normalized.  The form is
# kept reduced as it grows (pivot column -> row): each row is zero left of its
# pivot and at every other pivot column, so it is its RREF row up to one
# scale.  An incoming row is then eliminated once per pivot column it holds,
# a new pivot is cleared from the rows that hold it, and rref_rows only
# rescales.


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the gcd of the entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Integer combination of row and prow whose entry at col is zero."""
    a, b = prow[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    new: dict[int, int] = {}
    for c, v in row.items():
        w = v * a - prow.get(c, 0) * b
        if w:
            new[c] = w
    for c, v in prow.items():
        if c not in row:
            new[c] = -v * b
    return new


class Echelon:
    """Incremental integer reduced row-echelon form of a growing equation system.

    pivots maps each pivot column to its row: primitive, and zero left of
    its pivot and at every other pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    def add(self, coeffs: SparseItems) -> None:
        """Reduce one equation into the form; only a row holding a Fraction is cleared."""
        pivots = self.pivots
        if len(pivots) == self.ncols:
            return  # full rank: every row is already in the span
        row = {c: v for c, v in coeffs if v}
        try:
            row = _primitive(row)
        except TypeError:  # gcd takes no Fraction: clear the denominators first
            row = _primitive(over_lcm(row.items())[1])
        # a pivot row is zero at every other pivot, so eliminating one pivot
        # column brings in no other
        hits = [c for c in row if c in pivots]
        for c in hits:
            row = _eliminate(row, pivots[c], c)
        if not row:
            return
        if hits:
            row = _primitive(row)
        p = min(row)
        for c, prow in pivots.items():
            if p in prow:  # only rows with c < p can hold p, and row is zero at c
                pivots[c] = _primitive(_eliminate(prow, row, p))
        pivots[p] = row

    def rref_rows(self) -> tuple[list[int], int, list[IntRow]]:
        """Pivot columns, L and the RREF rows times L, in integers.

        Row i is its RREF row times its pivot entry p_i and primitive, so its
        RREF row has denominators with lcm |p_i|: L is the lcm of the |p_i|,
        and each row is only rescaled.
        """
        piv_cols = sorted(self.pivots)
        L = lcm(*(self.pivots[c][c] for c in piv_cols))
        out = []
        for c in piv_cols:
            row = self.pivots[c]
            s = L // row[c]  # exact, and negative with the pivot entry
            out.append(tuple(sorted((cc, v * s) for cc, v in row.items())))
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


class SolutionBasis:
    """Integer basis of the solutions of the equations eliminated so far, kept on the solution side.

    ``vectors`` starts as the unit vectors of Q^ncols, held by id, and ``at``
    maps each column to the ids of the vectors nonzero there, so an equation
    sum_c a_c x_c = 0 is dotted only with the vectors it touches: the dot of
    vector i is the sum of a_c * vectors[i][c] over the entries c with i in
    at[c].  The caller computes those dots as it likes and hands them to
    ``eliminate``; an equation that every vector it touches satisfies costs
    those few products and nothing more, so the side wins on a tall,
    redundant system, where a row reduction would meet every equation.
    """

    __slots__ = ("vectors", "at")

    def __init__(self, ncols: int):
        self.vectors: dict[int, dict[int, int]] = {c: {c: 1} for c in range(ncols)}
        self.at: list[set[int]] = [{c} for c in range(ncols)]

    def dots(self, equation: SparseItems) -> dict[int, int]:
        """The equation's nonzero dots with the vectors it touches, by id.

        Empty exactly when every solution so far satisfies it.
        """
        basis, at = self.vectors, self.at
        out: dict[int, int] = {}
        for c, a in equation:
            for t in at[c]:
                out[t] = out.get(t, 0) + a * basis[t][c]
        return {t: d for t, d in out.items() if d}

    def eliminate(self, dots: Mapping[int, int]) -> None:
        """Keep only the solutions of one more equation, given its dot with each vector it touches.

        Zero dots may be among them, and all zero changes nothing.  Otherwise
        the sparsest vector with a nonzero dot (ties to the lowest id) leaves
        the basis and cancels the dot of every other vector hit, each of
        which is made primitive again.
        """
        hit = [i for i, d in dots.items() if d]
        if not hit:
            return
        basis, at = self.vectors, self.at
        p = min(hit, key=lambda i: (len(basis[i]), i))
        pivot, dp = basis.pop(p), dots[p]
        for c in pivot:
            at[c].discard(p)
        for i in hit:
            if i == p:
                continue
            # dp * v - dv * pivot has a zero dot with the equation
            dv = dots[i]
            new = {c: x * dp for c, x in basis[i].items()}
            for c, x in pivot.items():
                if c in new:
                    w = new[c] - dv * x
                    if w:
                        new[c] = w
                    else:
                        del new[c]
                        at[c].discard(i)
                else:
                    new[c] = -dv * x
                    at[c].add(i)
            basis[i] = _primitive(new)


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
        return Subspace.axes(ambient_dim, 0, ambient_dim)

    @staticmethod
    def axes(ambient_dim: int, start: int, stop: int) -> "Subspace":
        """span(e_start, ..., e_{stop-1}), whose unit rows are already its RREF."""
        if not 0 <= start <= stop <= ambient_dim:
            raise ValueError(f"axes [{start}, {stop}) outside [0, {ambient_dim})")
        rows = tuple(((i, 1),) for i in range(start, stop))
        return Subspace(ambient_dim, tuple(range(start, stop)), (1, rows))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def basis(self) -> Mat:
        """The RREF rows as a dense matrix of Fractions, integer_rows over L, built on first use."""
        L, rows = self.integer_rows
        return Mat(
            [dense_vector(self.ambient_dim, ((j, Fraction(v, L)) for j, v in row)) for row in rows],
            cols=self.ambient_dim,
        )

    @cached_property
    def off_pivot(self) -> Mapping[int, IntRow]:
        """Pivot column -> the rest of its scaled row, built once and read-only.

        Not a field, so equality and hashing never see it.
        """
        rows = self.integer_rows[1]
        return MappingProxyType(
            {p: tuple(e for e in row if e[0] != p) for p, row in zip(self.pivots, rows)}
        )

    @cached_property
    def axis_set(self) -> frozenset[int] | None:
        """The pivots, when every RREF row is a unit vector (then L = 1); else None.

        Such a space is a coordinate subspace, spanned by the axes e_p it
        holds, and the support rule decides membership in it: a vector lies
        in it exactly when its support lies in axis_set.  The rule is exact,
        as every off_pivot row is empty and L = 1, so scaled_residual returns
        the vector's own nonzero entries off the pivots, unchanged.  Built
        once and not a field, so equality and hashing never see it.
        """
        L, rows = self.integer_rows
        return frozenset(self.pivots) if L == 1 and all(len(row) == 1 for row in rows) else None

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
        off_pivot = self.off_pivot
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
        """other inside self, for a subspace or a vector of the same ambient.

        A subspace is inside when each of its integer rows has no residual.
        When self is coordinate (axis_set), that is the support rule: each
        row's support lies in axis_set, and no residual is formed.
        """
        if isinstance(other, Subspace):
            if other.ambient_dim != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
            if (axes := self.axis_set) is not None:
                return all(j in axes for row in other.integer_rows[1] for j, _ in row)
            return not any(map(self.scaled_residual, other.integer_rows[1]))
        return self.contains_vector(other)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class Commutator:
    """XY - YX for sparse n x n matrices flattened row-major, as a bracket.

    Each operand is laid out once per instance, keyed by id(): its entries as
    (row * n, column, value) and its rows as row -> [(column, value)].  A layout holds its
    operand, so the id is not reused while the instance lives; an operand
    must not change while the instance is in use.  span_algebra brackets
    the pairs of r rows that pairs() lists, so each row is laid out once, not
    once per pair it is in.
    """

    def __init__(self, n: int):
        self.n = n
        self._layouts: dict[int, tuple[SparseItems, list, dict]] = {}

    def _layout(self, m: SparseItems) -> tuple[list, dict]:
        hit = self._layouts.get(id(m))
        if hit is None:
            n = self.n
            entries: list[tuple[int, int, Fraction | int]] = []
            by_row: dict[int, list[tuple[int, Fraction | int]]] = {}
            for idx, v in m:
                i, k = divmod(idx, n)
                entries.append((i * n, k, v))
                by_row.setdefault(i, []).append((k, v))
            hit = self._layouts[id(m)] = (m, entries, by_row)
        return hit[1], hit[2]

    def pairs(self, rows: Sequence[SparseItems]) -> list[tuple[int, int]]:
        """The pairs a < b, in order, where a column index of one operand's support is a row index of the other's.

        (XY - YX)_ij = sum_k X_ik Y_kj - Y_ik X_kj, so every other commutator
        is exactly zero.  One bitmask of operands per row index and one per
        column index find each operand's partners.
        """
        n = self.n
        with_row, with_col = [0] * n, [0] * n
        supports = []
        for a, m in enumerate(rows):
            entries, by_row = self._layout(m)
            cols = {k for _, k, _ in entries}
            bit = 1 << a
            for i in by_row:
                with_row[i] |= bit
            for k in cols:
                with_col[k] |= bit
            supports.append((by_row, cols))
        out = []
        for a, (by_row, cols) in enumerate(supports):
            meets = 0
            for k in cols:
                meets |= with_row[k]
            for i in by_row:
                meets |= with_col[i]
            # bit t of the shifted mask is operand a + 1 + t, and low.bit_length() is t + 1
            meets >>= a + 1
            while meets:
                low = meets & -meets
                out.append((a, a + low.bit_length()))
                meets ^= low
        return out

    def __call__(self, x: SparseItems, y: SparseItems) -> dict[int, Fraction | int]:
        (x_entries, x_rows), (y_entries, y_rows) = self._layout(x), self._layout(y)
        out: dict[int, Fraction | int] = {}
        get = out.get
        for entries, rows, sign in ((x_entries, y_rows, 1), (y_entries, x_rows, -1)):
            for base, k, a in entries:
                row = rows.get(k)
                if row:
                    a *= sign
                    for j, b in row:
                        out[base + j] = get(base + j, 0) + a * b
        return {idx: v for idx, v in out.items() if v}


def row_kernel(ncols: int, rows: Iterable[SparseItems]) -> Subspace:
    """{x in Q^ncols : row . x = 0 for every row}, the rows reduced into Echelon in order."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
    return Subspace.integer_span(ncols, map(dict.items, ech.nullspace_rows()))


def column_kernel(columns: Sequence[Mapping[int, Fraction]]) -> Subspace:
    """{x : sum_a x_a * columns[a] = 0} in Q^len(columns), for sparse columns.

    Their transposed rows, in row order, are the equations of row_kernel.
    """
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for a, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, []).append((a, v))
    return row_kernel(len(columns), (rows[r] for r in sorted(rows)))


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


def _form_numerators(b: Mat) -> list[list[int]]:
    """b times the lcm of its denominators, a positive scale, as int lists; b must be symmetric."""
    if not b.is_symmetric():
        raise ValueError("form matrix is not symmetric")
    d = lcm(*(x.denominator for row in b.entries for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in b.entries]


def _form_rows(B: Sequence[Sequence[int]], u: Subspace) -> list[dict[int, int]]:
    """x^T B for each integer row x of u: B(x, .) as sparse ints, zeros included."""
    if len(B) != u.ambient_dim:
        raise ValueError("form/ambient dimension mismatch")
    out = []
    for x in u.integer_rows[1]:
        w: dict[int, int] = {}
        for a, xa in x:
            for j, v in enumerate(B[a]):
                if v:
                    w[j] = w.get(j, 0) + xa * v
        out.append(w)
    return out


def integer_complement(B: Sequence[Sequence[int]], u: Subspace) -> Subspace:
    """{v : B(v, x) = 0 for every row x of u}, B a symmetric integer matrix.

    u's rows are its basis times L, a positive scale, so the kernel of the
    rows x^T B is the complement itself.
    """
    if u.dim == 0:
        return Subspace.full(len(B))
    return row_kernel(len(B), map(dict.items, _form_rows(B, u)))


def orthogonal_complement(b: Mat, u: Subspace) -> Subspace:
    """{v : b(v, u_i) = 0 for all basis u_i}; b is a symmetric form's matrix."""
    return integer_complement(_form_numerators(b), u)


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

    b times the lcm of its denominators has the same inertia, and so does its
    Gram matrix on u's integer rows, the basis times L: both scales are
    positive.  integer_inertia reads that.
    """
    B = _form_numerators(b)
    if u is None:
        return integer_inertia(B)
    xs = u.integer_rows[1]
    return integer_inertia([[sum(y.get(j, 0) * v for j, v in x) for x in xs] for y in _form_rows(B, u)])


def integer_inertia(m: Sequence[Sequence[int]]) -> Inertia:
    """Inertia of a symmetric integer matrix, by integer Schur complements.

    A nonzero diagonal pivot d with column c leaves sgn(d) * (d * M_ts - c_t * c_s)
    on the other indices, |d| times the Schur complement, and that block is
    divided by its gcd: both are congruences up to a positive scale, so the
    inertia is sgn(d) plus the block's.  When every diagonal entry vanishes
    but some m_jk does not, the congruence e_j -> e_j + e_k makes the
    diagonal pivot 2 * m_jk.
    """
    m = [list(row) for row in m]
    n_plus = n_minus = 0
    while m:
        r = len(m)
        k = next((k for k in range(r) if m[k][k]), None)
        if k is None:
            jk = next(((j, l) for j in range(r) for l in range(j + 1, r) if m[j][l]), None)
            if jk is None:
                break  # the zero form: every remaining index is null
            j, l = jk
            for t in range(r):
                m[j][t] += m[l][t]
            for t in range(r):
                m[t][j] += m[t][l]
            k = j
        pivot = m.pop(k)
        d = pivot.pop(k)
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        s, ad = (1, d) if d > 0 else (-1, -d)
        for t, row in enumerate(m):
            c = row.pop(k)
            if c:
                m[t] = [s * (d * v - c * w) for v, w in zip(row, pivot)]
            elif ad != 1:
                m[t] = [ad * v for v in row]
        g = gcd(*(v for row in m for v in row))
        if g > 1:
            m = [[v // g for v in row] for row in m]
    return Inertia(n_plus, n_minus, len(m))
