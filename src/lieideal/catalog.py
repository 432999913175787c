"""Named reference algebras, tagged subobjects, and the bracket file format.

The catalog is one table, ``_TABLE``: each row gives an algebra's structure
(its dimension and [e_i, e_j] brackets, or the two entries it is the direct
sum of), its frozen facts in ``FACTS`` order, and its tagged subalgebras,
forms and maps.  Adding an algebra means adding one row.  ``abelian(n)`` is
the one parametric family.

File format (strict, UTF-8, one field per line; '#' starts a comment):

    dim 3
    name heisenberg3
    bracket 0 1 2 1

Each ``bracket i j k v`` line sets [e_i, e_j] += v e_k with 0 <= i < j < dim,
0 <= k < dim and v a rational like ``-3/2``.  The (j, i) entries are implied
by antisymmetry and are rejected if written out.  Omitted pairs are zero.
Loading validates antisymmetry and Jacobi and reports the first violation.
An oversized ``dim`` or ``v`` is rejected at its line, before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .exactlin import Mat, Subspace, parse_rational
from .liealg import LieAlgebra, LinMap, SymForm, direct_sum, validate


# Above every algebra the suites build (at most 72); it bounds files and
# abelian(n) alike.  validate still walks all dim^3/6 Jacobi triples, but does
# arithmetic only on those with a nonzero bracket among their three pairs, so
# a sparse file at the cap loads in well under a second; a dense one costs
# what its structure constants cost.
MAX_DIM = 256

# the keys of every entry's expected facts, in this order
FACTS = (
    "dim",
    "dim_center",
    "dim_derived",
    "dim_radical",
    "dim_derivations",
    "perfect",
    "complete",
    "semisimple",
)


class CatalogError(LookupError):
    """An unknown or malformed catalog name; a KeyError's str() would quote the message."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CatalogEntry:
    """A cached catalog record; get() hands the same one to every caller.

    The mapping fields are read-only views of private copies, so no caller
    can change what a later caller sees.
    """

    name: str
    algebra: LieAlgebra
    tagged_subalgebras: Mapping[str, Subspace] = field(default_factory=dict)
    tagged_forms: Mapping[str, SymForm] = field(default_factory=dict)
    tagged_maps: Mapping[str, LinMap] = field(default_factory=dict)
    expected: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for f in ("tagged_subalgebras", "tagged_forms", "tagged_maps", "expected"):
            object.__setattr__(self, f, MappingProxyType(dict(getattr(self, f))))


class _Row(NamedTuple):
    # (dim, {(i, j): {k: v}}) for [e_i, e_j] = sum v e_k; None for a direct sum
    structure: tuple | None
    facts: tuple  # in FACTS order
    summands: tuple[str, str] = ()  # the two rows a direct sum is made of
    subalgebras: Mapping[str, list] = {}  # tag -> spanning vectors
    forms: Mapping[str, list] = {}  # tag -> Gram matrix
    maps: Mapping[str, list] = {}  # tag -> matrix of an endomorphism


_SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}

_TABLE: dict[str, _Row] = {
    # [x, y] = z
    "heisenberg3": _Row(
        (3, {(0, 1): {2: 1}}),
        (3, 1, 1, 3, 6, False, False, False),
        subalgebras={
            "x_line": [[1, 0, 0]],
            "center": [[0, 0, 1]],
            "xz_plane": [[1, 0, 0], [0, 0, 1]],
        },
    ),
    # [x, y] = y: the nonabelian 2-dimensional algebra
    "aff1": _Row(
        (2, {(0, 1): {1: 1}}),
        (2, 0, 1, 2, 2, False, True, False),
        subalgebras={"y_line": [[0, 1]]},
    ),
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    "sl2": _Row(
        (3, _SL2),
        (3, 0, 3, 0, 3, True, True, True),
        subalgebras={
            "cartan": [[1, 0, 0]],
            "e_line": [[0, 1, 0]],
            "borel": [[1, 0, 0], [0, 1, 0]],
            "compact_line": [[0, 1, -1]],
        },
        forms={
            "killing": [[8, 0, 0], [0, 0, 4], [0, 4, 0]],
            # the form with orthonormal basis (E-F, H, E+F); makes ad_{E-F} skew
            "compact_embedding": [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]],
        },
        # negative transpose: H -> -H, E -> -F, F -> -E
        maps={"cartan_involution": [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]},
    ),
    # cyclic basis: [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2
    "so3": _Row(
        (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}),
        (3, 0, 3, 0, 3, True, True, True),
        subalgebras={"axis": [[0, 0, 1]]},
        forms={"minus_killing": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
        maps={"cartan_involution": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    ),
    # basis (H, E, F, I) with I central
    "gl2": _Row(
        (4, _SL2),
        (4, 1, 3, 1, 4, False, False, False),
        subalgebras={
            "sl2": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            "identity_line": [[0, 0, 0, 1]],
        },
    ),
    # basis (d1, d2, d3, e12, e13, e23) of 3x3 upper triangular matrices
    "upper_triangular(3)": _Row(
        (
            6,
            {
                (0, 3): {3: 1},   # [d1, e12] = e12
                (0, 4): {4: 1},   # [d1, e13] = e13
                (1, 3): {3: -1},  # [d2, e12] = -e12
                (1, 5): {5: 1},   # [d2, e23] = e23
                (2, 4): {4: -1},  # [d3, e13] = -e13
                (2, 5): {5: -1},  # [d3, e23] = -e23
                (3, 5): {4: 1},   # [e12, e23] = e13
            },
        ),
        (6, 1, 3, 6, 8, False, False, False),
    ),
    # sl2 acting on Q^2 by the defining representation; basis (H,E,F,v1,v2)
    "sl2_rad2": _Row(
        (5, {**_SL2, (0, 3): {3: 1}, (0, 4): {4: -1}, (1, 4): {3: 1}, (2, 3): {4: 1}}),
        (5, 0, 5, 2, 6, True, False, False),
        subalgebras={
            "sl2": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
            "radical": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
        },
    ),
    "sl2_sum_aff1": _Row(
        None, (5, 0, 4, 2, 5, False, True, False), summands=("sl2", "aff1")
    ),
    "so3_sum_so3": _Row(
        None, (6, 0, 6, 0, 6, True, True, True), summands=("so3", "so3")
    ),
}

_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")


def _checked(g: LieAlgebra) -> LieAlgebra:
    report = validate(g)
    if not report.ok:
        raise AssertionError(f"catalog algebra {g.name} is invalid: {report.message()}")
    return g


def _alg(dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]], name: str) -> LieAlgebra:
    return _checked(LieAlgebra.from_brackets(dim, brackets, name=name))


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise CatalogError("abelian(n) needs n >= 1")
    if n > MAX_DIM:
        raise CatalogError(f"abelian({n}) exceeds the maximum dim {MAX_DIM}")
    return _alg(n, {}, f"abelian({n})")


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """Catalog lookup; unknown names raise CatalogError."""
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        if m.group(1) != str(n):
            # one spelling per algebra, so one cache entry and one name
            raise CatalogError(f"catalog name {name!r}: write n without leading zeros")
        g = abelian(n)
        facts = (n, n, 0, n, n * n, False, False, False)
        return CatalogEntry(name=name, algebra=g, expected=dict(zip(FACTS, facts)))
    if name not in _TABLE:
        raise CatalogError(f"unknown catalog algebra {name!r}")
    row = _TABLE[name]
    if row.summands:
        g = _checked(direct_sum(*(get(t).algebra for t in row.summands))[0].renamed(name))
    else:
        g = _alg(*row.structure, name)
    return CatalogEntry(
        name=name,
        algebra=g,
        tagged_subalgebras={t: Subspace.span(g.dim, v) for t, v in row.subalgebras.items()},
        tagged_forms={t: SymForm(g, Mat(m)) for t, m in row.forms.items()},
        tagged_maps={t: LinMap(g, g, Mat(m)) for t, m in row.maps.items()},
        expected=dict(zip(FACTS, row.facts)),
    )


def list_names() -> list[str]:
    return [f"abelian({n})" for n in range(1, 5)] + list(_TABLE)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def dumps(g: LieAlgebra) -> str:
    lines = [f"dim {g.dim}"]
    if g.name:
        lines.append(f"name {g.name}")
    for (i, j), row in g.brackets().items():
        lines += [f"bracket {i} {j} {k} {v}" for k, v in row.items()]
    return "\n".join(lines) + "\n"


def save(g: LieAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(g))


def loads(text: str) -> LieAlgebra:
    dim: int | None = None
    name: str | None = None
    seen: set[tuple[int, int, int]] = set()
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None:
                raise ParseError("duplicate dim field", lineno)
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise ParseError("dim needs one integer argument", lineno)
            dim = int(parts[1])
            if dim > MAX_DIM:
                raise ParseError(f"dim {dim} exceeds the maximum {MAX_DIM}", lineno)
        elif parts[0] == "name":
            if len(parts) < 2:
                raise ParseError("name needs an argument", lineno)
            name = line.split(None, 1)[1]
        elif parts[0] == "bracket":
            if dim is None:
                raise ParseError("bracket before dim", lineno)
            if len(parts) != 5:
                raise ParseError("bracket needs i j k v", lineno)
            try:
                i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
                v = parse_rational(parts[4])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad bracket record: {exc}", lineno) from None
            if not (0 <= i < j < dim):
                raise ParseError(
                    f"need 0 <= i < j < dim, got i={i} j={j}", lineno
                )
            if not (0 <= k < dim):
                raise ParseError(f"k={k} out of range", lineno)
            if (i, j, k) in seen:
                raise ParseError(f"duplicate bracket entry ({i},{j},{k})", lineno)
            seen.add((i, j, k))
            brackets.setdefault((i, j), {})[k] = v
        else:
            raise ParseError(f"unknown field {parts[0]!r}", lineno)
    if dim is None:
        raise ParseError("missing dim field")
    g = LieAlgebra.from_brackets(dim, brackets, name=name)
    report = validate(g)
    if not report.ok:
        raise ParseError(report.message())
    return g


def load(path: str) -> LieAlgebra:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
