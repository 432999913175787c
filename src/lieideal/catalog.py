"""Named reference algebras, tagged subobjects, and the bracket file format.

File format (strict, UTF-8, one field per line; '#' starts a comment):

    dim 3
    name heisenberg3
    bracket 0 1 2 1

Each ``bracket i j k v`` line sets [e_i, e_j] += v e_k with 0 <= i < j < dim,
0 <= k < dim and v a rational like ``-3/2``.  The (j, i) entries are implied
by antisymmetry and are rejected if written out.  Omitted pairs are zero.
Loading validates antisymmetry and Jacobi and reports the first violation.
A ``dim`` above MAX_DIM is rejected at its line, before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .exactlin import Mat, Subspace, rat
from .liealg import LieAlgebra, LinMap, SymForm, validate


# Above every algebra the suites build (at most 72).  validate still walks
# all dim^3/6 Jacobi triples, but does arithmetic only on those with a nonzero
# bracket among their three pairs, so a sparse file at the cap loads in well
# under a second; a dense one costs what its structure constants cost.
MAX_DIM = 256


class CatalogError(KeyError):
    pass


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


def _alg(dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]], name: str) -> LieAlgebra:
    g = LieAlgebra.from_brackets(dim, brackets, name=name)
    report = validate(g)
    if not report.ok:
        raise AssertionError(f"catalog algebra {name} is invalid: {report.message()}")
    return g


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise CatalogError("abelian(n) needs n >= 1")
    return _alg(n, {}, f"abelian({n})")


def heisenberg3() -> LieAlgebra:
    # [x, y] = z
    return _alg(3, {(0, 1): {2: 1}}, "heisenberg3")


def aff1() -> LieAlgebra:
    # [x, y] = y: the nonabelian 2-dimensional algebra
    return _alg(2, {(0, 1): {1: 1}}, "aff1")


def sl2() -> LieAlgebra:
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    return _alg(
        3,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        "sl2",
    )


def so3() -> LieAlgebra:
    # cyclic basis: [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2
    return _alg(
        3,
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        "so3",
    )


def gl2() -> LieAlgebra:
    # basis (H, E, F, I) with I central
    return _alg(
        4,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        "gl2",
    )


def upper_triangular3() -> LieAlgebra:
    # basis (d1, d2, d3, e12, e13, e23) of 3x3 upper triangular matrices
    br: dict[tuple[int, int], dict[int, int]] = {
        (0, 3): {3: 1},   # [d1, e12] = e12
        (0, 4): {4: 1},   # [d1, e13] = e13
        (1, 3): {3: -1},  # [d2, e12] = -e12
        (1, 5): {5: 1},   # [d2, e23] = e23
        (2, 4): {4: -1},  # [d3, e13] = -e13
        (2, 5): {5: -1},  # [d3, e23] = -e23
        (3, 5): {4: 1},   # [e12, e23] = e13
    }
    return _alg(6, br, "upper_triangular(3)")


def sl2_rad2() -> LieAlgebra:
    # sl2 acting on Q^2 by the defining representation; basis (H,E,F,v1,v2)
    br = {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): {0: 1},
        (0, 3): {3: 1},
        (0, 4): {4: -1},
        (1, 4): {3: 1},
        (2, 3): {4: 1},
    }
    return _alg(5, br, "sl2_rad2")


_FIXED_BUILDERS = {
    "heisenberg3": heisenberg3,
    "aff1": aff1,
    "sl2": sl2,
    "so3": so3,
    "gl2": gl2,
    "upper_triangular(3)": upper_triangular3,
    "sl2_rad2": sl2_rad2,
}

_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")


def _sl2_entry(g: LieAlgebra) -> CatalogEntry:
    # negative transpose: H -> -H, E -> -F, F -> -E
    theta = LinMap(g, g, Mat([[-1, 0, 0], [0, 0, -1], [0, -1, 0]]))
    killing = SymForm(g, Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]]))
    # the form with orthonormal basis (E-F, H, E+F); makes ad_{E-F} skew
    compact_line_form = SymForm(
        g, Mat([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]])
    )
    return CatalogEntry(
        name="sl2",
        algebra=g,
        tagged_subalgebras={
            "cartan": Subspace.span(3, [[1, 0, 0]]),
            "e_line": Subspace.span(3, [[0, 1, 0]]),
            "borel": Subspace.span(3, [[1, 0, 0], [0, 1, 0]]),
            "compact_line": Subspace.span(3, [[0, 1, -1]]),
        },
        tagged_forms={"killing": killing, "compact_embedding": compact_line_form},
        tagged_maps={"cartan_involution": theta},
        expected={
            "dim": 3,
            "dim_center": 0,
            "dim_derived": 3,
            "dim_radical": 0,
            "dim_derivations": 3,
            "perfect": True,
            "complete": True,
            "semisimple": True,
        },
    )


def _so3_entry(g: LieAlgebra) -> CatalogEntry:
    minus_killing = SymForm(g, Mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    return CatalogEntry(
        name="so3",
        algebra=g,
        tagged_subalgebras={"axis": Subspace.span(3, [[0, 0, 1]])},
        tagged_forms={"minus_killing": minus_killing},
        tagged_maps={"cartan_involution": LinMap(g, g, Mat.identity(3))},
        expected={
            "dim": 3,
            "dim_center": 0,
            "dim_derived": 3,
            "dim_radical": 0,
            "dim_derivations": 3,
            "perfect": True,
            "complete": True,
            "semisimple": True,
        },
    )


def _build_entry(name: str) -> CatalogEntry:
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        g = abelian(n)
        return CatalogEntry(
            name=name,
            algebra=g,
            expected={
                "dim": n,
                "dim_center": n,
                "dim_derived": 0,
                "dim_radical": n,
                "dim_derivations": n * n,
                "perfect": False,
                "complete": False,
                "semisimple": False,
            },
        )
    if name not in _FIXED_BUILDERS:
        raise CatalogError(f"unknown catalog algebra {name!r}")
    g = _FIXED_BUILDERS[name]()
    if name == "sl2":
        return _sl2_entry(g)
    if name == "so3":
        return _so3_entry(g)
    if name == "heisenberg3":
        return CatalogEntry(
            name=name,
            algebra=g,
            tagged_subalgebras={
                "x_line": Subspace.span(3, [[1, 0, 0]]),
                "center": Subspace.span(3, [[0, 0, 1]]),
                "xz_plane": Subspace.span(3, [[1, 0, 0], [0, 0, 1]]),
            },
            expected={
                "dim": 3,
                "dim_center": 1,
                "dim_derived": 1,
                "dim_radical": 3,
                "dim_derivations": 6,
                "perfect": False,
                "complete": False,
                "semisimple": False,
            },
        )
    if name == "aff1":
        return CatalogEntry(
            name=name,
            algebra=g,
            tagged_subalgebras={"y_line": Subspace.span(2, [[0, 1]])},
            expected={
                "dim": 2,
                "dim_center": 0,
                "dim_derived": 1,
                "dim_radical": 2,
                "dim_derivations": 2,
                "perfect": False,
                "complete": True,
                "semisimple": False,
            },
        )
    if name == "gl2":
        return CatalogEntry(
            name=name,
            algebra=g,
            tagged_subalgebras={
                "sl2": Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
                "identity_line": Subspace.span(4, [[0, 0, 0, 1]]),
            },
            expected={
                "dim": 4,
                "dim_center": 1,
                "dim_derived": 3,
                "dim_radical": 1,
                "dim_derivations": 4,
                "perfect": False,
                "complete": False,
                "semisimple": False,
            },
        )
    if name == "upper_triangular(3)":
        return CatalogEntry(
            name=name,
            algebra=g,
            expected={
                "dim": 6,
                "dim_center": 1,
                "dim_derived": 3,
                "dim_radical": 6,
                "dim_derivations": 8,
                "perfect": False,
                "complete": False,
                "semisimple": False,
            },
        )
    if name == "sl2_rad2":
        return CatalogEntry(
            name=name,
            algebra=g,
            tagged_subalgebras={
                "sl2": Subspace.span(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]),
                "radical": Subspace.span(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
            },
            expected={
                "dim": 5,
                "dim_center": 0,
                "dim_derived": 5,
                "dim_radical": 2,
                "dim_derivations": 6,
                "perfect": True,
                "complete": False,
                "semisimple": False,
            },
        )
    raise CatalogError(f"unknown catalog algebra {name!r}")


def _build_sum_entry(name: str, left: str, right: str, expected: dict[str, object]) -> CatalogEntry:
    from .liealg import direct_sum

    g, _, _ = direct_sum(get(left).algebra, get(right).algebra)
    g = LieAlgebra.from_brackets(g.dim, g.brackets(), name=name)
    return CatalogEntry(name=name, algebra=g, expected=expected)


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """Catalog lookup; unknown names raise CatalogError."""
    if name == "sl2_sum_aff1":
        return _build_sum_entry(
            name,
            "sl2",
            "aff1",
            expected={
                "dim": 5,
                "dim_center": 0,
                "dim_derived": 4,
                "dim_radical": 2,
                "dim_derivations": 5,
                "perfect": False,
                "complete": True,
                "semisimple": False,
            },
        )
    if name == "so3_sum_so3":
        return _build_sum_entry(
            name,
            "so3",
            "so3",
            expected={
                "dim": 6,
                "dim_center": 0,
                "dim_derived": 6,
                "dim_radical": 0,
                "dim_derivations": 6,
                "perfect": True,
                "complete": True,
                "semisimple": True,
            },
        )
    return _build_entry(name)


def list_names() -> list[str]:
    return [
        "abelian(1)",
        "abelian(2)",
        "abelian(3)",
        "abelian(4)",
        "heisenberg3",
        "aff1",
        "sl2",
        "so3",
        "gl2",
        "upper_triangular(3)",
        "sl2_rad2",
        "sl2_sum_aff1",
        "so3_sum_so3",
    ]


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
            if len(parts) != 2 or not parts[1].isdigit():
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
                v = rat(parts[4])
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
