"""Seeded inputs for the ``query-dense`` workload.

Every algebra is put through a seeded invertible change of basis with
entries in {-1, 0, 1}, so its structure constants become dense rationals.
Each query is run twice: on the rebased file (timed) and on the original
basis (the reference, untimed).  The generator only reads the library's
catalog and its random solvable algebras; the arithmetic of the change of
basis is done here, independently of the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from lieideal import catalog
from lieideal.transitivity import random_solvable_algebra

# abelian(3) and abelian(4) counterexamples are left to verify-perfect,
# which already builds them (3.65 s for abelian(4) alone).
NO_COUNTEREXAMPLE = ("abelian(3)", "abelian(4)")
SOLVABLE_DIMS = (3, 4, 5)
# each pass rebases every algebra this many times, with independent bases,
# so the cost of one unlucky basis is averaged out
COPIES = 3
ALGEBRA_QUERIES = ("validate", "info", "derivations", "counterexample", "tower")
SUB_QUERIES = ("subideal", "normalizer-tower")


@dataclass(frozen=True)
class Query:
    kind: str
    algebra: str
    file: str
    ref_file: str
    sub: str | None = None
    ref_sub: str | None = None
    # frozen catalog facts (CatalogEntry.expected); empty for random algebras
    facts: tuple[tuple[str, object], ...] = ()

    def argv(self, workdir: str, reference: bool = False) -> list[str]:
        path = f"{workdir}/{self.ref_file if reference else self.file}"
        args = [self.kind, path]
        if self.sub is not None:
            # "=" keeps argparse from reading a leading "-" as an option
            args.append(f"--sub={self.ref_sub if reference else self.sub}")
        return args


@dataclass(frozen=True)
class Inputs:
    files: dict[str, str]
    queries: tuple[Query, ...]
    dims: tuple[int, ...]
    density: float  # nnz / dim^3 of the rebased structure constants


def _inverse(p: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(p)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(p)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def _random_basis(rng: random.Random, n: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    while True:
        p = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        q = _inverse(p)
        if q is not None:
            return p, q


def rebase(c, p, q) -> list[list[list[Fraction]]]:
    """Structure constants in the basis f_a = sum_i p[a][i] e_i."""
    n = len(c)
    nz = [(i, j, k, v) for i in range(n) for j in range(n) for k, v in enumerate(c[i][j]) if v]
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            row = out[a][b]
            for i, j, k, v in nz:
                s = p[a][i] * p[b][j]
                if s:
                    for m in range(n):
                        row[m] += s * v * q[k][m]
            out[b][a] = [-x for x in row]
    return out


def lie_text(name: str, c) -> str:
    n = len(c)
    lines = [f"dim {n}", f"name {name}"]
    for i in range(n):
        for j in range(i + 1, n):
            lines += [f"bracket {i} {j} {k} {v}" for k, v in enumerate(c[i][j]) if v]
    return "\n".join(lines) + "\n"


def _spec(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _transport(rows, q) -> list[list[Fraction]]:
    n = len(q)
    return [[sum((r[k] * q[k][m] for k in range(n)), Fraction(0)) for m in range(n)] for r in rows]


def _solvable(rng: random.Random, dim: int):
    for _ in range(500):
        g = random_solvable_algebra(rng, matrix_size=3, generators=2)
        if g.dim == dim:
            return g
    raise RuntimeError(f"no random solvable algebra of dimension {dim}")


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    algebras = []  # (label, structure constants, subalgebra bases, facts)
    for copy in range(COPIES):
        for name in catalog.list_names():
            entry = catalog.get(name)
            subs = [v.basis.entries for _, v in sorted(entry.tagged_subalgebras.items())]
            algebras.append((name, entry.algebra.c, subs, tuple(sorted(entry.expected.items()))))
        for dim in SOLVABLE_DIMS:
            g = _solvable(rng, dim)
            line = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(dim)]
            algebras.append((f"solvable_{copy}_{dim}", g.c, [[line]], ()))

    files: dict[str, str] = {}
    queries: list[Query] = []
    nnz = cubes = 0
    for idx, (label, c, subs, facts) in enumerate(algebras):
        p, q = _random_basis(rng, len(c))
        dense = rebase(c, p, q)
        nnz += sum(1 for plane in dense for row in plane for v in row if v)
        cubes += len(c) ** 3
        # the copies of a catalog algebra share one original-basis file
        file, ref_file = f"a{idx:02d}.lie", f"orig-{label}.lie"
        files[file] = lie_text(label, dense)
        files[ref_file] = lie_text(label, c)
        for kind in ALGEBRA_QUERIES:
            if kind == "counterexample" and label in NO_COUNTEREXAMPLE:
                continue
            queries.append(Query(kind, label, file, ref_file, facts=facts))
        for rows in subs:
            sub, ref_sub = _spec(_transport(rows, q)), _spec(rows)
            for kind in SUB_QUERIES:
                queries.append(Query(kind, label, file, ref_file, sub, ref_sub, facts))
    return Inputs(
        files=files,
        queries=tuple(queries),
        dims=tuple(len(c) for _, c, _, _ in algebras),
        density=nnz / cubes,
    )
