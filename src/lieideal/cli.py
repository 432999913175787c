"""Command-line front door.

Sources are either a structure-constant file path or ``catalog:NAME``.
Subspace arguments are semicolon-separated rational coordinate vectors, e.g.
``--sub "1,0,0;0,1/2,1"``.  Every command prints a human-readable report
followed by a machine-readable JSON section.  Exit codes: 0 when no check
failed (a mathematically negative verdict is still a successful run), 1 when
a check failed or errored, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog
from .derivations import derivation_algebra, derivation_tower, is_complete
from .exactlin import Subspace, parse_rational
from .liealg import (
    LieAlgebra,
    Subalgebra,
    center,
    derived_subalgebra,
    full_subalgebra,
    is_ideal,
    is_perfect,
    radical,
    validate,
)
from .suites import SUITE_NAMES, run_suites
from .transitivity import (
    HypothesisError,
    counterexample_extension,
    normalizer_tower,
    subideal_chain,
)


class InputError(ValueError):
    """Bad command-line input: wrong file, name, spec, or precondition."""


@dataclass
class RunReport:
    command: list[str]
    checks: list[dict] = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add(self, name: str, status: str, detail: str = "") -> None:
        self.checks.append({"name": name, "status": status, "detail": detail})

    @property
    def exit_code(self) -> int:
        return 1 if any(c["status"] in ("fail", "error") for c in self.checks) else 0

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "checks": self.checks, "payload": self.payload},
            indent=2,
            sort_keys=True,
        )


def _load_source(src: str) -> LieAlgebra:
    if src.startswith("catalog:"):
        name = src.split(":", 1)[1]
        try:
            return catalog.get(name).algebra
        except catalog.CatalogError as exc:
            raise InputError(str(exc)) from None
    try:
        return catalog.load(src)
    except FileNotFoundError:
        raise InputError(f"no such file: {src}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{src}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:  # a directory, or no permission
        raise InputError(f"cannot read {src}: {exc.strerror}") from None
    except catalog.ParseError as exc:
        raise InputError(f"{src}: {exc}") from None


# Row reduction multiplies coordinates together, so the spec is bounded as a
# whole.  Row i cleared by the lcm of its denominators has entries under 2^B_i,
# B_i the bits of that lcm plus those of the largest numerator.  An RREF entry is
# a ratio of two r x r minors (Cramer), each under 2^(sum B_i + r log2(r) / 2) by
# Hadamard's bound: for r <= catalog.MAX_DIM = 256, 11,024 bits or 3,319 digits,
# within Python's int-to-str limit of 4300 digits.
MAX_SPEC_BITS = 10_000


def _parse_basis_spec(spec: str, dim: int) -> list[list[Fraction]]:
    vectors = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            v = [parse_rational(x.strip()) for x in chunk.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coordinate in basis spec: {exc}") from None
        if len(v) != dim:
            raise InputError(
                f"vector length {len(v)} does not match algebra dimension {dim}"
            )
        vectors.append(v)
    if not vectors:
        raise InputError("empty basis spec")
    bits = sum(
        math.lcm(*(q.denominator for q in v)).bit_length() + max(abs(q.numerator) for q in v).bit_length()
        for v in vectors
    )
    if bits > MAX_SPEC_BITS:
        raise InputError(f"basis spec over {MAX_SPEC_BITS} bits of row denominators and largest numerators")
    return vectors


def _subalgebra_from_spec(g: LieAlgebra, spec: str) -> Subalgebra:
    vectors = _parse_basis_spec(spec, g.dim)
    try:
        return Subalgebra(g, Subspace.span(g.dim, vectors))
    except ValueError as exc:
        raise InputError(f"span is not a subalgebra: {exc}") from None


def _fmt_vector(v) -> list[str]:
    return [str(x) for x in v]


def _fmt_subspace(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [_fmt_vector(row) for row in s.basis.entries],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, report: RunReport) -> None:
    g = _load_source(args.source)
    res = validate(g)
    report.payload["dim"] = g.dim
    report.payload["valid"] = res.ok
    report.payload["message"] = res.message()
    report.add("validate", "pass" if res.ok else "fail", res.message())
    print(f"{args.source}: {res.message()}")


def cmd_info(args, report: RunReport) -> None:
    g = _load_source(args.source)
    full = full_subalgebra(g)
    dim_radical = radical(g).dim
    info = {
        "name": g.name,
        "dim": g.dim,
        "dim_center": center(g).dim,
        "dim_derived": derived_subalgebra(full).dim,
        "dim_radical": dim_radical,
        "perfect": is_perfect(full),
        "complete": is_complete(g),
        "semisimple": dim_radical == 0,
    }
    report.payload.update(info)
    report.add("info", "pass")
    for key, value in info.items():
        print(f"{key:14s} {value}")


def cmd_derivations(args, report: RunReport) -> None:
    g = _load_source(args.source)
    da = derivation_algebra(g)
    report.payload["dim"] = g.dim
    report.payload["dim_derivations"] = da.dim
    report.payload["dim_inner"] = da.inner.dim
    complete = is_complete(g)
    report.payload["complete"] = complete
    report.payload["basis"] = [
        [_fmt_vector(row) for row in f.matrix.entries] for f in da.realization
    ]
    report.add("derivations", "pass")
    print(f"dim D(g) = {da.dim}, inner = {da.inner.dim}, complete = {complete}")


def cmd_tower(args, report: RunReport) -> None:
    g = _load_source(args.source)
    if center(g).dim != 0:
        raise InputError("derivation tower needs a centerless algebra")
    tower = derivation_tower(g, max_steps=args.max_steps)
    dims = [s.dim for s in tower.stages]
    report.payload["stage_dims"] = dims
    report.payload["stabilized_at"] = tower.stabilized_at
    if tower.exceeded_budget:
        report.add("tower", "fail", "budget exceeded before a complete stage")
        print(f"tower dims {dims}: exceeded budget")
    else:
        report.add("tower", "pass")
        print(f"tower dims {dims}: stabilized at stage {tower.stabilized_at}")


def cmd_subideal(args, report: RunReport) -> None:
    g = _load_source(args.source)
    h = _subalgebra_from_spec(g, args.sub)
    verdict = subideal_chain(g, h)
    report.payload["subideal"] = bool(verdict)
    if verdict:
        chain = verdict.chain
        report.payload["chain"] = [_fmt_subspace(s.space) for s in chain.links]
        report.payload["chain_dims"] = list(chain.dims())
        report.add("subideal", "pass", f"chain dims {chain.dims()}")
        print(f"subideal: yes, chain dims {chain.dims()}")
        for idx, link in enumerate(chain.links):
            rows = ["(" + ", ".join(_fmt_vector(r)) + ")" for r in link.space.basis.entries]
            print(f"  l_{idx} (dim {link.dim}): {'; '.join(rows) if rows else 'zero'}")
    else:
        report.payload["floor"] = _fmt_subspace(verdict.floor.space)
        report.add("subideal", "pass", "not a subideal")
        print(
            f"subideal: no (closure series stabilized at dimension {verdict.floor.dim} > {h.dim})"
        )


def cmd_ideal(args, report: RunReport) -> None:
    g = _load_source(args.source)
    h = _subalgebra_from_spec(g, args.sub)
    answer = is_ideal(g, h)
    report.payload["ideal"] = answer
    report.add("ideal", "pass", str(answer))
    print(f"ideal: {'yes' if answer else 'no'}")


def cmd_counterexample(args, report: RunReport) -> None:
    g = _load_source(args.source)
    try:
        cert = counterexample_extension(g)
    except HypothesisError as exc:
        raise InputError(str(exc)) from None
    report.payload["ambient_dim"] = cert.ambient.dim
    report.payload["chain_dims"] = list(cert.chain.dims())
    report.payload["chain"] = [_fmt_subspace(s.space) for s in cert.chain.links]
    report.payload["witness_pair"] = [
        _fmt_vector(cert.witness_pair[0]),
        _fmt_vector(cert.witness_pair[1]),
    ]
    report.payload["escaping_value"] = _fmt_vector(cert.escaping_value)
    verified = cert.verify()
    report.payload["verified"] = verified
    report.add(
        "counterexample",
        "pass" if verified else "fail",
        f"ambient dim {cert.ambient.dim}",
    )
    print(
        f"counterexample: h sits as a subideal (chain dims {cert.chain.dims()}) of an "
        f"ambient algebra of dim {cert.ambient.dim} without being an ideal"
    )
    print(f"  witness bracket value: ({', '.join(_fmt_vector(cert.escaping_value))})")


def cmd_normalizer_tower(args, report: RunReport) -> None:
    g = _load_source(args.source)
    h = _subalgebra_from_spec(g, args.sub)
    tower = normalizer_tower(g, h)
    dims = [s.dim for s in tower]
    report.payload["tower_dims"] = dims
    report.payload["tower"] = [_fmt_subspace(s.space) for s in tower]
    report.payload["self_normalizing"] = len(tower) == 1
    report.add("normalizer-tower", "pass", f"dims {dims}")
    print(f"normalizer tower dims: {dims}")
    print(f"self-normalizing: {'yes' if len(tower) == 1 else 'no'}")


def cmd_verify(args, report: RunReport) -> None:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed, min_random=args.random)
    for res in results:
        report.add(f"{res.suite}: {res.name}", res.status, res.detail)
        print(f"[{res.status:>24s}] {res.suite}: {res.name}" + (f" - {res.detail}" if res.detail else ""))
    counts: dict[str, int] = {}
    for res in results:
        counts[res.status] = counts.get(res.status, 0) + 1
    report.payload["counts"] = counts
    report.payload["seed"] = args.seed
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"verify: {summary}")


def cmd_catalog(args, report: RunReport) -> None:
    if args.action == "list":
        names = catalog.list_names()
        report.payload["names"] = names
        report.add("catalog-list", "pass")
        for name in names:
            print(name)
        return
    if not args.name:
        raise InputError("catalog show needs a name")
    try:
        entry = catalog.get(args.name)
    except catalog.CatalogError as exc:
        raise InputError(str(exc)) from None
    report.payload["name"] = entry.name
    report.payload["file"] = catalog.dumps(entry.algebra)
    report.payload["expected"] = {
        k: (v if isinstance(v, (int, bool)) else str(v)) for k, v in entry.expected.items()
    }
    report.payload["tagged_subalgebras"] = {
        k: _fmt_subspace(v) for k, v in entry.tagged_subalgebras.items()
    }
    report.payload["tagged_forms"] = sorted(entry.tagged_forms)
    report.payload["tagged_maps"] = sorted(entry.tagged_maps)
    report.add("catalog-show", "pass")
    print(catalog.dumps(entry.algebra), end="")
    if entry.expected:
        print("# expected:")
        for k, v in entry.expected.items():
            print(f"#   {k} = {v}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def nonnegative(text: str) -> int:
    """A count given on the command line: an integer, zero or more."""
    if (n := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieideal",
        description="exact computations on Lie ideals: subideal chains, "
        "transitivity criteria, derivation towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure-constant file")
    p.add_argument("source")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("info", help="dimensions and structural flags")
    p.add_argument("source")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("derivations", help="derivation algebra summary")
    p.add_argument("source")
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("tower", help="derivation tower of a centerless algebra")
    p.add_argument("source")
    p.add_argument("--max-steps", type=nonnegative, default=None)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("subideal", help="decide subideality, emit a chain")
    p.add_argument("source")
    p.add_argument("--sub", required=True, help="semicolon-separated coordinate vectors")
    p.set_defaults(fn=cmd_subideal)

    p = sub.add_parser("ideal", help="decide whether a subalgebra is an ideal")
    p.add_argument("source")
    p.add_argument("--sub", required=True)
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser(
        "counterexample",
        help="embed a non-perfect algebra as a non-ideal subideal, certified",
    )
    p.add_argument("source")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("normalizer-tower", help="iterated normalizers until stable")
    p.add_argument("source")
    p.add_argument("--sub", required=True)
    p.set_defaults(fn=cmd_normalizer_tower)

    p = sub.add_parser("verify", help="run the theorem-verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + SUITE_NAMES,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=nonnegative, default=50, help="randomized corpus size")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="list or show the named algebras")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_catalog)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    report = RunReport(command=list(argv) if argv is not None else sys.argv[1:])
    try:
        args.fn(args, report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("--- machine-readable ---")
    print(report.to_json())
    return report.exit_code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped early (``| head``): point stdout at devnull so the
        # flush at exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
