"""Command-line front door.

Sources are either a structure-constant file path or ``catalog:NAME``.
Subspace arguments are semicolon-separated rational coordinate vectors, e.g.
``--sub "1,0,0;0,1/2,1"``.  Every command prints a human-readable report
followed by a machine-readable JSON section.  Exit codes: 0 when no check
failed (a mathematically negative verdict is still a successful run), 1 when
a check failed or errored (a failed internal re-check is reported as an
errored check), 2 on malformed input.

A run whose first argument names a command parses the rest with that
command's parser alone, the one the full build hands them to, so ``-h`` and
usage errors print the same bytes.  The full build, every command's parser
under the ``lieideal`` root, parses an argv that names no command or leaves
arguments over, and reports them with the root's usage line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog
from .derivations import derivation_algebra, derivation_tower, is_complete
from .exactlin import Subspace, parse_rational, quoted
from .liealg import (
    InternalCheckError,
    LieAlgebra,
    Subalgebra,
    ValidationReport,
    _radical,
    center,
    derived_subalgebra,
    full_subalgebra,
    is_ideal,
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


def shown(text: str, width: int = 20) -> str:
    """text as it is when exactlin.quoted keeps it whole, else quoted's cut form."""
    return text if (cut := quoted(text, width)) == repr(text) else cut


def _load_source(src: str) -> LieAlgebra:
    if src.startswith("catalog:"):
        name = src.split(":", 1)[1]
        try:
            return catalog.get(name).algebra
        except catalog.CatalogError as exc:
            raise InputError(str(exc)) from None
    path = shown(src, 100)  # an ordinary path, a temporary one included, fits
    try:
        return catalog.load(src)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:  # a directory, no permission, or a name too long
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except catalog.ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


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


def _fmt_rows(s: Subspace) -> list[list[str]]:
    """s's RREF rows as str(Fraction) would print their entries, read off integer_rows."""
    L, rows = s.integer_rows
    out = []
    for row in rows:
        v = ["0"] * s.ambient_dim
        for j, x in row:
            g = math.gcd(x, L)
            v[j] = str(x // g) if g == L else f"{x // g}/{L // g}"
        out.append(v)
    return out


def _fmt_subspace(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "dim": s.dim, "basis": _fmt_rows(s)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, report: RunReport) -> None:
    # the loader validates a file and the catalog each row it builds; an
    # invalid algebra never gets here, it exits 2 with the loader's message
    g = _load_source(args.source)
    message = ValidationReport(True).message()
    report.payload["dim"] = g.dim
    report.payload["valid"] = True
    report.payload["message"] = message
    report.add("validate", "pass", message)
    print(f"{args.source}: {message}")


def cmd_info(args, report: RunReport) -> None:
    g = _load_source(args.source)
    # [g, g] and the center once each: radical and is_complete would take them again
    derived = derived_subalgebra(full_subalgebra(g))
    dim_radical = _radical(g, derived.space).dim
    dim_center = center(g).dim
    info = {
        "name": g.name,
        "dim": g.dim,
        "dim_center": dim_center,
        "dim_derived": derived.dim,
        "dim_radical": dim_radical,
        "perfect": derived.dim == g.dim,
        "complete": dim_center == 0 and (da := derivation_algebra(g)).inner.dim == da.dim,
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
    # each row of D(g)'s span is an n x n matrix flattened row-major
    n = g.dim
    report.payload["basis"] = [[row[r : r + n] for r in range(0, n * n, n)] for row in _fmt_rows(da.span)]
    report.add("derivations", "pass")
    print(f"dim D(g) = {da.dim}, inner = {da.inner.dim}, complete = {complete}")


def cmd_tower(args, report: RunReport) -> None:
    g = _load_source(args.source)
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
            rows = ["(" + ", ".join(r) + ")" for r in _fmt_rows(link.space)]
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
    cert = counterexample_extension(g)
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


def integer(text: str, kind: str = "integer") -> int:
    """An integer on the command line: ASCII digits after an optional minus sign.

    A refusal quotes the text by exactlin.quoted, where argparse would echo
    a ValueError's text whole, in argparse's words: "invalid <kind> value".
    """
    # the file format's digit rule: int() alone would read 1_0 and ٣ as 10 and 3
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {quoted(text)}")
    return int(text)


def nonnegative(text: str) -> int:
    """A count given on the command line: an integer, zero or more."""
    if (n := integer(text, "nonnegative")) < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


SOURCE, SUB = arg("source"), arg("--sub", required=True)

# name: (help, handler, arguments), in the order ``-h`` lists them
COMMANDS = {
    "validate": ("check a structure-constant file", cmd_validate, [SOURCE]),
    "info": ("dimensions and structural flags", cmd_info, [SOURCE]),
    "derivations": ("derivation algebra summary", cmd_derivations, [SOURCE]),
    "tower": ("derivation tower of a centerless algebra", cmd_tower,
              [SOURCE, arg("--max-steps", type=nonnegative, default=None)]),
    "subideal": ("decide subideality, emit a chain", cmd_subideal,
                 [SOURCE, arg("--sub", required=True,
                              help="semicolon-separated coordinate vectors")]),
    "ideal": ("decide whether a subalgebra is an ideal", cmd_ideal, [SOURCE, SUB]),
    "counterexample": ("embed a non-perfect algebra as a non-ideal subideal, certified",
                       cmd_counterexample, [SOURCE]),
    "normalizer-tower": ("iterated normalizers until stable", cmd_normalizer_tower, [SOURCE, SUB]),
    "verify": ("run the theorem-verification suites", cmd_verify,
               [arg("--suite", default="all", choices=("all",) + SUITE_NAMES),
                arg("--seed", type=integer, default=0),
                arg("--random", type=nonnegative, default=50, help="randomized corpus size")]),
    "catalog": ("list or show the named algebras", cmd_catalog,
                [arg("action", choices=("list", "show")), arg("name", nargs="?")]),
}


class Parser(argparse.ArgumentParser):
    """argparse's parser, whose errors cut by shown each argument of argv they echo, in repr or as it is."""

    argv: Sequence[str] = ()

    def error(self, message: str):
        for text in self.argv:
            if (cut := shown(text)) != text:
                message = message.replace(repr(text), cut).replace(text, cut)
        super().error(message)


def _fill(parser: Parser, name: str, argv: Sequence[str]) -> Parser:
    """parser with name's arguments and defaults, cutting argv in its errors."""
    parser.argv = argv
    for flags, options in COMMANDS[name][2]:
        parser.add_argument(*flags, **options)
    parser.set_defaults(fn=COMMANDS[name][1], command=name)
    return parser


def command_parser(name: str, argv: Sequence[str] = ()) -> Parser:
    """The parser the full build hands name's arguments to, built alone."""
    return _fill(Parser(prog=f"lieideal {name}"), name, argv)


def build_parser(argv: Sequence[str] = ()) -> Parser:
    """The parser of every command under the lieideal root, cutting argv in errors."""
    parser = Parser(
        prog="lieideal",
        description="exact computations on Lie ideals: subideal chains, "
        "transitivity criteria, derivation towers",
    )
    parser.argv = argv
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name, argv)
    return parser


def parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed by its command's own parser alone when that leaves nothing
    over, else by the full build, which reports extra arguments and an argv
    that names no command with the root's usage."""
    if argv and argv[0] in COMMANDS:
        args, extra = command_parser(argv[0], argv).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser(argv).parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # parsers are built on every call, as a one-shot process builds them
        args = parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    report = RunReport(command=argv)
    try:
        args.fn(args, report)
    except (InputError, HypothesisError) as exc:  # HypothesisError: a command's precondition
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        # a library re-check failed (TheoremViolationError is one too): a bug,
        # reported as an errored check, as verify reports it
        detail = f"{type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        report.add(args.command, "error", detail)
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
