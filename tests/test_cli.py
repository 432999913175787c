import argparse
import importlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lieideal
import reference
from lieideal import catalog, cli, derivations, liealg
from lieideal.cli import COMMANDS, build_parser, run
from lieideal.exactlin import Subspace
from lieideal.liealg import Subalgebra, sub_to_algebra


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    human, _, machine = out.partition("--- machine-readable ---")
    payload = json.loads(machine) if machine.strip() else None
    return code, human, payload


def test_subideal_chain_command(capsys):
    code, human, payload = invoke(
        capsys, "subideal", "catalog:heisenberg3", "--sub", "1,0,0"
    )
    assert code == 0
    assert payload["payload"]["subideal"] is True
    assert payload["payload"]["chain_dims"] == [1, 2, 3]
    assert "chain dims (1, 2, 3)" in human


def test_subideal_negative_verdict_exits_zero(capsys):
    code, human, payload = invoke(capsys, "subideal", "catalog:sl2", "--sub", "0,1,0")
    assert code == 0
    assert payload["payload"]["subideal"] is False
    assert payload["payload"]["floor"]["dim"] == 3


def test_printed_chain_reverifies_with_ideal_calls(capsys, tmp_path):
    code, _, payload = invoke(
        capsys, "subideal", "catalog:heisenberg3", "--sub", "1,0,0"
    )
    assert code == 0
    g = catalog.get("heisenberg3").algebra
    chain = payload["payload"]["chain"]
    for inner, outer in zip(chain, chain[1:]):
        outer_sub = Subalgebra(g, Subspace.span(g.dim, outer["basis"]))
        if outer_sub.dim == g.dim:
            spec = ";".join(",".join(row) for row in inner["basis"])
            code, _, verdict = invoke(capsys, "ideal", "catalog:heisenberg3", "--sub", spec)
        else:
            # restrict the outer link to its own algebra and re-check there
            outer_alg = sub_to_algebra(outer_sub)
            path = tmp_path / "link.lie"
            catalog.save(outer_alg, str(path))
            moved = [
                outer_sub.space.coordinates([Fraction(x) for x in row])
                for row in inner["basis"]
            ]
            # coordinates holds only the nonzero entries, by row index
            spec = ";".join(
                ",".join(str(c.get(i, 0)) for i in range(outer_sub.dim)) for c in moved
            )
            code, _, verdict = invoke(capsys, "ideal", str(path), "--sub", spec)
        assert code == 0
        assert verdict["payload"]["ideal"] is True


def test_ideal_false_is_a_verdict_not_a_failure(capsys):
    code, human, payload = invoke(capsys, "ideal", "catalog:heisenberg3", "--sub", "1,0,0")
    assert code == 0
    assert payload["payload"]["ideal"] is False
    assert "no" in human


def test_counterexample_of_perfect_exits_two(capsys):
    code = run(["counterexample", "catalog:sl2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "perfect" in err


def test_counterexample_serializes_certificate(capsys):
    code, human, payload = invoke(capsys, "counterexample", "catalog:aff1")
    assert code == 0
    data = payload["payload"]
    assert data["verified"] is True
    assert data["chain_dims"] == [2, 3, 7]
    assert len(data["witness_pair"]) == 2


def test_validate_and_info_on_file(capsys, tmp_path):
    path = tmp_path / "sl2.lie"
    catalog.save(catalog.get("sl2").algebra, str(path))
    code, human, payload = invoke(capsys, "validate", str(path))
    assert code == 0
    assert payload["payload"]["valid"] is True

    code, human, payload = invoke(capsys, "info", str(path))
    assert code == 0
    info = payload["payload"]
    assert info["dim"] == 3 and info["perfect"] and info["complete"] and info["semisimple"]


@pytest.mark.parametrize("name", ["sl2", "gl2", "sl2_rad2", "aff1", "heisenberg3", "upper_triangular(3)"])
def test_info_takes_the_center_and_the_derived_algebra_once(capsys, monkeypatch, name):
    seen = []
    real_center, real_spaces = liealg.center, liealg.bracket_spaces

    def center(g):
        seen.append("center")
        return real_center(g)

    def bracket_spaces(g, u, v):
        if u.dim == v.dim == g.dim:
            seen.append("[g, g]")
        return real_spaces(g, u, v)

    monkeypatch.setattr(cli, "center", center)
    monkeypatch.setattr(derivations, "center", center)
    monkeypatch.setattr(liealg, "bracket_spaces", bracket_spaces)
    derivations.derivation_algebra.cache_clear()
    code, _, payload = invoke(capsys, "info", f"catalog:{name}")
    assert code == 0 and payload["payload"]["dim"] == catalog.get(name).algebra.dim
    assert sorted(seen) == ["[g, g]", "center"]


def test_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.lie"
    path.write_text("dim 3\nbracket 0 1 2 1\nbracket 0 2 0 1\n")
    code = run(["validate", str(path)])
    assert code == 2
    assert "(0, 1, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("error", [liealg.InternalCheckError, liealg.TheoremViolationError])
def test_a_failed_internal_check_is_reported_not_raised(capsys, monkeypatch, error):
    # a re-check inside the library failing is a bug: the run reports it as an
    # errored check and exits 1, with no traceback
    def broken(g):
        raise error("re-check failed")

    monkeypatch.setattr(cli, "counterexample_extension", broken)
    assert run(["counterexample", "catalog:aff1"]) == 1
    out, err = capsys.readouterr()
    detail = f"{error.__name__}: re-check failed"
    assert err == f"error: {detail}\n"
    assert out.startswith("--- machine-readable ---\n")
    assert json.loads(out.partition("\n")[2]) == {
        "command": ["counterexample", "catalog:aff1"],
        "checks": [{"name": "counterexample", "status": "error", "detail": detail}],
        "payload": {},
    }


def test_validate_reports_the_loaders_verdict(capsys, tmp_path, monkeypatch):
    # the loader walks Jacobi once and refuses an invalid file before validate
    # reports; a valid file is not walked a second time
    path = tmp_path / "sl2.lie"
    catalog.save(catalog.get("sl2").algebra, str(path))
    walks = []
    check = catalog.validate
    monkeypatch.setattr(catalog, "validate", lambda g: walks.append(g.dim) or check(g))
    monkeypatch.setattr(liealg, "validate", lambda g: pytest.fail("validated twice"))
    bad = tmp_path / "bad.lie"
    bad.write_text("dim 3\nbracket 0 1 2 1\nbracket 0 2 0 1\nbracket 1 2 1 5\n")
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: Jacobi identity fails at triple (i,j,k)=(0, 1, 2)\n"
    code, human, payload = invoke(capsys, "validate", str(path))
    assert code == 0 and walks == [3, 3]
    assert human == f"{path}: valid Lie algebra (antisymmetry and Jacobi hold)\n"
    assert payload["payload"] == {"dim": 3, "message": "valid Lie algebra (antisymmetry and Jacobi hold)", "valid": True}
    assert payload["checks"] == [{"name": "validate", "status": "pass", "detail": payload["payload"]["message"]}]


def test_missing_file_exits_two(capsys):
    assert run(["info", "/does/not/exist.lie"]) == 2
    assert "no such file: /does/not/exist.lie" in capsys.readouterr().err


def test_unreadable_source_exits_two(capsys, tmp_path):
    path = tmp_path / "ff.lie"
    path.write_bytes(b"\xff")
    for src, message in ((path, "not UTF-8 text"), (tmp_path, "cannot read")):
        assert run(["validate", str(src)]) == 2
        err = capsys.readouterr().err
        assert f"{src}" in err and message in err and "Traceback" not in err


def test_bad_basis_spec_exits_two(capsys):
    assert run(["ideal", "catalog:sl2", "--sub", "1,zebra,0"]) == 2
    capsys.readouterr()
    # 1e5000 is refused before it is built; its RREF entry 1/10^5000 could
    # not be printed within Python's int-to-str digit limit
    assert run(["subideal", "catalog:heisenberg3", "--sub", "1e5000,1,0"]) == 2
    err = capsys.readouterr().err
    assert "bad coordinate" in err and "Traceback" not in err
    # every literal is under the literal bound, but the RREF of these five rows
    # has entries too long to print; the spec as a whole is refused first
    rnd = random.Random(0)
    rows = [[str(rnd.randrange(10**990, 10**991)) for _ in range(6)] for _ in range(5)]
    spec = ";".join(",".join(row) for row in rows)
    for command in ("subideal", "ideal", "normalizer-tower"):
        assert run([command, "catalog:abelian(6)", "--sub", spec]) == 2
        err = capsys.readouterr().err
        assert "basis spec over" in err and "Traceback" not in err
    # the same with each literal as a denominator: the rows' lcms carry the size
    spec = ";".join(",".join("1/" + x for x in row) for row in rows)
    for command in ("subideal", "ideal", "normalizer-tower"):
        assert run([command, "catalog:abelian(6)", "--sub", spec]) == 2
        err = capsys.readouterr().err
        assert "basis spec over" in err and "Traceback" not in err
    # one of those literals among small ones is within the bound, and prints
    assert run(["subideal", "catalog:abelian(6)", "--sub", ",".join([rows[0][0]] + ["1"] * 5)]) == 0
    capsys.readouterr()
    # many small coordinates are within the bound: it counts bits per row, not
    # per coordinate, so the 100 unit vectors of abelian(100) cost 200 bits
    units = ";".join(",".join("1" if j == i else "0" for j in range(100)) for i in range(100))
    for command in ("subideal", "ideal", "normalizer-tower"):
        assert run([command, "catalog:abelian(100)", "--sub", units]) == 0
        capsys.readouterr()


def test_zero_denominator_in_file_exits_two(capsys, tmp_path):
    path = tmp_path / "z.lie"
    path.write_text("dim 2\nbracket 0 1 1 1/0\n")
    assert run(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err
    # refused before Fraction builds 10^999999999
    path.write_text("dim 3\nbracket 0 1 2 1e999999999\n")
    assert run(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err


def test_underscore_in_a_literal_exits_two(capsys, tmp_path):
    # Fraction reads 1_0 as 10 on Python 3.11 and refuses it on 3.10: both refuse it here
    assert run(["subideal", "catalog:heisenberg3", "--sub", "1_0,0,0"]) == 2
    err = capsys.readouterr().err
    assert "bad coordinate" in err and "underscore" in err and "Traceback" not in err
    path = tmp_path / "u.lie"
    path.write_text("dim 3\nbracket 0 1 2 1_0\n")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "underscore" in err and "Traceback" not in err


def test_long_outside_input_is_quoted_to_a_bounded_length(capsys, tmp_path, monkeypatch):
    # a literal or a field name of any length: its error line quotes its first
    # 20 characters and its length, and a short one is quoted whole
    nines = "9" * 5000
    monkeypatch.chdir(tmp_path)
    Path("u.lie").write_text(f"dim 3\nbracket 0 1 2 1_{nines}\n")
    Path("f.lie").write_text(f"dim 3\n{'f' * 5000} 0 1 2 1\n")
    cut = "'1_999999999999999999'... (5002 characters)"
    sub = ["subideal", "catalog:heisenberg3", "--sub"]
    for argv, want in [
        ([*sub, f"1_{nines},0,0"], f"bad coordinate in basis spec: underscore in literal {cut}"),
        (["validate", "u.lie"], f"u.lie: line 2: bad bracket record: underscore in literal {cut}"),
        (["validate", "f.lie"], f"f.lie: line 2: unknown field {'f' * 20!r}... (5000 characters)"),
        (
            [*sub, f"{'x' * 999},0,0"],
            f"bad coordinate in basis spec: Invalid literal for Fraction: {'x' * 20!r}... (999 characters)",
        ),
        ([*sub, "1_999,0,0"], "bad coordinate in basis spec: underscore in literal '1_999'"),
        ([*sub, "1/2x,0,0"], "bad coordinate in basis spec: Invalid literal for Fraction: '1/2x'"),
    ]:
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {want}\n" and len(err.encode()) <= 120


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"])
def test_a_non_ascii_digit_in_a_literal_exits_two(capsys, tmp_path, digit):
    # Fraction reads an Arabic-Indic and a fullwidth three as 3; dims, indices
    # and integer options already refuse them, and so do literals
    assert run(["subideal", "catalog:heisenberg3", "--sub", f"{digit},0,0"]) == 2
    err = capsys.readouterr().err
    assert "bad coordinate in basis spec" in err and "non-ASCII" in err and "Traceback" not in err
    path = tmp_path / "digit.lie"
    path.write_text(f"dim 3\nbracket 0 1 2 {digit}\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "non-ASCII" in err and "Traceback" not in err


def test_bracket_index_outside_ascii_digits_exits_two(capsys, tmp_path):
    # int() would load [e_0, e_1] = e_10 and e_3
    path = tmp_path / "idx.lie"
    for index in ("1_0", "\u0663"):
        path.write_text(f"dim 12\nbracket 0 1 {index} 1\n", encoding="utf-8")
        assert run(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err


def test_dim_above_cap_in_file_exits_two(capsys, tmp_path):
    path = tmp_path / "big.lie"
    # past 4300 digits int() would raise ValueError
    for dim in ("257", "9" * 5000):
        path.write_text(f"dim {dim}\nbracket 0 1 2 1\n")
        assert run(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "Traceback" not in err
    # a digit to str.isdigit, but not to int()
    path.write_text("dim \u00b2\n")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err


def test_zero_denominator_in_basis_spec_exits_two(capsys):
    assert run(["ideal", "catalog:sl2", "--sub", "1,1/0,0"]) == 2
    assert "bad coordinate" in capsys.readouterr().err


def test_non_subalgebra_spec_exits_two(capsys):
    assert run(["ideal", "catalog:sl2", "--sub", "0,1,0;0,0,1"]) == 2
    capsys.readouterr()


def test_derivations_command(capsys):
    code, human, payload = invoke(capsys, "derivations", "catalog:heisenberg3")
    assert code == 0
    assert payload["payload"]["dim_derivations"] == 6
    assert payload["payload"]["complete"] is False


def test_answer_rows_print_as_their_fractions_do():
    # the rows are read off integer_rows: x / L reduced by gcd(x, L), as str(Fraction) prints it
    rnd = random.Random(0)
    reduced = negative = 0
    for _ in range(300):
        n = rnd.randint(1, 6)
        vectors = [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)) for _ in range(n)] for _ in range(rnd.randint(1, n))]
        s = Subspace.span(n, vectors)
        assert cli._fmt_rows(s) == [[str(x) for x in row] for row in s.basis.entries]
        L, rows = s.integer_rows
        reduced += any(1 < math.gcd(x, L) < L for row in rows for _, x in row)
        negative += any(x < 0 for row in rows for _, x in row)
    assert reduced > 50 and negative > 50


@pytest.mark.parametrize(
    "source",
    # sl2 and aff1 with rational constants, whose derivations have rational entries
    ["dim 3\nbracket 0 1 1 2/3\nbracket 0 2 2 -2/3\nbracket 1 2 0 3/2\n", "dim 2\nbracket 0 1 1 -3/2\n"]
    + [f"catalog:{name}" for name in catalog.list_names()],
)
def test_derivations_print_the_realization(capsys, tmp_path, source):
    if not source.startswith("catalog:"):
        path = tmp_path / "g.lie"
        path.write_text(source)
        source = str(path)
    code, human, payload = invoke(capsys, "derivations", source)
    assert code == 0
    da = derivations.derivation_algebra(cli._load_source(source))
    want = [[[str(x) for x in row] for row in m] for m in reference.matrices(da.base.dim, da.span.integer_rows)]
    assert payload["payload"]["basis"] == want and len(want) == da.dim


def test_tower_command(capsys):
    code, human, payload = invoke(capsys, "tower", "catalog:sl2_rad2")
    assert code == 0
    assert payload["payload"]["stage_dims"] == [5, 6]
    assert payload["payload"]["stabilized_at"] == 1


def test_tower_rejects_centered_algebra(capsys):
    assert run(["tower", "catalog:heisenberg3"]) == 2
    capsys.readouterr()


def test_normalizer_tower_command(capsys):
    code, human, payload = invoke(
        capsys, "normalizer-tower", "catalog:heisenberg3", "--sub", "1,0,0"
    )
    assert code == 0
    assert payload["payload"]["tower_dims"] == [1, 2, 3]
    assert payload["payload"]["self_normalizing"] is False


def test_catalog_list_and_show(capsys):
    code, human, payload = invoke(capsys, "catalog", "list")
    assert code == 0
    assert "sl2" in payload["payload"]["names"]

    code, human, payload = invoke(capsys, "catalog", "show", "heisenberg3")
    assert code == 0
    assert "bracket 0 1 2 1" in payload["payload"]["file"]


def test_catalog_show_unknown_exits_two(capsys):
    assert run(["catalog", "show", "e8"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["info", "catalog:nosuch"], "unknown catalog algebra 'nosuch'"),
        (["catalog", "show", "nosuch"], "unknown catalog algebra 'nosuch'"),
        (["info", "catalog:abelian(0)"], "abelian(n) needs n >= 1"),
        (["info", "catalog:abelian(007)"], "catalog name 'abelian(007)': write n without leading zeros"),
        (["info", "catalog:abelian(257)"], "abelian(257) exceeds the maximum dim 256"),
        (["info", "catalog:abelian(-1)"], "abelian(n) needs n >= 1"),
        (["info", "catalog:abelian(2,3)"], "unknown catalog algebra 'abelian(2,3)'"),
        # int() alone would raise ValueError past 4300 digits; the message
        # quotes the name's first 60 characters and its length, not all of it
        (["info", f"catalog:abelian({'9' * 5000})"], f"unknown catalog algebra 'abelian({'9' * 52}'... (5009 characters)"),
        # a second spelling of abelian(2), and a non-ASCII digit
        (["info", "catalog:abelian(2)\n"], "unknown catalog algebra 'abelian(2)\\n'"),
        (["info", "catalog:abelian(\u0663)"], "unknown catalog algebra 'abelian(\u0663)'"),
    ],
    ids=[
        "info unknown",
        "show unknown",
        "abelian(0)",
        "abelian(007)",
        "abelian(257)",
        "abelian(-1)",
        "abelian(2,3)",
        "abelian(5000 nines)",
        "abelian(2) newline",
        "abelian(arabic 3)",
    ],
)
def test_catalog_errors_print_the_message_unquoted(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_catalog_show_prints_no_expected_block_without_facts(capsys, monkeypatch):
    catalog.get.cache_clear()
    try:
        monkeypatch.setitem(catalog._FAMILIES, "plain", (catalog.abelian, 1, lambda n: n, None))
        code, human, payload = invoke(capsys, "catalog", "show", "plain(2)")
    finally:
        catalog.get.cache_clear()
    assert code == 0
    assert "# expected:" not in human and payload["payload"]["expected"] == {}
    assert "# expected:" in invoke(capsys, "catalog", "show", "abelian(2)")[1]


def test_verify_single_suite(capsys):
    code, human, payload = invoke(capsys, "verify", "--suite", "forms", "--seed", "3")
    assert code == 0
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses <= {"pass", "hypothesis-not-satisfied"}


def test_verify_reproducible_bit_for_bit(capsys):
    outputs = []
    for _ in range(2):
        code = run(["verify", "--suite", "radical", "--seed", "5", "--random", "12"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_abelian_above_cap_exits_two(capsys):
    assert run(["validate", "catalog:abelian(257)"]) == 2
    err = capsys.readouterr().err
    assert "abelian(257)" in err and "Traceback" not in err


def test_catalog_name_with_leading_zeros_exits_two(capsys):
    # one spelling per algebra: abelian(007) is not a second name for abelian(7)
    for argv in (["catalog", "show", "abelian(007)"], ["validate", "catalog:abelian(07)"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "leading zeros" in err and "Traceback" not in err
    assert run(["catalog", "show", "abelian(7)"]) == 0
    assert "name abelian(7)" in capsys.readouterr().out


def test_negative_tower_max_steps_exits_two(capsys):
    assert run(["tower", "catalog:sl2_rad2", "--max-steps", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--max-steps: -1 is negative" in err and "Traceback" not in err
    # zero steps is a budget like any other: sl2 is complete at stage 0
    code, _, payload = invoke(capsys, "tower", "catalog:sl2", "--max-steps", "0")
    assert code == 0 and payload["payload"]["stabilized_at"] == 0


def test_negative_verify_random_exits_two(capsys):
    assert run(["verify", "--suite", "radical", "--random", "-5"]) == 2
    err = capsys.readouterr().err
    assert "--random: -5 is negative" in err and "Traceback" not in err
    # zero random pairs leaves the fixed part of the corpus
    code, human, _ = invoke(capsys, "verify", "--suite", "radical", "--random", "0")
    assert code == 0 and "34 subideal pairs" in human


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "1_0"],
        ["verify", "--seed", "\u0663"],
        ["verify", "--seed", "+3"],
        ["verify", "--random", "1_0"],
        ["verify", "--random", "\u0663"],
        ["tower", "catalog:sl2", "--max-steps", "\u0663"],
        ["tower", "catalog:sl2", "--max-steps", "1_0"],
        ["tower", "catalog:sl2", "--max-steps", " 3"],
    ],
    ids=["seed 1_0", "seed arabic 3", "seed +3", "random 1_0", "random arabic 3",
         "max-steps arabic 3", "max-steps 1_0", "max-steps space 3"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    # the file format's digit rule: int() alone would run these as 10 and 3
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"argument {argv[-2]}: invalid " in captured.err and repr(argv[-1]) in captured.err


@pytest.mark.parametrize(
    ("argv", "kind"),
    [
        (["verify", "--seed"], "integer"),
        (["verify", "--random"], "nonnegative"),
        (["tower", "catalog:sl2", "--max-steps"], "nonnegative"),
    ],
    ids=["seed", "random", "max-steps"],
)
def test_a_refused_integer_option_is_quoted_by_the_one_rule(capsys, argv, kind):
    # argparse would echo a ValueError's text whole: 5,000 digits in the error line
    flag = argv[-1]
    for value, shown in [
        ("1_" + "9" * 5000, "'1_999999999999999999'... (5002 characters)"),
        ("1_9", "'1_9'"),
        ("\x01" * 5000, repr("\x01" * 5) + "... (5000 characters)"),
    ]:
        assert run([*argv, value]) == 2
        captured = capsys.readouterr()
        line = captured.err.splitlines()[-1]
        assert captured.out == "" and line.endswith(f"error: argument {flag}: invalid {kind} value: {shown}")
        assert len(line.encode()) < 120


def test_integer_options_keep_their_ascii_values():
    assert build_parser("verify").parse_args(["verify", "--seed", "-1"]).seed == -1
    assert build_parser("verify").parse_args(["verify", "--seed", "0"]).seed == 0
    assert build_parser("verify").parse_args(["verify", "--random", "007"]).random == 7
    assert build_parser("tower").parse_args(["tower", "s", "--max-steps", "0"]).max_steps == 0


def _usage_cases(name):
    """``name -h`` and its usage errors: a missing argument, one too many, a bad choice."""
    if name == "catalog":
        return [[name, "-h"], [name], [name, "list", "aff1", "extra"], [name, "frob"]]
    if name == "verify":
        return [[name, "-h"], [name, "extra"], [name, "--suite", "nope"]]
    sub = ["--sub", "1,0,0"] if name in ("subideal", "ideal", "normalizer-tower") else []
    return [[name, "-h"], [name], [name, "catalog:sl2", *sub, "extra"]]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_commands_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in _usage_cases(name):
        printed = []
        for parser in (build_parser(name), build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1], argv
        code, captured = printed[0]
        assert (code, bool(captured.out), bool(captured.err)) in ((0, True, False), (2, False, True))


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_a_command_builds_its_own_parser_only(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    assert invoke(capsys, "catalog", "list")[0] == 0
    assert len(built) == 2
    # a one-shot process: the command comes from sys.argv
    monkeypatch.setattr(sys, "argv", ["lieideal", "info", "catalog:sl2"])
    built.clear()
    code = run()
    payload = json.loads(capsys.readouterr().out.partition("--- machine-readable ---")[2])
    assert code == 0 and len(built) == 2
    assert payload["command"] == ["info", "catalog:sl2"] and payload["payload"]["dim"] == 3


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["-x"], ["inf", "catalog:sl2"]])
def test_usage_without_a_command_builds_every_parser(capsys, monkeypatch, argv):
    built = _count_parsers(monkeypatch)
    assert run(argv) == (0 if argv == ["-h"] else 2)
    assert len(built) == 1 + len(COMMANDS) == 11
    captured = capsys.readouterr()
    assert "{" + ",".join(COMMANDS) + "}" in captured.out + captured.err


def test_no_command_names_the_missing_argument(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([]) == 2
    assert capsys.readouterr().err.endswith("lieideal: error: the following arguments are required: command\n")
    monkeypatch.setattr(sys, "argv", ["lieideal"])
    assert run() == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")


@pytest.mark.parametrize(
    "argv", [["catalog", "show", "aff1"], ["verify", "--suite", "forms", "--seed", "0"]]
)
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the first write, as when `| head -1` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(lieideal.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lieideal.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_every_public_name_resolves_lazily():
    for name in lieideal.__all__:
        assert getattr(lieideal, name) is getattr(importlib.import_module(f"lieideal.{lieideal._HOME[name]}"), name)
    assert set(lieideal.__all__) <= set(dir(lieideal))
    with pytest.raises(AttributeError):
        lieideal.no_such_name


def test_importing_the_catalog_loads_neither_derivations_nor_transitivity():
    # the setup path: a one-shot start that reads the catalog loads only what it imports
    env = {**os.environ, "PYTHONPATH": str(Path(lieideal.__file__).resolve().parents[1])}
    probe = "import sys, lieideal.catalog; print(*sorted(m for m in sys.modules if m.startswith('lieideal')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["lieideal", "lieideal.catalog", "lieideal.exactlin", "lieideal.liealg"]
