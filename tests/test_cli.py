import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lieideal
from lieideal import catalog
from lieideal.cli import run
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


def test_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.lie"
    path.write_text("dim 3\nbracket 0 1 2 1\nbracket 0 2 0 1\n")
    code = run(["validate", str(path)])
    assert code == 2
    assert "(0, 1, 2)" in capsys.readouterr().err


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


def test_dim_above_cap_in_file_exits_two(capsys, tmp_path):
    path = tmp_path / "big.lie"
    path.write_text("dim 257\nbracket 0 1 2 1\n")
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
    ],
    ids=["info unknown", "show unknown", "abelian(0)", "abelian(007)"],
)
def test_catalog_errors_print_the_message_unquoted(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


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
