import dataclasses
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lieideal import catalog
from lieideal.exactlin import Subspace
from lieideal.derivations import derivation_algebra, is_complete
from lieideal.liealg import (
    LieAlgebra,
    center,
    derived_subalgebra,
    full_subalgebra,
    is_perfect,
    radical,
    validate,
)


def test_list_names_all_load():
    for name in catalog.list_names():
        entry = catalog.get(name)
        assert entry.name == name
        assert validate(entry.algebra).ok


def test_unknown_name_raises():
    with pytest.raises(catalog.CatalogError):
        catalog.get("e8")


def test_abelian_parametric():
    assert catalog.get("abelian(4)").algebra.dim == 4
    with pytest.raises(catalog.CatalogError):
        catalog.abelian(0)
    # capped like a file's dim, before anything is built
    assert catalog.abelian(catalog.MAX_DIM).dim == catalog.MAX_DIM
    with pytest.raises(catalog.CatalogError):
        catalog.abelian(catalog.MAX_DIM + 1)
    with pytest.raises(catalog.CatalogError):
        catalog.get(f"abelian({catalog.MAX_DIM + 1})")


# abelian(5), (8) and (16) are family members outside `catalog list`
@pytest.mark.parametrize("name", catalog.list_names() + ["abelian(5)", "abelian(8)", "abelian(16)"])
def test_expected_facts_recompute(name):
    # goldens are regression locks; every one must re-derive
    entry = catalog.get(name)
    g = entry.algebra
    expected = entry.expected
    full = full_subalgebra(g)
    assert expected["dim"] == g.dim
    assert expected["dim_center"] == center(g).dim
    assert expected["dim_derived"] == derived_subalgebra(full).dim
    assert expected["dim_radical"] == radical(g).dim
    assert expected["dim_derivations"] == derivation_algebra(g).dim
    assert expected["perfect"] == is_perfect(full)
    assert expected["complete"] == is_complete(g)
    assert expected["semisimple"] == (radical(g).dim == 0)


@pytest.mark.parametrize(
    "name",
    [
        "abelian(2)\n",  # a second spelling of abelian(2)
        "abelian(\u0663)",  # an Arabic-Indic three
        "abelian(\uff13)",  # a fullwidth three
        "abelian(2,3)",
        "abelian()",
        "abelian(+2)",
        "abelian(-0)",
        "abelian(" + "9" * 5000 + ")",  # past int()'s 4300 digits
    ],
    ids=["newline", "arabic", "fullwidth", "arity", "empty", "plus", "minus zero", "5000 digits"],
)
def test_malformed_family_names_raise(name):
    with pytest.raises(catalog.CatalogError):
        catalog.get(name)


def test_an_unknown_name_is_quoted_to_a_bounded_length():
    # the quoted form is at most 62 bytes: repr writes \x00 as four and UTF-8 é as two
    for name, shown in [
        ("x" * 60, repr("x" * 60)),
        ("x" * 61, repr("x" * 60) + "... (61 characters)"),
        ("\x00" * 5000, repr("\x00" * 15) + "... (5000 characters)"),
        ("\xe9" * 5000, repr("\xe9" * 30) + "... (5000 characters)"),
        ("\xe9" * 30, repr("\xe9" * 30)),
        ("\xe9" * 31, repr("\xe9" * 30) + "... (31 characters)"),
    ]:
        with pytest.raises(catalog.CatalogError) as err:
            catalog.get(name)
        assert str(err.value) == f"unknown catalog algebra {shown}"
        assert len(str(err.value).encode()) <= 120


def test_a_row_wins_over_a_family_member(monkeypatch):
    # upper_triangular(3) is a row; a family of that name must not replace it
    row = catalog.get("upper_triangular(3)")
    catalog.get.cache_clear()
    try:
        monkeypatch.setitem(catalog._FAMILIES, "upper_triangular", (catalog.abelian, 1, lambda n: n, None))
        entry = catalog.get("upper_triangular(3)")
        assert entry.algebra.c == row.algebra.c
        assert dict(entry.tagged_subalgebras) == dict(row.tagged_subalgebras)
        assert dict(entry.expected) == dict(row.expected)
        # other members come from the family
        assert catalog.get("upper_triangular(4)").algebra.dim == 4
    finally:
        catalog.get.cache_clear()


def test_a_family_without_facts_expects_nothing(monkeypatch):
    catalog.get.cache_clear()
    try:
        monkeypatch.setitem(catalog._FAMILIES, "plain", (catalog.abelian, 1, lambda n: n, None))
        entry = catalog.get("plain(2)")
        assert entry.name == "plain(2)" and entry.algebra.dim == 2
        assert dict(entry.expected) == {}
        # the dim is capped before the builder runs
        monkeypatch.setitem(catalog._FAMILIES, "huge", (pytest.fail, 1, lambda n: n * n, None))
        with pytest.raises(catalog.CatalogError, match="^huge\\(17\\) exceeds the maximum dim 256$"):
            catalog.get("huge(17)")
    finally:
        catalog.get.cache_clear()


def test_tagged_subalgebras_are_closed():
    from lieideal.liealg import Subalgebra

    for name in catalog.list_names():
        entry = catalog.get(name)
        for tag, space in entry.tagged_subalgebras.items():
            Subalgebra(entry.algebra, space)  # raises if not closed


# --- file format ------------------------------------------------------------


def test_roundtrip_every_catalog_entry(tmp_path):
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        path = tmp_path / f"{name.replace('(', '_').replace(')', '')}.lie"
        catalog.save(g, str(path))
        loaded = catalog.load(str(path))
        assert loaded.c == g.c
        assert loaded.name == g.name


def test_single_bracket_file_is_heisenberg():
    g = catalog.loads("dim 3\nbracket 0 1 2 1\n")
    assert g.c == catalog.get("heisenberg3").algebra.c


def test_rational_values_roundtrip():
    text = "dim 2\nbracket 0 1 1 -3/2\n"
    g = catalog.loads(text)
    assert str(g.c[0][1][1]) == "-3/2"
    assert catalog.dumps(g) == text


def querygen():
    """perfbench/querygen.py, the generator of the query-dense workload's dense rational files."""
    spec = importlib.util.spec_from_file_location(
        "querygen", Path(__file__).resolve().parents[1] / "perfbench" / "querygen.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def fraction_loads(text):
    """A valid file read with Fraction values and LieAlgebra.from_brackets."""
    dim, name, brackets = None, None, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("dim "):
            dim = int(line.split()[1])
        elif line.startswith("name "):
            name = line.split(None, 1)[1]
        elif line:
            i, j, k, v = line.split()[1:]
            brackets.setdefault((int(i), int(j)), {})[int(k)] = Fraction(v)
    return LieAlgebra.from_brackets(dim, brackets, name=name)


def test_loads_stores_what_from_brackets_stores():
    texts = [catalog.dumps(catalog.get(name).algebra) for name in catalog.list_names()]
    gen = querygen()
    dense = [text for seed in range(4) for text in gen.make_inputs(seed).files.values()]
    assert len(dense) == 280 and sum("/" in text for text in dense) > 80
    # values not in lowest terms, a zero over 5, and one pair's row over mixed denominators
    texts += dense + [
        "dim 3\nbracket 0 1 2 2/4\n",
        "dim 3\nname odd\nbracket 0 1 0 -6/4\nbracket 0 1 1 0/5\nbracket 0 1 2 10/4\n",
        "dim 4\nbracket 1 3 0 -0\nbracket 1 3 2 7/21\nbracket 1 3 3 -5/6\n",
    ]
    for text in texts:
        got, want = catalog.loads(text), fraction_loads(text)
        assert got.integer_constants == want.integer_constants and got.name == want.name, text


def test_comments_and_blank_lines():
    g = catalog.loads("# a comment\n\ndim 2\nname demo\nbracket 0 1 1 1  # inline\n")
    assert g.name == "demo"
    assert g.dim == 2


def test_non_jacobi_file_rejected_with_triple():
    text = "dim 3\nbracket 0 1 2 1\nbracket 0 2 0 1\n"
    with pytest.raises(catalog.ParseError) as exc:
        catalog.loads(text)
    assert "(0, 1, 2)" in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(catalog.ParseError) as exc:
        catalog.loads("dim 2\nbracket 0 1 1\n")
    assert exc.value.line == 2
    # superscript two passes str.isdigit; 1e999999999 would build 10^999999999
    # (1e5000 comes first, so a missing bound fails here instead of hanging)
    for text, line in (
        ("dim \u00b2\n", 1),
        ("dim 3\nbracket 0 1 2 1e5000\n", 2),
        ("dim 3\nbracket 0 1 2 1e999999999\n", 2),
        # int() reads these indices as 10 and 3
        ("dim 12\nbracket 0 1 1_0 1\n", 2),
        ("dim 12\nbracket 0 1 \u0663 1\n", 2),
        # Fraction reads these literals as 3, and refuses 3/ as the int() path must
        ("dim 3\nbracket 0 1 2 \u0663\n", 2),
        ("dim 3\nbracket 0 1 2 \uff13\n", 2),
        ("dim 3\nbracket 0 1 2 3/\n", 2),
    ):
        with pytest.raises(catalog.ParseError) as exc:
            catalog.loads(text)
        assert exc.value.line == line


def test_lower_triangle_entries_forbidden():
    with pytest.raises(catalog.ParseError):
        catalog.loads("dim 2\nbracket 1 0 0 1\n")


def test_duplicate_entry_rejected():
    with pytest.raises(catalog.ParseError):
        catalog.loads("dim 2\nbracket 0 1 1 1\nbracket 0 1 1 2\n")


def test_duplicate_fields_rejected_at_the_second():
    # a second name would otherwise replace the first without a word
    for text, message in (
        ("dim 2\nname a\nname b\nbracket 0 1 1 1\n", "line 3: duplicate name field"),
        ("dim 2\ndim 2\n", "line 2: duplicate dim field"),
    ):
        with pytest.raises(catalog.ParseError, match=f"^{message}$"):
            catalog.loads(text)


def test_unknown_field_rejected():
    with pytest.raises(catalog.ParseError):
        catalog.loads("dim 2\nflavor strange\n")


def test_missing_dim_rejected():
    with pytest.raises(catalog.ParseError):
        catalog.loads("name nothing\n")


def test_bracket_before_dim_rejected():
    with pytest.raises(catalog.ParseError):
        catalog.loads("bracket 0 1 1 1\ndim 2\n")


def test_index_out_of_range_rejected():
    with pytest.raises(catalog.ParseError):
        catalog.loads("dim 2\nbracket 0 1 5 1\n")


def test_oversized_integers_rejected_before_int():
    # int() raises ValueError past 4300 digits; the bound comes first
    nines = "9" * 5000
    for text, line in (
        (f"dim {nines}\n", 1),
        (f"dim 3\nbracket 0 1 {nines} 1\n", 2),
        (f"dim 3\nbracket {nines} 1 2 1\n", 2),
    ):
        with pytest.raises(catalog.ParseError) as exc:
            catalog.loads(text)
        assert exc.value.line == line


def test_leading_zeros_in_file_integers_still_load():
    zeros = "0" * 5000
    g = catalog.loads(f"dim 0003\nbracket 000 001 {zeros}2 1\n")
    assert g.c == catalog.get("heisenberg3").algebra.c


def test_dim_above_cap_rejected_at_its_line():
    with pytest.raises(catalog.ParseError) as exc:
        catalog.loads("name big\ndim 257\nbracket 0 1 2 1\n")
    assert exc.value.line == 2
    assert catalog.MAX_DIM == 256


def test_cached_entries_are_frozen():
    entry = catalog.get("sl2")
    with pytest.raises(TypeError):
        entry.tagged_subalgebras["cartan"] = Subspace.zero(3)
    with pytest.raises(TypeError):
        entry.expected["dim"] = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.expected = {}
    again = catalog.get("sl2")
    assert again.expected["dim"] == 3
    assert again.tagged_subalgebras["cartan"] == Subspace.span(3, [[1, 0, 0]])


def test_expected_keys_are_the_facts_in_order():
    for name in catalog.list_names():
        assert tuple(catalog.get(name).expected) == catalog.FACTS


def test_list_names_has_no_duplicates():
    names = catalog.list_names()
    assert len(set(names)) == len(names)
