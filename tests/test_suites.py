"""The suite runner's own contract: the runner names the suite and turns each
check's outcome into a status, checks collected before any runs give the same
results, failed checks are reported, even under -O, a run of the radical suite
solves each radical once, decides each pair once and keeps none, and the
adjoint bracket identity fails on a map that is no derivation."""

import dataclasses
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from lieideal import catalog, liealg, suites, transitivity

SRC = Path(__file__).resolve().parents[1] / "src"

# Every self-normalizing report comes back negative, so every check of the
# selfnorm suite must fail, whether or not asserts are compiled in.
SABOTAGED_SELFNORM = """
import sys
from types import SimpleNamespace
from lieideal import suites

def broken(**kwargs):
    return SimpleNamespace(self_normalizing=False, normalizer_of_h=None)

suites.check_self_normalizing_theorem = broken
statuses = [r.status for r in suites.run_suites(["selfnorm"])]
print(sys.flags.optimize, len(statuses), statuses.count("fail"))
"""


def test_runner_names_the_suite_and_assigns_every_status(monkeypatch):
    ran = []

    def four_checks(seed, min_random):
        def divide():
            ran.append("divide")
            return 1 // 0

        def fail():
            ran.append("fail")
            suites.check(False, "came out false")

        def skip():
            ran.append("skip")
            raise transitivity.HypothesisError("hypothesis does not hold")

        def succeed():
            ran.append("succeed")
            return f"seed {seed}, min_random {min_random}"

        for fn in (divide, fail, skip, succeed):
            ran.append(f"yield {fn.__name__}")
            yield fn.__name__, fn

    monkeypatch.setitem(suites.SUITES, "forms", four_checks)
    results = suites.run_suites(["forms"], seed=7, min_random=3)
    assert [r.status for r in results] == ["error", "fail", "hypothesis-not-satisfied", "pass"]
    assert results[0].detail.startswith("ZeroDivisionError: ")
    assert [r.detail for r in results[1:]] == [
        "came out false",
        "hypothesis does not hold",
        "seed 7, min_random 3",
    ]
    names = ["divide", "fail", "skip", "succeed"]
    assert [r.name for r in results] == names
    assert all(r.suite == "forms" for r in results)
    # each check ran as soon as it was yielded, the ones after the error too
    assert ran == [step for name in names for step in (f"yield {name}", name)]

    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(["nope"])


def test_checks_collected_before_any_runs_give_the_same_results(monkeypatch):
    # every check binds its instance when it is made, so a suite's pairs may
    # all be collected before the first one runs; the messages of the
    # conditions checked name the instances, which a detail line may not
    checked = []
    real = suites.check

    def recording(cond, msg):
        checked.append(msg)
        real(cond, msg)

    monkeypatch.setattr(suites, "check", recording)
    for name in suites.SUITE_NAMES:
        checked.clear()
        expected = suites.run_suites([name], seed=0)
        expected_checked = list(checked)
        pairs = list(suites.SUITES[name](0, 50))
        assert [check_name for check_name, _ in pairs] == [r.name for r in expected]
        monkeypatch.setitem(suites.SUITES, name, lambda seed, min_random, pairs=pairs: pairs)
        checked.clear()
        assert suites.run_suites([name], seed=0) == expected, name
        assert checked == expected_checked, name


def test_sabotaged_suite_fails_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_SELFNORM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    optimize, total, failed = map(int, out.split())
    assert optimize == 1
    assert total >= 10
    assert failed == total


def test_radical_suite_solves_each_radical_once(monkeypatch):
    solved = []
    real = liealg.radical

    def counting(g):
        solved.append(g)
        return real(g)

    monkeypatch.setattr(liealg, "radical", counting)
    counts = []
    for _ in range(2):
        solved.clear()
        results = suites.run_suites(["radical"], seed=0)
        assert all(r.status == "pass" for r in results)
        counts.append(len(solved))
    # one solve per subalgebra object of the corpus, its 10 zero subalgebras
    # included (sub_radical has no shortcut for them), none kept for the second run
    objects = {id(s) for _, amb, h, _ in suites.radical_corpus(0) for s in (amb, h)}
    assert counts == [85, 85] == [len(objects)] * 2
    pairs = int(results[0].detail.split()[0])  # "85 subideal pairs (seed 0)"
    assert counts[0] <= pairs

    for name in catalog.list_names():
        entry = catalog.get(name)
        for f in dataclasses.fields(entry):
            value = getattr(entry, f.name)
            held = value.values() if isinstance(value, Mapping) else (value,)
            assert not any(isinstance(v, liealg.Subalgebra) for v in held), (name, f.name)


def test_radical_suite_decides_each_pair_once(monkeypatch):
    decided = []
    real = transitivity.subideal_chain

    def counting(ambient, h):
        decided.append(h)
        return real(ambient, h)

    # suites imports the name; transitivity's own checks would call it there
    monkeypatch.setattr(suites, "subideal_chain", counting)
    monkeypatch.setattr(transitivity, "subideal_chain", counting)
    results = suites.run_suites(["radical"], seed=0)
    assert [r.status for r in results] == ["pass", "pass"]
    # every candidate of the corpus once; the two checks re-verify the kept chains
    assert len(decided) == 105
    assert results[0].detail.startswith("85 subideal pairs")


def test_adjoint_identity_fails_on_a_non_derivation(monkeypatch):
    # the swap e0 <-> e1 of heisenberg3, flattened row-major, is no derivation:
    # it sends [e0, e1] = e2 to e2, but [e1, e0] = -e2
    swap = ((1, 1), (3, 1), (8, 1))
    real = suites.derivation_algebra

    def sabotaged(g):
        da = real(g)
        if g.name != "heisenberg3":
            return da
        L, rows = da.span.integer_rows
        span = dataclasses.replace(da.span, integer_rows=(L, (swap,) + rows[1:]))
        return dataclasses.replace(da, span=span)

    monkeypatch.setattr(suites, "derivation_algebra", sabotaged)
    results = suites.run_suites(["complete"], seed=0)
    (lemma,) = [r for r in results if r.name == "adjoint bracket identity"]
    assert lemma.status == "fail"
    assert lemma.detail == "[f, ad_X] != ad_f(X) on heisenberg3"
