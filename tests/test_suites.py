"""The suite runner's own contract: the runner names the suite and turns each
check's outcome into a status, checks collected before any runs give the same
results, failed checks are reported, even under -O, a run of the radical suite
solves each radical once, decides each pair once and keeps none, the seeded
random draws are the ones built one by one before the dimension window, the
adjoint bracket identity fails on a map that is no derivation, and each
criterion whose conclusion fails raises TheoremViolationError, which its
suite check reports as a fail."""

import dataclasses
import hashlib
import operator
import os
import random
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from lieideal import catalog, derivations, liealg, suites, transitivity
from lieideal.exactlin import Subspace
from lieideal.liealg import Subalgebra, TheoremViolationError, direct_sum, full_subalgebra

SRC = Path(__file__).resolve().parents[1] / "src"

# No normalizer is self-normalizing, so every check of the selfnorm suite
# whose hypotheses verify must fail, and the tag coverage with them, whether or
# not asserts are compiled in; the expected skip stops at its hypothesis.
SABOTAGED_SELFNORM = """
import sys
from lieideal import suites, transitivity

transitivity.is_self_normalizing = lambda g, h: False
statuses = [r.status for r in suites.run_suites(["selfnorm"])]
skipped = statuses.count("hypothesis-not-satisfied")
print(sys.flags.optimize, len(statuses), statuses.count("fail"), skipped)
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
    optimize, total, failed, skipped = map(int, out.split())
    assert optimize == 1
    assert total >= 10
    assert (failed, skipped) == (total - 1, 1)


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


def _draws_building_every_one(seed, count, attempts, accept):
    """_draws with no dimension window: each draw built and validated, accept alone choosing."""
    rng = random.Random(seed)
    found = []
    for _ in range(attempts):
        if len(found) == count:
            break
        g = transitivity.random_solvable_algebra(rng, matrix_size=3, generators=2)
        if accept(g):
            found.append((f"random_solvable_{len(found)}(dim {g.dim})", g))
    return found


def _labelled_constants(draws):
    return [(label, g.integer_constants) for label, g in draws]


# sha256 of the repr of (label, integer_constants) of the oracle's draws and
# then the tower corpus's, seed by seed over 0-7, before the dimension window
DRAWS_DIGEST = "703833fd35f182cfd5bcdb4df86f9e172301bbef9e80273f9a760892453b208e"


def test_draws_in_a_window_are_the_draws_built_one_by_one(monkeypatch):
    built = []
    real = suites.closure_algebra

    def counting(space, bracket):
        built.append(space.dim)
        return real(space, bracket)

    monkeypatch.setattr(suites, "closure_algebra", counting)
    digest = hashlib.sha256()
    for seed in range(8):
        built.clear()
        oracle = suites._draws(seed, 3, 100, range(1, 4))
        assert _labelled_constants(oracle) == _labelled_constants(
            _draws_building_every_one(seed, 3, 100, lambda g: 1 <= g.dim <= 3)
        )
        # only the draws inside the window are built, so every one built is kept
        assert built == [g.dim for _, g in oracle]
        built.clear()
        tower = [(label, g) for label, g in suites.tower_corpus(seed) if label.startswith("random_solvable")]

        def centerless_small(g):
            return 2 <= g.dim <= 6 and liealg.center(g).dim == 0 and derivations.derivation_algebra(g).dim <= 12

        assert _labelled_constants(tower) == _labelled_constants(
            _draws_building_every_one(seed, 2, 200, centerless_small)
        )
        assert all(2 <= dim <= 6 for dim in built)
        for label, g in oracle + tower:
            digest.update(repr((label, g.integer_constants)).encode())
    assert digest.hexdigest() == DRAWS_DIGEST


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


def _wrong_in(caller, real, wrong):
    """real, except that a call made from the function named caller returns wrong(value)."""

    def patched(*args):
        value = real(*args)
        return wrong(value) if sys._getframe(1).f_code.co_name == caller else value

    return patched


def _other_space(space):
    return Subspace.full(space.ambient_dim) if space.dim == 0 else Subspace.zero(space.ambient_dim)


def _perfect_in_itself():
    g = catalog.get("sl2").algebra
    transitivity.check_perfect_transitivity(g, full_subalgebra(g))


def _complete_in_holomorph():
    aff1 = catalog.get("aff1").algebra
    g, h, k = suites._nested(aff1, aff1, derivations.holomorph)
    transitivity.check_complete_subideal(h, k, g)


def _decided_x_line(criterion):
    def run():
        heis = catalog.get("heisenberg3").algebra
        h = Subalgebra(heis, Subspace.span(3, [[1, 0, 0]]))
        criterion(heis, h, transitivity.subideal_chain(heis, h).chain)

    return run


def _axis_of_so3():
    entry = catalog.get("so3")
    g = entry.algebra
    h, form = Subalgebra(g, entry.tagged_subalgebras["axis"]), entry.tagged_forms["minus_killing"]
    transitivity.check_skew_form_criterion(g, form, h, full_subalgebra(g))


def _sl2_in_itself_by_cartan():
    entry = catalog.get("sl2")
    g, theta = entry.algebra, entry.tagged_maps["cartan_involution"]
    transitivity.check_cartan_criterion(g, theta, full_subalgebra(g), full_subalgebra(g))


def _sl2_factor_normalizer():
    g, e1, _ = direct_sum(catalog.get("sl2").algebra, catalog.abelian(1))
    transitivity.check_self_normalizing_theorem(g, Subalgebra(g, e1.image()), "perfect")


def _derived_tower_of_sl2():
    derivations.theorem_derived_check(catalog.get("sl2").algebra)


# both equivalence criteria end in _subideal_iff_ideal
FORMS_CHECKS = ("definite form", "cartan eigenspaces [sl2]", "cartan criterion")

# (module, predicate, the function whose call to it gives a wrong answer, the
# wrong answer, a call of a criterion that reads it, suite, the checks that
# reach the wrong answer); the predicate reads the criterion's conclusion
VIOLATIONS = {
    "perfect transitivity": (
        transitivity, "is_ideal", "check_perfect_transitivity", operator.not_,
        _perfect_in_itself, "perfect", ("forward transitivity",),
    ),
    "complete subideal": (
        transitivity, "subspace_sum", "check_complete_subideal", _other_space,
        _complete_in_holomorph, "complete", ("complete subideals",),
    ),
    "radical intersection": (
        transitivity, "intersect", "check_radical_intersection", _other_space,
        _decided_x_line(transitivity.check_radical_intersection), "radical",
        ("radical intersection",),
    ),
    "levi criterion": (
        transitivity, "is_ideal", "levi_criterion", operator.not_,
        _decided_x_line(transitivity.levi_criterion), "radical", ("radical ideal criteria",),
    ),
    "definite form": (
        transitivity, "is_ideal", "_subideal_iff_ideal", operator.not_,
        _axis_of_so3, "forms", FORMS_CHECKS,
    ),
    "cartan eigenspace": (
        transitivity, "is_ideal", "_subideal_iff_ideal", operator.not_,
        _sl2_in_itself_by_cartan, "forms", FORMS_CHECKS,
    ),
    "self-normalizing": (
        transitivity, "is_self_normalizing", "check_self_normalizing_theorem", operator.not_,
        _sl2_factor_normalizer, "selfnorm", ("self-normalizing", "hypothesis tag coverage"),
    ),
    "derivation tower": (
        derivations, "is_ideal", "theorem_derived_check", operator.not_,
        _derived_tower_of_sl2, "complete", ("derivation tower",),
    ),
}


@pytest.mark.parametrize("case", VIOLATIONS)
def test_a_failed_conclusion_raises_and_fails_its_check(monkeypatch, case):
    module, predicate, caller, wrong, criterion, suite, checks = VIOLATIONS[case]
    monkeypatch.setattr(module, predicate, _wrong_in(caller, getattr(module, predicate), wrong))
    with pytest.raises(TheoremViolationError):
        criterion()
    results = suites.run_suites([suite], seed=0, min_random=5)
    # the checks that reach the wrong answer fail, or skip on a failed
    # hypothesis first; every other check of the suite is untouched
    reached = [r for r in results if r.name.startswith(checks)]
    assert any(r.status == "fail" for r in reached)
    assert all(r.status in ("fail", "hypothesis-not-satisfied") for r in reached)
    assert all(r.ok for r in results if not r.name.startswith(checks))
