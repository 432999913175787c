"""The suite runner's own contract: failed checks are reported, even under -O,
and a run of the radical suite solves each radical once and keeps none."""

import dataclasses
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

from lieideal import catalog, liealg, suites

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
statuses = [r.status for r in suites.suite_selfnorm()]
print(sys.flags.optimize, len(statuses), statuses.count("fail"))
"""


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
        results = suites.suite_radical(0)
        assert all(r.status == "pass" for r in results)
        counts.append(len(solved))
    # one solve per subalgebra object of the corpus, none kept for the second run
    assert counts == [75, 75]
    pairs = int(results[0].detail.split()[0])  # "85 subideal pairs (seed 0)"
    assert counts[0] <= pairs

    for name in catalog.list_names():
        entry = catalog.get(name)
        for f in dataclasses.fields(entry):
            value = getattr(entry, f.name)
            held = value.values() if isinstance(value, Mapping) else (value,)
            assert not any(isinstance(v, liealg.Subalgebra) for v in held), (name, f.name)
