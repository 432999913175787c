"""The suite runner's own contract: failed checks are reported, even under -O."""

import os
import subprocess
import sys
from pathlib import Path

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
