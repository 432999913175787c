#!/usr/bin/env python3
"""Benchmark of the lieideal command line, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-perfect --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``verify-perfect``: ``verify --suite perfect``; the suite ignores the seed.
* ``verify-decide``: ``verify`` of the suites radical, oracle, complete, forms
  and selfnorm at seeds 4S .. 4S+3.
* ``query-dense``: one-shot queries on seeded, densely rebased ``.lie`` files.

Every operation is a ``cli.run`` call in this process with its output
captured, and every answer is checked.  The derivation cache is cleared
before each simulated invocation, so every pass starts cold.  With
``--trace 0`` the passes repeat until ``--seconds`` is used up (at least
two) and the end-to-end metrics are printed, with pass and query times
calibrated to the host's speed (see hostclock.py); with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics in raw seconds.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-perfect", "verify-decide", "query-dense")
DECIDE_SUITES = ("radical", "oracle", "complete", "forms", "selfnorm")
DECIDE_SEEDS_PER_PASS = 4
MIN_PASSES = 2
SETUP_SAMPLES = 7
MARKER = "--- machine-readable ---\n"

# interpreter start until the program is ready: import plus the catalog
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from lieideal import catalog\n"
    "for name in catalog.list_names():\n"
    "    catalog.get(name)\n"
    "print('ready', flush=True)\n"
)

# payload fields that must match the reference answer, per query kind
COMPARED = {
    "validate": ("dim", "valid"),
    "info": ("dim", "dim_center", "dim_derived", "dim_radical", "perfect", "complete", "semisimple"),
    "derivations": ("dim", "dim_derivations", "dim_inner", "complete"),
    "counterexample": ("ambient_dim", "chain_dims", "verified"),
    "tower": ("stage_dims", "stabilized_at"),
    "subideal": ("subideal", "chain_dims"),
    "normalizer-tower": ("tower_dims", "self_normalizing"),
}


def call(argv: list[str]) -> tuple[int, str]:
    from lieideal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    return rc, out.getvalue()


def payload(out: str) -> dict:
    return json.loads(out.split(MARKER, 1)[1])["payload"]


class VerifyWorkload:
    def __init__(self, suites: tuple[str, ...], seeds: list[int]):
        self.invocations = [
            [["verify", "--suite", s, "--seed", str(seed)] for s in suites] for seed in seeds
        ]
        self.digests: dict[tuple[str, ...], str] = {}

    def describe(self) -> str:
        from lieideal import catalog

        algebras = [catalog.get(n).algebra for n in catalog.list_names()]
        return (
            f"{sum(map(len, self.invocations))} verify calls per pass; "
            f"inputs: sparse catalog bases, dims {[g.dim for g in algebras]}, "
            f"density {_density(algebras):.3f}"
        )

    def check(self, argv: list[str], rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        checks = json.loads(out.split(MARKER, 1)[1])["checks"]
        bad = [c["name"] for c in checks if c["status"] in ("fail", "error")]
        if bad:
            return f"checks failed: {bad}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(tuple(argv), digest) != digest:
            return "verify output differs between runs of one seed"
        return None


class QueryWorkload:
    def __init__(self, seed: int, workdir: str):
        import querygen

        self.inputs = querygen.make_inputs(seed)
        self.workdir = workdir
        for name, text in self.inputs.files.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        self.queries = {tuple(q.argv(workdir)): q for q in self.inputs.queries}
        self.invocations = [[list(argv)] for argv in self.queries]
        # reference answers on the original basis, outside every timed region
        self.references: dict[tuple[str, ...], tuple[int, str]] = {}
        for q in self.queries.values():
            ref_argv = tuple(q.argv(workdir, reference=True))
            if ref_argv not in self.references:
                clear_derivation_cache()
                self.references[ref_argv] = call(list(ref_argv))

    def describe(self) -> str:
        kinds: dict[str, int] = {}
        for q in self.inputs.queries:
            kinds[q.kind] = kinds.get(q.kind, 0) + 1
        return (
            f"{len(self.queries)} queries per pass {kinds}; inputs: rebased dims "
            f"{list(self.inputs.dims)}, density {self.inputs.density:.3f}"
        )

    def check(self, argv: list[str], rc: int, out: str) -> str | None:
        q = self.queries[tuple(argv)]
        ref_rc, ref_out = self.references[tuple(q.argv(self.workdir, reference=True))]
        return check_answer(q, rc, out, ref_rc, ref_out)


def check_answer(q, rc: int, out: str, ref_rc: int, ref_out: str) -> str | None:
    """Compare a rebased query with its reference and the frozen catalog facts."""
    facts = dict(q.facts)
    expected_rc = ref_rc
    if facts:
        refused = (q.kind == "counterexample" and facts["perfect"]) or (
            q.kind == "tower" and facts["dim_center"] > 0
        )
        expected_rc = 2 if refused else 0
        if ref_rc != expected_rc:
            return f"reference exit {ref_rc}, expected {expected_rc}"
    if rc != expected_rc:
        return f"exit {rc}, expected {expected_rc}"
    if rc == 2:
        return None
    got, ref = payload(out), payload(ref_out)
    wanted = {k: ref.get(k) for k in COMPARED[q.kind]}
    if q.kind in ("info", "derivations"):
        wanted.update({k: v for k, v in facts.items() if k in wanted})
        if facts and q.kind == "derivations":
            wanted["dim_inner"] = facts["dim"] - facts["dim_center"]
    for key, value in wanted.items():
        if got.get(key) != value:
            return f"{q.kind} {q.algebra}: {key} = {got.get(key)!r}, expected {value!r}"
    if q.kind == "validate" and not got["valid"]:
        return "rebased algebra failed validation"
    if q.kind == "counterexample" and not got["verified"]:
        return "counterexample certificate not verified"
    return None


def _density(algebras) -> float:
    nnz = sum(1 for g in algebras for plane in g.c for row in plane for v in row if v)
    return nnz / sum(g.dim ** 3 for g in algebras)


def clear_derivation_cache() -> None:
    from lieideal import derivations

    derivations.derivation_algebra.cache_clear()
    if derivations.derivation_algebra.cache_info().currsize != 0:
        raise RuntimeError("derivation cache not empty after cache_clear")


class Tally:
    """Operation outcomes and derivation-cache statistics across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.misses = 0

    def absorb_cache(self) -> None:
        from lieideal import derivations

        info = derivations.derivation_algebra.cache_info()
        self.hits += info.hits
        self.misses += info.misses


def run_pass(workload, tally: Tally, clock: HostClock | None = None) -> list[float]:
    """One pass; returns the latency of each invocation, less probe time.

    An invocation is one simulated command line: one or more ``cli.run``
    calls that share a process, and so the derivation cache.
    """
    clock = clock or HostClock()
    latencies = []
    for calls in workload.invocations:
        clear_derivation_cache()
        spent = 0.0
        for argv in calls:
            tally.attempted += 1
            probed = clock.spent
            t0 = time.perf_counter()
            try:
                rc, out = call(argv)
            except Exception as exc:  # an escaping exception is a failed operation
                problem = f"exception {exc!r}"
            else:
                problem = None
            spent += time.perf_counter() - t0 - (clock.spent - probed)
            problem = problem or workload.check(argv, rc, out)
            if problem:
                tally.failed += 1
                print(f"# failed: {argv}: {problem}", file=sys.stderr)
        latencies.append(spent)
        tally.absorb_cache()
    return latencies


def setup_seconds(samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return statistics.median(times)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seconds: float, tally: Tally) -> dict:
    raw: list[float] = []
    passes: list[float] = []
    queries: list[float] = []
    start = time.perf_counter()
    with HostClock() as clock:
        while len(raw) < MIN_PASSES or time.perf_counter() - start + statistics.median(raw) <= seconds:
            first = len(clock.samples)
            lat = run_pass(workload, tally, clock)
            scale = clock.scale(first)
            raw.append(sum(lat))
            passes.append(sum(lat) * scale)
            queries.extend(x * scale for x in lat)
    print(
        f"# {len(passes)} passes, {len(queries)} query samples, {len(clock.samples)} probes; "
        f"raw pass s {[round(x, 3) for x in raw]}, calibrated {[round(x, 3) for x in passes]}",
        file=sys.stderr,
    )
    return {
        "wall_s": (statistics.median(passes), "s"),
        "query_p50_ms": (percentile(queries, 50) * 1000, "ms"),
        "query_p90_ms": (percentile(queries, 90) * 1000, "ms"),
    }


def traced_metrics(workload, tally: Tally) -> dict:
    untraced = sum(run_pass(workload, tally))
    tracer = tracing.Tracer()
    tracer.install()
    cache = Tally()
    try:
        traced = sum(run_pass(workload, cache))
    finally:
        tracer.uninstall()
    tally.attempted += cache.attempted
    tally.failed += cache.failed
    return layer_metrics(tracer, cache, traced, untraced)


def layer_metrics(tracer, cache: Tally, traced: float, untraced: float) -> dict:
    s = tracer.stat
    ech = s("exactlin.Echelon.add")
    da = s("derivations.derivation_algebra")
    lookups = cache.hits + cache.misses
    m = {
        "exactlin.self_s": (tracer.layer_self_s("exactlin"), "s"),
        "exactlin.echelon_add.calls": (ech.calls, "count"),
        "exactlin.echelon_add.useful_ratio": (ech.useful / ech.calls if ech.calls else 0.0, "ratio"),
        "exactlin.subspace_span.calls": (s("exactlin.Subspace.span").calls, "count"),
        "exactlin.subspace_span.self_s": (s("exactlin.Subspace.span").self_s, "s"),
        "exactlin.residual.calls": (s("exactlin.Subspace.residual").calls, "count"),
        "exactlin.mat_mul.calls": (s("exactlin.Mat.__mul__").calls, "count"),
        "exactlin.mat_mul.self_s": (s("exactlin.Mat.__mul__").self_s, "s"),
        "liealg.self_s": (tracer.layer_self_s("liealg"), "s"),
        "liealg.bracket.calls": (s("liealg.LieAlgebra.bracket").calls, "count"),
        "liealg.bracket_spaces.calls": (s("liealg.bracket_spaces").calls, "count"),
        "liealg.subalgebra_init.calls": (s("liealg.Subalgebra.__init__").calls, "count"),
        "liealg.subalgebra_init.self_s": (s("liealg.Subalgebra.__init__").self_s, "s"),
        "liealg.validate.calls": (s("liealg.validate").calls, "count"),
        "liealg.validate.self_s": (s("liealg.validate").self_s, "s"),
        "liealg.radical.self_s": (s("liealg.radical").self_s, "s"),
        "derivations.self_s": (tracer.layer_self_s("derivations"), "s"),
        "derivations.derivation_algebra.hits": (cache.hits, "count"),
        "derivations.derivation_algebra.misses": (cache.misses, "count"),
        "derivations.derivation_algebra.hit_ratio": (cache.hits / lookups if lookups else 0.0, "ratio"),
        "derivations.derivation_algebra.miss_s": (da.miss_s, "s"),
        "derivations.holomorph.calls": (s("derivations.holomorph").calls, "count"),
        "derivations.is_characteristic.inclusive_s": (s("derivations.is_characteristic").inclusive_s, "s"),
        "transitivity.self_s": (tracer.layer_self_s("transitivity"), "s"),
        "transitivity.subideal_chain.calls": (s("transitivity.subideal_chain").calls, "count"),
        "transitivity.subideal_chain.inclusive_s": (s("transitivity.subideal_chain").inclusive_s, "s"),
        "transitivity.ideal_closure.calls": (s("transitivity.ideal_closure").calls, "count"),
        "transitivity.subideal_oracle.inclusive_s": (s("transitivity.subideal_oracle").inclusive_s, "s"),
        "transitivity.counterexample_extension.inclusive_s": (
            s("transitivity.counterexample_extension").inclusive_s,
            "s",
        ),
        "suites.self_s": (tracer.layer_self_s("suites"), "s"),
        "suites.corpus.inclusive_s": (tracer.groups["suites.corpus"].inclusive_s, "s"),
        "catalog.self_s": (tracer.layer_self_s("catalog"), "s"),
        "catalog.load.calls": (s("catalog.load").calls, "count"),
        "catalog.load.self_s": (s("catalog.load").self_s, "s"),
        "cli.self_s": (tracer.layer_self_s("cli"), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.unattributed_s": (traced - sum(map(tracer.layer_self_s, tracing.LAYERS)), "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = (tracer.layer_self_s(layer) / traced, "ratio")
    return m


def make_workload(name: str, seed: int, workdir: str):
    if name == "verify-perfect":
        return VerifyWorkload(("perfect",), [seed])
    if name == "verify-decide":
        first = seed * DECIDE_SEEDS_PER_PASS
        return VerifyWorkload(DECIDE_SUITES, list(range(first, first + DECIDE_SEEDS_PER_PASS)))
    return QueryWorkload(seed, workdir)


def collect(workload, seconds: float, trace: bool) -> dict:
    tally = Tally()
    if trace:
        metrics = traced_metrics(workload, tally)
    else:
        metrics = measure(workload, seconds, tally)
        metrics["setup_s"] = (setup_seconds(SETUP_SAMPLES), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = make_workload(name, seed, workdir)
        print(f"# {name} seed {seed}: {workload.describe()}", file=sys.stderr)
        return collect(workload, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lieideal" / "__init__.py").is_file():
        print(f"error: no lieideal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lieideal

    if Path(lieideal.__file__).resolve().parent != SRC / "lieideal":
        print(f"error: imported lieideal from {lieideal.__file__}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
