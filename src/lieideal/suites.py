"""Theorem-verification corpora and the named acceptance suites.

Each suite checks a deterministic corpus (catalog algebras, constructed
extensions, and seeded random solvable algebras).  A suite is a generator
``suite_X(seed, min_random)`` of (check name, check) pairs; a check is a
callable that returns its detail line or raises.  Only the runner,
run_suites, names the suite and assigns statuses: it runs each check as
soon as it is yielded and turns HypothesisError, a failed check and any
other exception into a CheckResult.  An exception raised while a suite
builds its corpus, outside every check, propagates out of the runner.
A theorem check calls its criterion and reads the evidence returned: the
criterion itself raises TheoremViolationError, an AssertionError that the
runner reports as a fail, when its conclusion does not hold, so no check
re-tests what a criterion has already raised on.
Suites:

  perfect   - perfect subideals are ideals (with chains); constructive
              counterexamples for every non-perfect catalog algebra;
              characteristic-ideal consequences
  complete  - derivation-tower theorem, the bracket identity
              [f, ad_X] = ad_{f(X)}, complete subideals with centerless middle
  radical   - r_h = r_g /\\ h and the three-way radical criterion on a
              randomized corpus of subideal pairs
  forms     - definite-form and Cartan-eigenspace criteria, with
              hypothesis-failure cases reported as skips
  selfnorm  - self-normalizing normalizers under each hypothesis tag
  oracle    - exhaustive small-dimension cross-check of the subideal
              decision, and frozen derivation-algebra dimensions
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .derivations import (
    derivation_algebra,
    derivation_tower,
    holomorph,
    is_characteristic,
    theorem_derived_check,
)
from .exactlin import Commutator, Mat, Subspace
from .liealg import (
    LieAlgebra,
    LinMap,
    Subalgebra,
    SymForm,
    bracket_spaces,
    center,
    direct_sum,
    full_subalgebra,
    generated_subalgebra,
    is_ideal,
    sub_radical,
)
from .transitivity import (
    HypothesisError,
    IdealChain,
    check_cartan_criterion,
    check_complete_subideal,
    check_perfect_transitivity,
    check_radical_intersection,
    check_self_normalizing_theorem,
    check_skew_form_criterion,
    cartan_eigenspaces,
    counterexample_extension,
    closure_algebra,
    enumerate_grid_subalgebras,
    grid_subspaces,
    levi_criterion,
    random_matrix_closure,
    random_solvable_algebra,
    subideal_chain,
    subideal_oracle,
)


# what a suite yields: (check name, check), the check returning its detail line
Checks = Iterator[tuple[str, Callable[[], "str | None"]]]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str  # pass | fail | hypothesis-not-satisfied | error
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "hypothesis-not-satisfied")


class CheckFailure(AssertionError):
    """A suite check came out false."""


def check(cond: object, msg: str) -> None:
    """Fail the current check unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise CheckFailure(msg)


def expect(should_hold: bool, criterion):
    """Return criterion()'s evidence; fail unless its hypotheses held exactly when
    should_hold.  A HypothesisError that was expected is re-raised, so the
    runner reports it as hypothesis-not-satisfied."""
    try:
        evidence = criterion()
    except HypothesisError:
        check(not should_hold, "hypotheses unexpectedly failed")
        raise
    check(should_hold, "hypotheses unexpectedly verified")
    return evidence


def _run_check(suite: str, name: str, fn) -> CheckResult:
    try:
        detail = fn()
    except HypothesisError as exc:
        return CheckResult(suite, name, "hypothesis-not-satisfied", str(exc))
    except AssertionError as exc:
        return CheckResult(suite, name, "fail", str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return CheckResult(suite, name, "error", f"{type(exc).__name__}: {exc}")
    return CheckResult(suite, name, "pass", detail or "")


# ---------------------------------------------------------------------------
# corpus construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainInstance:
    """An embedding h <| k <| g with both subalgebras in g's coordinates."""

    label: str
    g: LieAlgebra
    h_sub: Subalgebra
    k_sub: Subalgebra


def _nested(h: LieAlgebra, partner: LieAlgebra, extend) -> tuple[LieAlgebra, Subalgebra, Subalgebra]:
    """(g, h, k) for k = h + partner and (g, emb_k, _) = extend(k), with h and
    k as subalgebras of g."""
    k, emb_h, _ = direct_sum(h, partner)
    g, emb_k, _ = extend(k)
    return g, Subalgebra(g, emb_k.compose(emb_h).image()), Subalgebra(g, emb_k.image())


def _draws(
    seed: int, count: int, attempts: int, dims: range, accept=lambda g: True
) -> list[tuple[str, LieAlgebra]]:
    """The first count labelled random solvable algebras with dim in dims that accept keeps,
    from at most attempts draws of random.Random(seed).

    A draw's closure is spanned first, and only one whose dimension lies in
    dims is built and validated as an algebra: the draws outside the window,
    most of them for the oracle's 1-3, cost their span alone.
    """
    rng = random.Random(seed)
    found: list[tuple[str, LieAlgebra]] = []
    for _ in range(attempts):
        if len(found) == count:
            break
        space, bracket = random_matrix_closure(rng, matrix_size=3, generators=2)
        if space.dim in dims and accept(g := closure_algebra(space, bracket)):
            found.append((f"random_solvable_{len(found)}(dim {g.dim})", g))
    return found


def perfect_specimens() -> dict[str, LieAlgebra]:
    sl2 = catalog.get("sl2").algebra
    so3 = catalog.get("so3").algebra
    mixed, _, _ = direct_sum(sl2, so3)
    return {
        "sl2": sl2,
        "so3": so3,
        "sl2_rad2": catalog.get("sl2_rad2").algebra,
        "sl2_sum_so3": mixed,
    }


_HOLOMORPH_PARTNERS = ("abelian(1)", "abelian(2)", "aff1", "heisenberg3", "sl2")

_SUM_PARTNERS = (
    ("abelian(1)", "abelian(1)"),
    ("abelian(1)", "aff1"),
    ("abelian(2)", "abelian(1)"),
    ("abelian(2)", "sl2"),
    ("abelian(3)", "aff1"),
    ("aff1", "abelian(1)"),
    ("aff1", "aff1"),
    ("aff1", "so3"),
    ("heisenberg3", "abelian(1)"),
    ("heisenberg3", "aff1"),
    ("sl2", "abelian(1)"),
    ("sl2", "so3"),
    ("so3", "abelian(2)"),
    ("gl2", "abelian(1)"),
    ("sl2_rad2", "aff1"),
)


def chain_instances(h_label: str, h: LieAlgebra) -> list[ChainInstance]:
    """At least twenty embeddings h <| k <| g for a perfect specimen h.

    k is h plus a catalog partner; g is either the holomorph of k or a
    further direct sum.
    """
    out = []
    for pname in _HOLOMORPH_PARTNERS:
        nested = _nested(h, catalog.get(pname).algebra, holomorph)
        out.append(ChainInstance(f"{h_label} in H({h_label}+{pname})", *nested))
    for p1name, p2name in _SUM_PARTNERS:
        p2 = catalog.get(p2name).algebra
        nested = _nested(h, catalog.get(p1name).algebra, lambda k: direct_sum(k, p2))
        out.append(ChainInstance(f"{h_label} in ({h_label}+{p1name})+{p2name}", *nested))
    return out


NON_PERFECT_NAMES = (
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "abelian(4)",
    "heisenberg3",
    "aff1",
    "upper_triangular(3)",
)


def radical_corpus(
    seed: int, min_random: int = 50
) -> list[tuple[str, Subalgebra, Subalgebra, IdealChain]]:
    """(label, ambient Subalgebra, h, chain) quadruples: catalog pairs plus randomized instances.

    chain is the verified h <| ... <| ambient that decided the pair, kept so
    the checks re-verify it instead of deciding again.  Every pair of one
    algebra shares one full_subalgebra as its ambient, and the "full"
    candidate is that same object, so each radical is solved once.
    """
    pairs: list[tuple[str, Subalgebra, Subalgebra, IdealChain]] = []

    def add_subideals(prefix: str, amb: Subalgebra, candidates) -> int:
        """Add each first-seen (tag, space) candidate that is a subideal of amb; count them."""
        added = 0
        seen: set[Subspace] = set()
        for tag, space in candidates:
            if space in seen:
                continue
            seen.add(space)
            if space == amb.space:
                h = amb
            else:
                try:
                    h = Subalgebra(amb.parent, space)
                except ValueError:
                    continue
            verdict = subideal_chain(amb, h)
            if verdict:
                pairs.append((f"{prefix}:{tag}", amb, h, verdict.chain))
                added += 1
        return added

    for name in catalog.list_names():
        entry = catalog.get(name)
        g = entry.algebra
        amb = full_subalgebra(g)
        full = amb.space
        candidates = [
            ("full", full),
            ("derived", bracket_spaces(g, full, full)),
            ("center", center(g).space),
            ("radical", sub_radical(amb)),
            *entry.tagged_subalgebras.items(),
        ]
        add_subideals(name, amb, candidates)

    rng = random.Random(seed)
    random_count = 0
    guard = 0
    catalog_mixins = ("sl2", "aff1", "so3")
    max_attempts = 20 * max(min_random, 1) + 100
    while random_count < min_random and guard < max_attempts:
        guard += 1
        base = random_solvable_algebra(rng, matrix_size=3, generators=2)
        if base.dim < 1:
            continue
        if rng.random() < 0.4:
            mixin = catalog.get(rng.choice(catalog_mixins)).algebra
            g, emb_base, emb_mix = direct_sum(base, mixin)
            spaces = [
                ("base_factor", emb_base.image()),
                ("mixin_factor", emb_mix.image()),
            ]
        else:
            g = base
            spaces = []
        amb = full_subalgebra(g)
        full = amb.space
        derived = bracket_spaces(g, full, full)
        spaces += [("derived", derived), ("center", center(g).space), ("full", full)]
        coords = [rng.randint(-1, 1) for _ in range(g.dim)]
        if any(coords):
            gen = generated_subalgebra(g, [coords])
            spaces.append(("generated", gen.space))
        nonzero = [(tag, space) for tag, space in spaces if space.dim]
        random_count += add_subideals(f"random{guard}", amb, nonzero)
    if random_count < min_random:
        raise RuntimeError(
            f"random corpus generation stalled: {random_count} < {min_random}"
        )
    return pairs


# ---------------------------------------------------------------------------
# suite: perfect (criteria 1-3)
# ---------------------------------------------------------------------------


def suite_perfect(seed: int, min_random: int) -> Checks:
    all_instances: list[ChainInstance] = []
    for label, h in perfect_specimens().items():
        instances = chain_instances(label, h)
        all_instances.extend(instances)

        def run(instances=instances, label=label):
            check(len(instances) >= 20, f"only {len(instances)} chains for {label}")
            for inst in instances:
                check_perfect_transitivity(inst.g, inst.h_sub)
            return f"{len(instances)} chains, all ideals"

        yield f"forward transitivity [{label}]", run

    for name in NON_PERFECT_NAMES:

        def run(name=name):
            # the certificate comes back only once its verify() has held
            cert = counterexample_extension(catalog.get(name).algebra)
            return f"ambient dim {cert.ambient.dim}, chain dims {cert.chain.dims()}"

        yield f"counterexample [{name}]", run

    def run_characteristic():
        for inst in all_instances:
            check(is_characteristic(inst.g, inst.h_sub), inst.label)
        return f"{len(all_instances)} ambient algebras, derivations preserve h"

    yield "characteristic ideals", run_characteristic

    def run_non_characteristic():
        aff1 = catalog.get("aff1").algebra
        ab1 = catalog.get("abelian(1)").algebra
        k, emb_aff, _ = direct_sum(aff1, ab1)
        h = Subalgebra(k, emb_aff.image())
        check(is_ideal(k, h), "aff1 factor is not an ideal")
        check(not is_characteristic(k, h), "expected a derivation moving aff1 out")
        return "aff1+abelian(1) has a derivation moving the aff1 factor"

    yield "non-characteristic witness", run_non_characteristic


# ---------------------------------------------------------------------------
# suite: complete (criteria 4-6)
# ---------------------------------------------------------------------------


def tower_corpus(seed: int) -> list[tuple[str, LieAlgebra]]:
    names = ("sl2", "aff1", "so3", "sl2_sum_aff1", "sl2_rad2")
    out = [(name, catalog.get(name).algebra) for name in names]
    # almost abelian with distinct weights: centerless, tower gains a stage
    label = "almost_abelian(1,2)"
    out.append((label, LieAlgebra.from_brackets(3, {(0, 1): {1: 1}, (0, 2): {2: 2}}, name=label)))

    def centerless_small(g: LieAlgebra) -> bool:
        return center(g).dim == 0 and derivation_algebra(g).dim <= 12

    return out + _draws(seed, 2, 200, range(2, 7), centerless_small)


def check_adjoint_identity(label: str, g: LieAlgebra) -> int:
    """Check [f, ad_{e_i}] = ad_{f(e_i)} for each derivation row f and each e_i; count them.

    In integers: Commutator(n)(f, den * ad_{e_i}) == den * ad_{f(e_i)}; one
    instance lays each row and each den * ad_{e_i} out once.
    """
    n, rows = g.dim, derivation_algebra(g).span.integer_rows[1]
    units = [g.scaled_adjoint(((i, 1),)).items() for i in range(n)]
    bracket = Commutator(n)
    for f in rows:
        for i, unit in enumerate(units):
            image = [(idx // n, v) for idx, v in f if idx % n == i]  # column i of f
            lhs = bracket(f, unit)
            check(lhs == g.scaled_adjoint(image), f"[f, ad_X] != ad_f(X) on {label}")
    return len(rows) * n


def suite_complete(seed: int, min_random: int) -> Checks:
    corpus = tower_corpus(seed)

    for label, g in corpus:

        def run(g=g):
            complete = theorem_derived_check(g)
            tower = derivation_tower(g)
            check(not tower.exceeded_budget, "tower did not stabilize in budget")
            return (
                f"complete(D)={complete}, stabilized at stage "
                f"{tower.stabilized_at}, dims {tuple(s.dim for s in tower.stages)}"
            )

        yield f"derivation tower [{label}]", run

    lemma_algebras = [(name, catalog.get(name).algebra) for name in catalog.list_names()]
    lemma_algebras += corpus

    def run_lemma():
        count = sum(check_adjoint_identity(label, g) for label, g in lemma_algebras)
        return f"{count} matrix identities verified"

    yield "adjoint bracket identity", run_lemma

    complete_h = ("aff1", "sl2", "so3")
    centerless_partners = (
        "aff1",
        "sl2",
        "so3",
        "sl2_rad2",
        "sl2_sum_aff1",
        "so3_sum_so3",
    )

    def run_complete_subideal():
        count = 0
        for h_name in complete_h:
            h = catalog.get(h_name).algebra
            for p_name in centerless_partners:
                g, h_sub, k_sub = _nested(h, catalog.get(p_name).algebra, holomorph)
                check_complete_subideal(h_sub, k_sub, g)
                count += 1
        check(count >= 10, f"only {count} instances")
        return f"{count} instances: ideal and k = h (+) c_k(h) verified"

    yield "complete subideals", run_complete_subideal


# ---------------------------------------------------------------------------
# suite: radical (criteria 7-8)
# ---------------------------------------------------------------------------


def suite_radical(seed: int, min_random: int) -> Checks:
    corpus = radical_corpus(seed, min_random)

    def run_intersection():
        for _, amb, h, chain in corpus:
            check_radical_intersection(amb, h, chain)
        return f"{len(corpus)} subideal pairs (seed {seed})"

    yield "radical intersection identity", run_intersection

    def run_levi():
        for _, amb, h, chain in corpus:
            levi_criterion(amb, h, chain)
        return f"{len(corpus)} subideal pairs, three-way agreement"

    yield "radical ideal criteria", run_levi


# ---------------------------------------------------------------------------
# suite: forms (criteria 9-10)
# ---------------------------------------------------------------------------


def _form_cases() -> list[tuple[str, LieAlgebra, SymForm, Subspace, Subspace, bool]]:
    """(label, g, form, h_space, k_space, hypotheses_should_hold)."""
    cases = []
    so3_entry = catalog.get("so3")
    so3 = so3_entry.algebra
    b3 = so3_entry.tagged_forms["minus_killing"]
    full3 = Subspace.full(3)
    axis = so3_entry.tagged_subalgebras["axis"]
    cases.append(("so3 axis in so3", so3, b3, axis, full3, True))
    cases.append(("so3 full in so3", so3, b3, full3, full3, True))

    so6 = catalog.get("so3_sum_so3").algebra
    b6 = SymForm(so6, Mat.identity(6).scale(2))
    first = Subspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    diag = Subspace.span(
        6, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    )
    axis6 = Subspace.span(6, [[0, 0, 1, 0, 0, 0]])
    full6 = Subspace.full(6)
    cases.append(("so3 factor in so3+so3", so6, b6, first, full6, True))
    cases.append(("diagonal so3 in so3+so3", so6, b6, diag, full6, True))
    cases.append(("axis in so3+so3", so6, b6, axis6, full6, True))
    cases.append(("axis in so3 factor", so6, b6, axis6, first, True))

    sl2_entry = catalog.get("sl2")
    sl2 = sl2_entry.algebra
    killing = sl2_entry.tagged_forms["killing"]
    compact_form = sl2_entry.tagged_forms["compact_embedding"]
    cartan = sl2_entry.tagged_subalgebras["cartan"]
    compact_line = sl2_entry.tagged_subalgebras["compact_line"]
    full_sl2 = Subspace.full(3)
    cases.append(("compact line in sl2", sl2, compact_form, compact_line, full_sl2, True))
    cases.append(("sl2 in sl2 (killing)", sl2, killing, full_sl2, full_sl2, True))
    # Killing on the Cartan line: complement has inertia (1,1,0): must skip
    cases.append(("cartan line in sl2 (killing)", sl2, killing, cartan, full_sl2, False))
    # the compact-embedding form does not make ad_H skew: must skip
    cases.append(("sl2 in sl2 (compact form)", sl2, compact_form, full_sl2, full_sl2, False))
    return cases


def suite_forms(seed: int, min_random: int) -> Checks:
    for label, g, form, h_space, k_space, should_hold in _form_cases():

        def run(g=g, form=form, h_space=h_space, k_space=k_space, should_hold=should_hold):
            h = Subalgebra(g, h_space)
            k = Subalgebra(g, k_space)
            ideal = expect(should_hold, lambda: check_skew_form_criterion(g, form, h, k))
            return f"subideal={ideal}, ideal={ideal}"

        yield f"definite form [{label}]", run

    def run_cartan_sl2():
        entry = catalog.get("sl2")
        g = entry.algebra
        theta = entry.tagged_maps["cartan_involution"]
        decomp = cartan_eigenspaces(g, theta)
        check(
            decomp.compact_part.space == Subspace.span(3, [[0, 1, -1]]),
            "u != span(E-F)",
        )
        check(
            decomp.noncompact_part == Subspace.span(3, [[1, 0, 0], [0, 1, 1]]),
            "p != span(H, E+F)",
        )
        killing = entry.tagged_forms["killing"]
        on_u = killing.inertia_on(decomp.compact_part.space)
        on_p = killing.inertia_on(decomp.noncompact_part)
        check((on_u.n_plus, on_u.n_minus, on_u.n_zero) == (0, 1, 0), f"inertia on u is {on_u}")
        check((on_p.n_plus, on_p.n_minus, on_p.n_zero) == (2, 0, 0), f"inertia on p is {on_p}")
        full = full_subalgebra(g)
        u = decomp.compact_part
        check(not check_cartan_criterion(g, theta, u, full), "u must be a non-ideal")
        check(check_cartan_criterion(g, theta, full, full), "sl2 must be an ideal of itself")
        return "u = span(E-F), p = span(H, E+F), inertias (0,1,0)/(2,0,0)"

    yield "cartan eigenspaces [sl2]", run_cartan_sl2

    def run_cartan_identity_rejected():
        g = catalog.get("sl2").algebra
        ident = LinMap(g, g, Mat.identity(3))
        try:
            cartan_eigenspaces(g, ident)
        except HypothesisError:
            return "identity on sl2 rejected: twisted form indefinite"
        raise CheckFailure("identity involution on sl2 was not rejected")

    yield "cartan involution rejection [sl2]", run_cartan_identity_rejected

    def run_cartan_so3():
        entry = catalog.get("so3")
        g = entry.algebra
        theta = entry.tagged_maps["cartan_involution"]
        decomp = cartan_eigenspaces(g, theta)
        check(
            decomp.compact_part.dim == 3 and decomp.noncompact_part.dim == 0,
            "so3 must be all compact part",
        )
        return "compact form: u = so3, p = 0"

    yield "cartan eigenspaces [so3]", run_cartan_so3

    def run_cartan_mixed():
        sl2 = catalog.get("sl2").algebra
        so3 = catalog.get("so3").algebra
        g, e1, e2 = direct_sum(sl2, so3)
        th1 = catalog.get("sl2").tagged_maps["cartan_involution"].matrix
        rows = [[Fraction(0)] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                rows[i][j] = th1.entries[i][j]
            rows[3 + i][3 + i] = Fraction(1)
        theta = LinMap(g, g, Mat(rows, cols=6))
        h_space = Subspace.span(
            6, [[0, 1, -1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
        )
        h = Subalgebra(g, h_space)
        check(
            not check_cartan_criterion(g, theta, h, full_subalgebra(g)),
            "u-containing subalgebra must be a non-subideal",
        )
        return "u-containing subalgebra of sl2+so3: neither subideal nor ideal"

    yield "cartan criterion [sl2+so3]", run_cartan_mixed


# ---------------------------------------------------------------------------
# suite: selfnorm (criterion 11)
# ---------------------------------------------------------------------------


def _tagged(name: str, tag: str) -> Subalgebra:
    """The subalgebra that catalog algebra name tags as tag."""
    entry = catalog.get(name)
    return Subalgebra(entry.algebra, entry.tagged_subalgebras[tag])


def suite_selfnorm(seed: int, min_random: int) -> Checks:
    sl2_entry = catalog.get("sl2")
    sl2_ab1, e_sl2, e_ab1 = direct_sum(sl2_entry.algebra, catalog.get("abelian(1)").algebra)
    sl2_factor = Subalgebra(sl2_ab1, e_sl2.image())
    ab1_factor = Subalgebra(sl2_ab1, e_ab1.image())
    so3_form = {"form": catalog.get("so3").tagged_forms["minus_killing"]}
    sl2_form = {"form": sl2_entry.tagged_forms["compact_embedding"]}
    sl2_theta = {"involution": sl2_entry.tagged_maps["cartan_involution"]}

    # (hypothesis tag, its form or involution, what h is, h, should_hold)
    cases: list[tuple[str, dict, str, Subalgebra, bool]] = [
        ("perfect", {}, "sl2 in gl2", _tagged("gl2", "sl2"), True),
        ("perfect", {}, "sl2 factor in sl2+abelian(1)", sl2_factor, True),
        ("central_radical", {}, "center of heisenberg3", _tagged("heisenberg3", "center"), True),
        ("central_radical", {}, "abelian factor of sl2+abelian(1)", ab1_factor, True),
        ("central_radical", {}, "xz plane of heisenberg3 (expected skip)",
         _tagged("heisenberg3", "xz_plane"), False),
        ("skew_form", so3_form, "axis of so3", _tagged("so3", "axis"), True),
        ("compact", so3_form, "axis of so3", _tagged("so3", "axis"), True),
        ("compactly_embedded", sl2_form, "compact line of sl2", _tagged("sl2", "compact_line"), True),
        ("cartan", sl2_theta, "compact line of sl2", _tagged("sl2", "compact_line"), True),
    ]

    verified_tags = set()
    for hypothesis, extra, what, h, should_hold in cases:

        def run(hypothesis=hypothesis, extra=extra, h=h, should_hold=should_hold):
            n_h = expect(
                should_hold,
                lambda: check_self_normalizing_theorem(
                    g=h.parent, h=h, hypothesis=hypothesis, **extra
                ),
            )
            verified_tags.add(hypothesis)
            return f"N has dim {n_h.dim}; self-normalizing"

        yield f"self-normalizing [{hypothesis.replace('_', ' ')}: {what}]", run

    def run_coverage():
        needed = {"perfect", "central_radical", "compactly_embedded", "cartan"}
        missing = needed - verified_tags
        check(not missing, f"no verifying instance for tags {sorted(missing)}")
        return f"verified tags: {sorted(verified_tags)}"

    yield "hypothesis tag coverage", run_coverage


# ---------------------------------------------------------------------------
# suite: oracle (criterion 12)
# ---------------------------------------------------------------------------


def suite_oracle(seed: int, min_random: int) -> Checks:
    algebras: list[tuple[str, LieAlgebra]] = [
        (name, catalog.get(name).algebra)
        for name in ("abelian(1)", "abelian(2)", "abelian(3)", "heisenberg3", "aff1", "sl2", "so3")
    ]
    algebras += _draws(seed, 3, 100, range(1, 4))
    # the grid's spans depend on the dimension alone: one list per dimension
    # for this run, which each algebra filters through its closure check
    spaces = {n: grid_subspaces(n) for n in {g.dim for _, g in algebras}}

    for label, g in algebras:

        def run(g=g):
            grid = enumerate_grid_subalgebras(g, spaces[g.dim])
            for h in grid:
                verdict = subideal_chain(g, h)
                # a chain's links need not be grid spans; offer them too
                links = list(verdict.chain.links) if verdict else []
                oracle = subideal_oracle(grid + links, h)
                check(
                    bool(verdict) == oracle,
                    f"verdict {bool(verdict)} != oracle {oracle} at dim {h.dim}",
                )
            return f"{len(grid)} subalgebras, verdicts agree"

        yield f"subideal oracle [{label}]", run

    def run_derivation_dims():
        expected = {
            "abelian(1)": 1,
            "abelian(2)": 4,
            "abelian(3)": 9,
            "abelian(4)": 16,
            "heisenberg3": 6,
            "sl2": 3,
        }
        for name, dim in expected.items():
            da = derivation_algebra(catalog.get(name).algebra)
            check(da.dim == dim, f"dim D({name}) = {da.dim}, expected {dim}")
        return f"{len(expected)} frozen derivation dimensions match"

    yield "derivation dimensions", run_derivation_dims


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


SUITES = {
    "perfect": suite_perfect,
    "complete": suite_complete,
    "radical": suite_radical,
    "forms": suite_forms,
    "selfnorm": suite_selfnorm,
    "oracle": suite_oracle,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(
    names: list[str] | tuple[str, ...] = SUITE_NAMES,
    seed: int = 0,
    min_random: int = 50,
) -> list[CheckResult]:
    """One CheckResult per check of the named suites, each check run as soon
    as its suite yields it."""
    results = []
    for suite in names:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        for name, fn in SUITES[suite](seed, min_random):
            results.append(_run_check(suite, name, fn))
    return results
