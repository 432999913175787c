"""The support rule on coordinate subspaces against the general kernels and tests/reference.py.

A subspace whose RREF rows are unit vectors has an ``axis_set``, and four
membership loops decide on it by support alone: the closure check on
Subalgebra, is_ideal, the rounds of ideal_closure and Subspace.contains.
Each is compared here with the general kernel it replaces, scaled_residual
(of scaled_bracket for a bracket), kept below as the code they ran, and, on
the catalog, with the dense reference.  The rule rests on one premise,
that no constructor stores a zero structure constant, tested last.
"""

from dataclasses import fields
from fractions import Fraction
from itertools import chain, combinations

import pytest

import reference
from reference import unit
from lieideal import catalog, transitivity
from lieideal.derivations import holomorph
from lieideal.exactlin import Subspace
from lieideal.liealg import (
    LieAlgebra,
    Subalgebra,
    direct_sum,
    fresh_rows,
    full_subalgebra,
    is_ideal,
    quotient,
    saturate,
    sub_to_algebra,
    validate,
)
from lieideal.suites import NON_PERFECT_NAMES, chain_instances, perfect_specimens
from lieideal.transitivity import counterexample_extension

# --- the general kernels, as the four loops ran them on every subspace ------


def bracket_residual(g, x, y, space):
    """The general membership test of [x, y]: space's scaled_residual of den * [x, y]."""
    return space.scaled_residual(g.scaled_bracket(x, y).items())


def general_escape(g, space):
    """The closure check's message for the first pair a < b whose bracket escapes, or None."""
    rows = space.integer_rows[1]
    for a, b in combinations(range(len(rows)), 2):
        if bracket_residual(g, rows[a], rows[b], space):
            return f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
    return None


def general_is_ideal(g, amb, h):
    return not any(bracket_residual(g, x, y, h) for x in fresh_rows(amb, h) for y in h.integer_rows[1])


def general_contains(s, t):
    return not any(map(s.scaled_residual, t.integer_rows[1]))


def escape(g, space):
    try:
        Subalgebra(g, space)
    except ValueError as exc:
        return str(exc)
    return None


def outcome(build):
    """build()'s space, or the message of the ValueError it raised."""
    try:
        return build().space
    except ValueError as exc:
        return str(exc)


def checked_ideal_closure(monkeypatch, amb, h):
    """outcome(ideal_closure(amb, h)), each round's rows compared with the ones bracket_residual gives.

    Also returns, per round, whether the round's span was coordinate.  An
    algebra that is not antisymmetric can have an ideal closure that is not
    a subalgebra; both paths then refuse it with validate's message.
    """
    g, xs = amb.parent, amb.space.integer_rows[1]
    rounds = []

    def checked(space, escaping):
        def both(s, fresh):
            got = [tuple(w) for w in escaping(s, fresh)]
            want = [tuple(w.items()) for x in xs for y in fresh if (w := bracket_residual(g, x, y, s))]
            assert got == want
            rounds.append(s.axis_set is not None)
            return got

        return saturate(space, both)

    monkeypatch.setattr(transitivity, "saturate", checked)
    return outcome(lambda: transitivity.ideal_closure(amb, h)), rounds


def general_ideal_closure(amb, h):
    """outcome(ideal_closure(amb, h)) as bracket_residual ran it on every span.

    A closure that is no subalgebra is refused with validate's message, which
    only a tensor that is not a Lie algebra can give.
    """
    g, xs = amb.parent, amb.space.integer_rows[1]
    space = saturate(
        h.space, lambda s, fresh: [w.items() for x in xs for y in fresh if (w := bracket_residual(g, x, y, s))]
    )
    if escape(g, space) is None:
        return space
    report = validate(g)
    assert not report.ok, "the ideal closure in a Lie algebra is a subalgebra"
    return report.message()


def compare_spaces(monkeypatch, g, spaces):
    """Every reader against the general kernels on the given spaces of g; counts each reader's coordinate cases."""
    seen = {"closure": 0, "contains": 0, "is_ideal": 0, "coordinate rounds": 0, "general rounds": 0}
    closed = []
    for s in spaces:
        got = escape(g, s)
        assert got == general_escape(g, s)
        seen["closure"] += s.axis_set is not None
        if got is None:
            closed.append(Subalgebra(g, s))
    for s, t in [(s, t) for s in spaces for t in spaces]:
        assert s.contains(t) == general_contains(s, t)
        seen["contains"] += s.axis_set is not None
    for amb, h in [(a, b) for a in closed for b in closed]:
        if not general_contains(amb.space, h.space):
            continue
        assert is_ideal(amb, h) == general_is_ideal(g, amb.space, h.space)
        seen["is_ideal"] += amb.space.axis_set is not None and h.space.axis_set is not None
        got, rounds = checked_ideal_closure(monkeypatch, amb, h)
        assert got == general_ideal_closure(amb, h)
        if amb.space.axis_set is not None:
            seen["coordinate rounds"] += sum(rounds)
            seen["general rounds"] += len(rounds) - sum(rounds)
    return seen


# --- the predicate ----------------------------------------------------------


def test_axis_set_is_the_pivots_of_a_space_of_unit_rows():
    assert Subspace.axes(5, 1, 4).axis_set == frozenset({1, 2, 3})
    assert Subspace.zero(3).axis_set == frozenset()
    assert Subspace.full(3).axis_set == frozenset({0, 1, 2})
    # a scaled axis has the unit row as its RREF
    assert Subspace.span(3, [[0, Fraction(-7, 2), 0], [5, 0, 0]]).axis_set == frozenset({0, 1})
    assert Subspace.span(3, [[1, 1, 0]]).axis_set is None
    assert Subspace.span(3, [[1, Fraction(1, 2), 0]]).axis_set is None
    assert Subspace.span(3, [[2, 0, 0], [0, 1, 1]]).axis_set is None


def test_axis_set_is_not_a_field():
    s, t = Subspace.axes(4, 0, 2), Subspace.axes(4, 0, 2)
    assert s.axis_set == frozenset({0, 1})
    assert "axis_set" not in {f.name for f in fields(Subspace)}
    # one built, one not: still equal, with one hash
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


# --- every axis subset of every catalog algebra, against the reference ------


class Dense:
    """The reference's answers for the axis subsets of one algebra, echelons built once per subset."""

    def __init__(self, g):
        self.n, consts = g.dim, g.brackets()
        units = [unit(self.n, i) for i in range(self.n)]
        self.br = [[reference.bracket(consts, x, y) for y in units] for x in units]
        self.consts = consts
        self._ech = {}

    def rows(self, axes):
        return [unit(self.n, i) for i in axes]

    def holds(self, axes, v):
        if axes not in self._ech:
            self._ech[axes] = reference.rref(self.n, self.rows(axes))
        return not any(reference.reduce(self._ech[axes], v))

    def escape(self, axes):
        for a, b in combinations(range(len(axes)), 2):
            if not self.holds(axes, self.br[axes[a]][axes[b]]):
                return f"subspace is not bracket-closed: [basis {a}, basis {b}] escapes"
        return None

    def is_ideal(self, amb, h):
        return all(self.holds(h, self.br[x][y]) for x in amb for y in h)

    def ideal_closure(self, amb, h):
        return reference.ideal_closure(self.n, self.consts, self.rows(amb), self.rows(h))


def axis_subsets(n):
    return [tuple(c) for c in chain.from_iterable(combinations(range(n), r) for r in range(n + 1))]


@pytest.mark.parametrize("name", catalog.list_names())
def test_every_axis_subset_of_the_catalog_matches_the_reference(name, monkeypatch):
    g = catalog.get(name).algebra
    dense = Dense(g)
    subsets = axis_subsets(g.dim)
    space = {axes: Subspace.span(g.dim, dense.rows(axes)) for axes in subsets}
    assert all(s.axis_set == frozenset(axes) for axes, s in space.items())
    closed = []
    for axes in subsets:
        got = escape(g, space[axes])
        assert got == dense.escape(axes) == general_escape(g, space[axes])
        if got is None:
            closed.append(axes)
    for s in subsets:
        for t in subsets:
            want = all(dense.holds(s, v) for v in dense.rows(t))
            assert space[s].contains(space[t]) == want == general_contains(space[s], space[t])
        # a row of two entries lies in a coordinate space exactly when both axes do
        for i, j in combinations(range(g.dim), 2):
            v = Subspace.span(g.dim, [{i: 1, j: -2}])
            assert space[s].contains(v) == (i in s and j in s) == general_contains(space[s], v)
    nested = 0
    for amb in closed:
        for h in closed:
            if not set(h) <= set(amb):
                continue
            A, H = Subalgebra(g, space[amb]), Subalgebra(g, space[h])
            assert is_ideal(A, H) == dense.is_ideal(amb, h) == general_is_ideal(g, space[amb], space[h])
            got, _ = checked_ideal_closure(monkeypatch, A, H)
            assert reference.rref(g.dim, got.basis.entries) == dense.ideal_closure(amb, h)
            nested += 1
    assert nested >= len(closed)


def test_some_catalog_subset_escapes_at_its_last_pair_only():
    # so a closure check that skips the last pair answers wrongly somewhere
    last_only = 0
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        for axes in axis_subsets(g.dim):
            s = Subspace.span(g.dim, [unit(g.dim, i) for i in axes])
            pairs = list(combinations(axes, 2))
            escaping = [(p, q) for p, q in pairs if bracket_residual(g, ((p, 1),), ((q, 1),), s)]
            last_only += escaping == pairs[-1:] != []
    assert last_only > 0


# --- the blocks of the perfect suite's and the counterexamples' ambients ----


def block_ambients():
    """(label, g, h, k): the 80 perfect-suite ambients and the 7 counterexample ambients, h and k on leading axes."""
    out = []
    for label, h in perfect_specimens().items():
        out += [(inst.label, inst.g, inst.h_sub.space, inst.k_sub.space) for inst in chain_instances(label, h)]
    for name in NON_PERFECT_NAMES:
        cert = counterexample_extension(catalog.get(name).algebra)
        h, k, _ = cert.chain.links
        out.append((f"counterexample {name}", cert.ambient, h.space, k.space))
    return out


def test_the_blocks_of_every_ambient_match_the_general_kernels(monkeypatch):
    ambients = block_ambients()
    assert len(ambients) == 87 and max(g.dim for _, g, _, _ in ambients) == 72
    totals = {}
    for label, g, h, k in ambients:
        assert h == Subspace.axes(g.dim, 0, h.dim) and k == Subspace.axes(g.dim, 0, k.dim), label
        # the block after k: D(k) in a holomorph, the last summand in a sum
        rest = Subspace.axes(g.dim, k.dim, g.dim)
        spaces = [h, k, rest, Subspace.full(g.dim), Subspace.zero(g.dim)]
        for key, count in compare_spaces(monkeypatch, g, spaces).items():
            totals[key] = totals.get(key, 0) + count
    # every reader took its coordinate path on these blocks, and some closure
    # round grew off the axes and took the general one
    general = totals.pop("general rounds")
    assert min(totals.values()) > 87 and general > 0, totals


# --- one tensor that is not antisymmetric ------------------------------------


def test_a_non_antisymmetric_tensor_is_read_in_the_kernels_orientation(monkeypatch):
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    c[1][0][2] = 1  # [e1, e0] = e2, while [e0, e1] = 0
    c[0][2][3], c[2][0][3] = 1, 5  # unequal, not opposite
    c[3][1][0] = Fraction(1, 2)  # [e3, e1] = e0 / 2, while [e1, e3] = 0
    g = LieAlgebra(c)
    num = g.integer_constants[1]
    assert num[0][1] == () and [k for k, _ in num[1][0]] == [2]
    spaces = [Subspace.span(4, [unit(4, i) for i in axes]) for axes in axis_subsets(4)]
    seen = compare_spaces(monkeypatch, g, spaces)
    assert seen["closure"] == 16 and seen["is_ideal"] > 0 and seen["coordinate rounds"] > 0
    # the orientation decides: span(e0, e1) is closed, and span(e0) is no ideal of span(e0, e1)
    s01 = Subalgebra(g, Subspace.axes(4, 0, 2))
    assert not is_ideal(s01, Subalgebra(g, Subspace.axes(4, 0, 1)))
    # the ideal closure of span(e1) in span(e1, e3) takes [e3, e1] = e0 / 2 and
    # [e1, e0] = e2, and [e0, e2] = e3 escapes span(e0, e1, e2): the refusal
    # names what is wrong with the tensor, not with a span never asked for
    monkeypatch.undo()
    s13 = Subalgebra(g, Subspace.span(4, [unit(4, 1), unit(4, 3)]))
    with pytest.raises(ValueError) as refused:
        transitivity.ideal_closure(s13, Subalgebra(g, Subspace.axes(4, 1, 2)))
    assert str(refused.value) == validate(g).message() == "antisymmetry fails at (i,j,k)=(0, 1, 2)"


# --- the premise: no constructor stores a zero constant -----------------------


def stores_no_zero(g):
    """Every num[i][j] lists nonzero values at strictly increasing k."""
    for plane in g.integer_constants[1]:
        for terms in plane:
            ks = [k for k, _ in terms]
            if ks != sorted(set(ks)) or not all(v for _, v in terms):
                return False
    return True


def test_no_constructor_stores_a_zero_constant():
    zero = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    zero[0][1] = [Fraction(0), "0", 1]
    zero[1][0] = [0, "0/5", -1]
    dense = LieAlgebra(zero)
    assert dense.integer_constants[1][0][1] == ((2, 1),) and stores_no_zero(dense)
    # (i, j) and (j, i) values that cancel leave nothing at all
    cancel = LieAlgebra.from_brackets(3, {(0, 1): {2: 1, 0: 3}, (1, 0): {2: 1}})
    assert cancel.integer_constants[1][0][1] == ((0, 3),) and stores_no_zero(cancel)
    gone = LieAlgebra.from_brackets(3, {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(1, 2)}})
    assert gone.integer_constants[1][0][1] == () and stores_no_zero(gone)
    scaled = LieAlgebra.from_scaled(3, 4, {(0, 1): {2: 0, 1: 6}, (1, 2): {0: 0}})
    assert scaled.integer_constants[1][1][2] == () and stores_no_zero(scaled)
    loaded = catalog.loads("dim 3\nbracket 0 1 2 0\nbracket 0 2 1 1\n")
    assert loaded.integer_constants[1][0][1] == () and stores_no_zero(loaded)
    sl2, heis = catalog.get("sl2").algebra, catalog.get("heisenberg3").algebra
    built = [
        direct_sum(sl2, heis)[0],
        holomorph(heis)[0],
        holomorph(sl2)[0],
        quotient(heis, Subalgebra(heis, Subspace.axes(3, 2, 3)))[0],
        sub_to_algebra(Subalgebra(sl2, Subspace.span(3, [[1, 0, 0], [0, 1, 0]]))),
        sub_to_algebra(Subalgebra(heis, Subspace.span(3, [[1, 1, 0], [0, 0, 1]]))),
    ]
    built += [catalog.get(name).algebra for name in catalog.list_names()]
    built += [g for _, g, _, _ in block_ambients()]
    assert all(map(stores_no_zero, built))
