"""Subideal decisions with certificates and the ideal-transitivity criteria.

The subideal test runs the descending ideal-closure series: starting from the
ambient algebra, repeatedly replace the ambient by the smallest of its ideals
containing h.  It reaches h exactly when h is a subideal, and a positive
answer is returned only as an independently re-verified chain of ideals.
The closures and the series (this one and the normalizer tower) run on
liealg's two bounded loops, saturate and stable_series.

The remaining operations package the structural criteria under which a
subideal is forced to be an honest ideal (perfectness, completeness of the
subalgebra with centerless middle, radical placement, skew-symmetry with
respect to a definite form, Cartan eigenspace containment) together with the
self-normalizing-normalizer consequence.  Each criterion ends one of three
ways: HypothesisError when a hypothesis fails to verify,
TheoremViolationError when the conclusion fails (a bug), and otherwise it
returns its evidence: the chain (perfect transitivity), c_k(h) (complete
subideals), r_h (radical intersection), N_g(h) (self-normalizing) or the
one verdict its equivalent sides agree on (levi_criterion, the form and
Cartan criteria).  The exceptions live in liealg and are re-exported here.

The subideal oracle at the end searches for a chain of ideals among an
explicit list of candidate subalgebras; it does not run the closure series
it cross-checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import derivation_algebra, holomorph, is_complete, is_derivation
from .exactlin import Commutator, Inertia, IntRow, Mat, SparseItems, Subspace, Vector, column_kernel, intersect, subspace_sum
from .liealg import (
    HypothesisError,
    InternalCheckError,
    LieAlgebra,
    LinMap,
    Subalgebra,
    SymForm,
    TheoremViolationError,
    as_subalgebra,
    bracket_spaces,
    center,
    centralizer,
    closure,
    direct_sum,
    derived_subalgebra,
    full_subalgebra,
    is_automorphism,
    is_ideal,
    is_perfect,
    killing_form,
    normalizer,
    quotient,
    saturate,
    span_algebra,
    stable_series,
    sub_radical,
    sub_to_algebra,
    validate,
    validate_or_raise,
)


# ---------------------------------------------------------------------------
# subideal machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealChain:
    """Nested subalgebras h = l_0 <| l_1 <| ... <| l_n = ambient."""

    links: tuple[Subalgebra, ...]

    def __post_init__(self):
        if not self.links:
            raise ValueError("empty chain")

    @property
    def parent(self) -> LieAlgebra:
        return self.links[0].parent

    def verify(self) -> bool:
        """Re-check one parent, then every consecutive pair with the plain ideal test."""
        if any(link.parent != self.parent for link in self.links):
            return False
        for inner, outer in zip(self.links, self.links[1:]):
            if not outer.space.contains(inner.space):
                return False
            if not is_ideal(outer, inner):
                return False
        return True

    def __len__(self) -> int:
        return len(self.links)

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.links)


def ideal_closure(ambient: LieAlgebra | Subalgebra, h: Subalgebra) -> Subalgebra:
    """Smallest ideal of the ambient algebra containing h: saturate under [ambient, -].

    Monotone, so any ideal containing h contains every round's span.  A
    round brackets the ambient's rows with the rows the last round added only.
    In a round where the ambient and the current span are both coordinate
    (axis_set), every row is an axis and the support rule gives each pair's
    residual: the entries of num[p][q] off the span's axes, the rows the
    general round's scaled_residual of scaled_bracket would give, in the same
    order.

    In a Lie algebra the closure is a subalgebra, so one that is not raises
    InternalCheckError.  A tensor that is not antisymmetric can give one that
    is not: only when the closure check fails is the parent validated, and a
    failed validate raises ValueError with its message.
    """
    amb = as_subalgebra(ambient)
    if h.parent != amb.parent:
        raise ValueError("subalgebras live in different parent algebras")
    if not amb.space.contains(h.space):
        raise ValueError("h is not contained in the ambient subalgebra")
    g, xs, amb_axes = amb.parent, amb.space.integer_rows[1], amb.space.axis_set

    def escaping(s: Subspace, fresh: Sequence[IntRow]) -> list[SparseItems]:
        if amb_axes is not None and (axes := s.axis_set) is not None:
            return [
                w for p in amb.space.pivots for ((q, _),) in fresh if (w := g.axis_residual(p, q, axes))
            ]
        return [w.items() for x in xs for y in fresh if (w := s.scaled_residual(g.scaled_bracket(x, y).items()))]

    space = saturate(h.space, escaping)
    try:
        return Subalgebra(g, space)
    except ValueError as exc:
        if not (report := validate(g)).ok:
            raise ValueError(report.message()) from None
        raise InternalCheckError(f"ideal closure: {exc}") from None


@dataclass(frozen=True)
class SubidealVerdict:
    """Outcome of the subideal decision.

    A positive verdict carries a verified chain; a negative one carries the
    floor the closure series stabilized at (an ideal-closure fixed point
    strictly above h).
    """

    is_subideal: bool
    chain: IdealChain | None
    floor: Subalgebra | None

    def __bool__(self) -> bool:
        return self.is_subideal


def subideal_chain(ambient: LieAlgebra | Subalgebra, h: Subalgebra) -> SubidealVerdict:
    """Decide whether h is a subideal of the ambient algebra.

    Series: l_0 = ambient, l_{i+1} = ideal closure of h inside l_i.  Each
    step is an ideal of the previous one, so when the series bottoms out at
    h the reversed series is the desired chain.  If it stabilizes strictly
    above h, no chain exists.
    """
    amb = as_subalgebra(ambient)
    series = stable_series(amb, lambda current: ideal_closure(current, h), amb.parent.dim + 2)
    floor = series[-1]
    if floor.space == h.space:
        chain = IdealChain(tuple(reversed(series)))
        if not chain.verify():
            raise InternalCheckError("closure series produced an invalid chain")
        return SubidealVerdict(True, chain, None)
    return SubidealVerdict(False, None, floor)


def check_perfect_transitivity(
    ambient: LieAlgebra | Subalgebra, h: Subalgebra
) -> IdealChain:
    """Perfect subideals are ideals; returns the witnessing chain.

    Raises HypothesisError when h is not perfect or not a subideal, and
    TheoremViolationError if the conclusion ever fails (it cannot, short of
    an implementation bug).
    """
    if not is_perfect(h):
        raise HypothesisError("h is not perfect")
    verdict = subideal_chain(ambient, h)
    if not verdict:
        raise HypothesisError("h is not a subideal of the ambient algebra")
    if not is_ideal(ambient, h):
        raise TheoremViolationError(
            f"perfect subideal is not an ideal: chain dims {verdict.chain.dims()}"
        )
    return verdict.chain


# ---------------------------------------------------------------------------
# the constructive converse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Extension in which a non-perfect h is a subideal but not an ideal.

    ambient is the holomorph of k = h (+) h/[h,h]; the chain embeds h two
    ideals deep; the witness pair brackets to a value provably outside h.
    """

    ambient: LieAlgebra
    chain: IdealChain
    witness_pair: tuple[Vector, Vector]
    escaping_value: Vector

    def verify(self) -> bool:
        """The chain runs from h up to the whole ambient, x lies in h and [x, y] leaves h."""
        links = self.chain.links
        if self.chain.parent != self.ambient or links[-1].dim != self.ambient.dim:
            return False
        if not self.chain.verify():
            return False
        h_space = links[0].space
        x, y = self.witness_pair
        if not h_space.contains_vector(x):
            return False
        value = self.ambient.bracket(x, y)
        if value != self.escaping_value:
            return False
        return not h_space.contains_vector(value)


def counterexample_extension(h: LieAlgebra) -> CounterexampleCertificate:
    """Build the standard extension witnessing that a non-perfect h fails
    ideal transitivity.

    k is h plus the abelianization of h as a direct sum; projecting the h
    part onto the abelianization is a derivation f of k, and inside the
    holomorph of k the bracket of (a suitable element of h) with f lands in
    the abelianization coordinates, outside h.
    """
    hsub = full_subalgebra(h)
    derived = derived_subalgebra(hsub)
    if derived.space.dim == h.dim:
        raise HypothesisError("h is perfect; no counterexample extension exists")
    q, proj = quotient(h, derived)
    k, emb_h, emb_q = direct_sum(h, q)
    nh, nq = h.dim, q.dim
    nk = nh + nq
    # f(X, Y) = (0, proj(X)) as a matrix on k
    f_rows = [[Fraction(0)] * nk for _ in range(nk)]
    for a in range(nq):
        for b in range(nh):
            f_rows[nh + a][b] = proj.matrix.entries[a][b]
    f_mat = Mat(f_rows, cols=nk)
    if not is_derivation(k, f_mat):
        raise InternalCheckError("projection onto the abelianization is not a derivation")
    big, emb_k, emb_d = holomorph(k)
    da = derivation_algebra(k)
    f_coords = da.coordinates_of(f_mat)
    # X_o in h with nonzero abelianization image: some basis vector works
    xo_index = next(
        i for i in range(nh) if any(proj.matrix.column(i))
    )
    xo_in_big = emb_k.apply(emb_h.apply(h.basis_vector(xo_index)))
    f_in_big = emb_d.apply(f_coords)
    h_in_big = Subalgebra(big, emb_k.compose(emb_h).image())
    k_in_big = Subalgebra(big, emb_k.image())
    chain = IdealChain((h_in_big, k_in_big, full_subalgebra(big)))
    escaping = big.bracket(xo_in_big, f_in_big)
    cert = CounterexampleCertificate(
        ambient=big,
        chain=chain,
        witness_pair=(xo_in_big, f_in_big),
        escaping_value=escaping,
    )
    if not cert.verify():
        raise InternalCheckError("counterexample certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# complete subideals
# ---------------------------------------------------------------------------


def check_complete_subideal(h: Subalgebra, k: Subalgebra, g: LieAlgebra) -> Subalgebra:
    """Complete h with h <| k <| g and centerless k forces h <| g; returns c_k(h).

    z(k) = c_k(k) and c_k(h) are solved inside k (centralizer with k as the
    ambient), over k's rows, not in all of g.  Also verifies the
    decomposition k = h (+) c_k(h): spanning, transverse, and with vanishing
    cross-bracket.
    """
    if h.parent != g or k.parent != g:
        raise ValueError("subalgebras live in a different parent algebra")
    if not k.space.contains(h.space):
        raise HypothesisError("h is not contained in k")
    if not is_complete(sub_to_algebra(h)):
        raise HypothesisError("h is not complete")
    if not (is_ideal(k, h) and is_ideal(g, k)):
        raise HypothesisError("h <| k <| g does not hold")
    # z(k) = c_k(k) and c_k(h), each solved over k's rows in g's coordinates
    if centralizer(k, k).dim != 0:
        raise HypothesisError("k does not have trivial center")
    if not is_ideal(g, h):
        raise TheoremViolationError("complete subideal with centerless middle is not an ideal")
    c_sub = centralizer(k, h)
    if not (
        subspace_sum(h.space, c_sub.space) == k.space
        and intersect(h.space, c_sub.space).dim == 0
        and bracket_spaces(g, h.space, c_sub.space).dim == 0
    ):
        raise TheoremViolationError("k = h (+) c_k(h) decomposition failed")
    return c_sub


# ---------------------------------------------------------------------------
# radical criteria
# ---------------------------------------------------------------------------


def _certified_subideal(
    ambient: LieAlgebra | Subalgebra, h: Subalgebra, chain: IdealChain
) -> Subalgebra:
    """The ambient as a Subalgebra, once chain re-verifies as h <| ... <| ambient.

    Raises HypothesisError otherwise, so the radical criteria take a decided
    chain as their hypothesis instead of deciding it again.
    """
    amb = as_subalgebra(ambient)
    if chain.links[0] != h or chain.links[-1] != amb:
        raise HypothesisError("the chain does not run from h to the ambient algebra")
    if not chain.verify():
        raise HypothesisError("the chain is not a chain of ideals")
    return amb


def check_radical_intersection(
    ambient: LieAlgebra | Subalgebra, h: Subalgebra, chain: IdealChain
) -> Subspace:
    """r_h = r_g /\\ h for subideals h of g, given a chain certifying h <|<| g; returns r_h."""
    amb = _certified_subideal(ambient, h, chain)
    rh = sub_radical(h)
    meet = intersect(sub_radical(amb), h.space)
    if rh != meet:
        raise TheoremViolationError(
            f"radical identity failed: dim r_h = {rh.dim}, dim (r_g /\\ h) = {meet.dim}"
        )
    return rh


def levi_criterion(ambient: LieAlgebra | Subalgebra, h: Subalgebra, chain: IdealChain) -> bool:
    """For subideals h, 'h ideal', 'r_h ideal', and '[r_h, g] in h' coincide; returns that verdict.

    chain certifies h <|<| g, as for check_radical_intersection.
    """
    amb = _certified_subideal(ambient, h, chain)
    rh = sub_radical(h)
    a = is_ideal(amb, h)
    image_rh = bracket_spaces(amb.parent, amb.space, rh)
    b = rh.contains(image_rh)
    c = h.space.contains(image_rh)
    if not a == b == c:
        raise TheoremViolationError(
            f"radical criteria disagree on a subideal: ideal={a}, "
            f"radical_ideal={b}, radical_bracket={c}"
        )
    return a


# ---------------------------------------------------------------------------
# bilinear-form criteria
# ---------------------------------------------------------------------------


def adjoint_is_skew(g: LieAlgebra, form: SymForm, u: Subspace) -> bool:
    """B([x,y], z) + B(y, [x,z]) = 0 for every x in u: (den ad_x)^T B + B (den ad_x) = 0.

    With A = scaled_adjoint(x) for each integer row x of u and B symmetric, that
    is M + M^T = 0 for M = B A, summed over the nonzero entries of A and B only.
    """
    if form.ambient != g or u.ambient_dim != g.dim:
        raise ValueError("form or subspace on a different algebra")
    n = g.dim
    # column k of the symmetric B is its row k
    b_cols = [[(r, v) for r, v in enumerate(row) if v] for row in form.matrix.entries]
    for x in u.integer_rows[1]:
        m = {}
        for idx, a in g.scaled_adjoint(x).items():
            k, c = divmod(idx, n)
            for r, v in b_cols[k]:
                m[r, c] = m.get((r, c), 0) + v * a
        if any(v + m.get((c, r), 0) for (r, c), v in m.items()):
            return False
    return True


def verify_skew_form_hypotheses(
    g: LieAlgebra, form: SymForm, h: Subalgebra
) -> tuple[Inertia, Inertia]:
    """Hypotheses of the definite-form criterion; raises HypothesisError.

    (i) the form is nondegenerate on h and positive definite on the
    orthogonal complement of h; (ii) ad_x is skew for every x in h.
    """
    if form.ambient != g:
        raise ValueError("form on a different algebra")
    on_h = form.inertia_on(h.space)
    if not on_h.is_nondegenerate():
        raise HypothesisError("form is degenerate on h")
    m = form.complement(h.space)
    on_m = form.inertia_on(m)
    if not (on_m.is_positive_definite() and on_m.dim == m.dim):
        raise HypothesisError("form is not positive definite on the complement of h")
    if not adjoint_is_skew(g, form, h.space):
        raise HypothesisError("some ad_x with x in h is not skew for the form")
    return on_h, on_m


def _subideal_iff_ideal(k: Subalgebra, h: Subalgebra, criterion: str) -> bool:
    """Whether h is an ideal of k, once a criterion's hypotheses hold and so
    subideal and ideal agree; raises TheoremViolationError if they do not."""
    sub = bool(subideal_chain(k, h))
    idl = is_ideal(k, h)
    if sub != idl:
        raise TheoremViolationError(f"{criterion} criterion violated: subideal={sub}, ideal={idl}")
    return idl


def check_skew_form_criterion(g: LieAlgebra, form: SymForm, h: Subalgebra, k: Subalgebra) -> bool:
    """Under the verified form hypotheses, h subideal of k iff h ideal of k; returns the verdict."""
    if not k.space.contains(h.space):
        raise ValueError("h is not contained in k")
    verify_skew_form_hypotheses(g, form, h)
    return _subideal_iff_ideal(k, h, "definite-form")


# ---------------------------------------------------------------------------
# Cartan involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanDecomposition:
    compact_part: Subalgebra  # +1 eigenspace, a subalgebra
    noncompact_part: Subspace  # -1 eigenspace
    form: SymForm  # <x, y> = -B(x, theta y), positive definite


def cartan_eigenspaces(g: LieAlgebra, theta: LinMap) -> CartanDecomposition:
    """Eigenspace decomposition of a Cartan involution, fully verified.

    Checks: theta is an automorphism squaring to the identity on a
    semisimple algebra, the twisted form is positive definite, eigenspaces
    bracket correctly ([u,p] in p, [p,p] in u), and the Killing form is
    negative definite on u and positive definite on p.
    """
    if theta.source != g or theta.target != g:
        raise ValueError("involution on a different algebra")
    if not is_automorphism(theta):
        raise HypothesisError("theta is not an automorphism")
    n = g.dim
    if theta.matrix * theta.matrix != Mat.identity(n):
        raise HypothesisError("theta does not square to the identity")
    kform = killing_form(g)
    if not kform.inertia_on().is_nondegenerate():
        raise HypothesisError("Killing form is degenerate; algebra is not semisimple")
    twisted = (kform.matrix * theta.matrix).scale(-1)
    if not twisted.is_symmetric():
        raise HypothesisError("twisted form -B(x, theta y) is not symmetric")
    tw_inertia = SymForm(g, twisted).inertia_on()
    if not (tw_inertia.is_positive_definite() and tw_inertia.dim == n):
        raise HypothesisError("twisted form is not positive definite: not a Cartan involution")
    # u and p are the kernels of theta - I and theta + I, on their sparse columns
    columns = [theta.matrix.column(j) for j in range(n)]
    u, p = (
        column_kernel([{i: y for i, x in enumerate(c) if (y := x - s * (i == j))} for j, c in enumerate(columns)])
        for s in (1, -1)
    )
    if u.dim + p.dim != n:
        raise HypothesisError("eigenspaces do not span; theta is not diagonalizable over Q")
    usub = Subalgebra(g, u)  # raises if not bracket-closed
    if not p.contains(bracket_spaces(g, u, p)):
        raise InternalCheckError("[u, p] escapes p")
    if not u.contains(bracket_spaces(g, p, p)):
        raise InternalCheckError("[p, p] escapes u")
    if not kform.complement(u).contains(p):
        raise InternalCheckError("u and p are not Killing-orthogonal")
    on_u = kform.inertia_on(u)
    if u.dim and not on_u.is_negative_definite():
        raise InternalCheckError("Killing form is not negative definite on u")
    on_p = kform.inertia_on(p)
    if p.dim and not on_p.is_positive_definite():
        raise InternalCheckError("Killing form is not positive definite on p")
    return CartanDecomposition(usub, p, SymForm(g, twisted))


def require_cartan_eigenspace(g: LieAlgebra, theta: LinMap, h: Subalgebra) -> None:
    """Raise HypothesisError unless h contains an eigenspace of the involution."""
    decomp = cartan_eigenspaces(g, theta)
    if not (
        h.space.contains(decomp.compact_part.space)
        or h.space.contains(decomp.noncompact_part)
    ):
        raise HypothesisError("h contains neither Cartan eigenspace")


def check_cartan_criterion(g: LieAlgebra, theta: LinMap, h: Subalgebra, k: Subalgebra) -> bool:
    """h containing a Cartan eigenspace: subideal of k iff ideal of k; returns the verdict."""
    require_cartan_eigenspace(g, theta, h)
    if not k.space.contains(h.space):
        raise ValueError("h is not contained in k")
    return _subideal_iff_ideal(k, h, "Cartan eigenspace")


# ---------------------------------------------------------------------------
# normalizer towers and self-normalization
# ---------------------------------------------------------------------------


def normalizer_tower(g: LieAlgebra, h: Subalgebra) -> list[Subalgebra]:
    """h, N(h), N(N(h)), ... until the tower stabilizes."""
    if h.parent != g:
        raise ValueError("subalgebra of a different algebra")
    return stable_series(h, lambda k: normalizer(g, k), g.dim + 1)


def is_self_normalizing(g: LieAlgebra, h: Subalgebra) -> bool:
    return normalizer(g, h).space == h.space


def check_self_normalizing_theorem(
    g: LieAlgebra,
    h: Subalgebra,
    hypothesis: str,
    form: SymForm | None = None,
    involution: LinMap | None = None,
) -> Subalgebra:
    """Verify one hypothesis tag, then check N_g(h) is self-normalizing; returns N_g(h).

    Tags: 'perfect' (h perfect); 'central_radical' (r_h inside z(g));
    'skew_form' (the definite-form hypotheses for the supplied form);
    'compact' (supplied positive-definite form with every ad_x of g skew);
    'compactly_embedded' (same, but only ad_x for x in h);
    'cartan' (h contains an eigenspace of the supplied involution).
    """
    if hypothesis == "perfect":
        if not is_perfect(h):
            raise HypothesisError("h is not perfect")
    elif hypothesis == "central_radical":
        rh = sub_radical(h)
        if not center(g).space.contains(rh):
            raise HypothesisError("radical of h is not inside the center of g")
    elif hypothesis == "skew_form":
        if form is None:
            raise ValueError("skew_form hypothesis needs a form")
        verify_skew_form_hypotheses(g, form, h)
    elif hypothesis in ("compact", "compactly_embedded"):
        if form is None:
            raise ValueError(f"{hypothesis} hypothesis needs a form")
        full_inertia = form.inertia_on()
        if not (full_inertia.is_positive_definite() and full_inertia.dim == g.dim):
            raise HypothesisError("supplied form is not positive definite")
        if hypothesis == "compact":
            skew, failure = Subspace.full(g.dim), "algebra is not compact type for the supplied form"
        else:
            skew, failure = h.space, "h is not compactly embedded for the supplied form"
        if not adjoint_is_skew(g, form, skew):
            raise HypothesisError(failure)
    elif hypothesis == "cartan":
        if involution is None:
            raise ValueError("cartan hypothesis needs an involution")
        require_cartan_eigenspace(g, involution, h)
    else:
        raise ValueError(f"unknown hypothesis tag {hypothesis!r}")
    n_h = normalizer(g, h)
    if not is_self_normalizing(g, n_h):
        raise TheoremViolationError(
            f"normalizer is not self-normalizing under hypothesis {hypothesis!r}"
        )
    return n_h


# ---------------------------------------------------------------------------
# exhaustive small-dimension oracle
# ---------------------------------------------------------------------------


def _grid_lines(n: int) -> list[IntRow]:
    """One representative per {-1,0,1}-direction in Q^n, first nonzero entry 1, as a sparse row."""
    grid = itertools.product((-1, 0, 1), repeat=n)
    rows = (tuple((i, x) for i, x in enumerate(coords) if x) for coords in grid)
    return [row for row in rows if row and row[0][1] == 1]


def grid_subspaces(n: int) -> list[Subspace]:
    """0, Q^n and every span of one or two grid directions in Q^n, each once.

    The grid is every +-1/0 coordinate direction; suitable only for n <= 3,
    where subalgebras relevant to small structure constants are spanned this
    way.  The list depends on n alone, so a caller with several algebras of
    one dimension spans it once (suite_oracle, once per run).
    """
    if n > 3:
        raise ValueError("grid enumeration is limited to dimension <= 3")
    lines = _grid_lines(n)
    spaces: set[Subspace] = {Subspace.zero(n), Subspace.full(n)}
    for r in (1, 2):
        for combo in itertools.combinations(lines, r):
            spaces.add(Subspace.integer_span(n, combo))
    return list(spaces)


def enumerate_grid_subalgebras(g: LieAlgebra, spaces: Sequence[Subspace]) -> list[Subalgebra]:
    """The bracket-closed ones among spaces, a grid_subspaces(g.dim) list.

    Callers enumerate once per algebra and hand the list to subideal_oracle.
    """
    out = []
    for space in spaces:
        try:
            out.append(Subalgebra(g, space))
        except ValueError:
            continue
    return out


def subideal_oracle(candidates: list[Subalgebra], h: Subalgebra) -> bool:
    """Is there a chain of ideals from h up to its parent through the candidates?

    Depth-first over 'is an ideal of' edges, each step to a strictly larger
    candidate containing the current link; the whole algebra is reached when a
    link has full dimension.  The search enumerates nothing itself and does
    not run the closure series, so it is an independent check exactly as far
    as the candidate list reaches.
    """
    stack = [h]
    seen = {h.space}
    while stack:
        current = stack.pop()
        if current.dim == current.parent.dim:
            return True
        for cand in candidates:
            if cand.space in seen:
                continue
            if cand.dim <= current.dim or not cand.space.contains(current.space):
                continue
            if is_ideal(cand, current):
                seen.add(cand.space)
                stack.append(cand)
    return False


# ---------------------------------------------------------------------------
# randomized corpus generation
# ---------------------------------------------------------------------------


def random_matrix_closure(
    rng: random.Random, matrix_size: int = 3, generators: int = 2
) -> tuple[Subspace, Commutator]:
    """The bracket closure of random upper-triangular matrices, with the Commutator it was taken under.

    Matrices are flattened row-major integer rows, entries drawn from
    [-2, 2] on and above the diagonal, row by row.  The closure's dimension
    is known before any algebra is built from it (closure_algebra).
    """
    n = matrix_size
    mats = []
    for _ in range(generators):
        draws = ((i * n + j, rng.randint(-2, 2)) for i in range(n) for j in range(i, n))
        mats.append(tuple((idx, v) for idx, v in draws if v))
    bracket = Commutator(n)
    return closure(Subspace.integer_span(n * n, mats), bracket), bracket


def closure_algebra(space: Subspace, bracket: Commutator) -> LieAlgebra:
    """A random_matrix_closure as an abstract algebra, in the closure's canonical basis."""
    return validate_or_raise(span_algebra(space, bracket, 1, name=f"solvable(dim {space.dim})"))


def random_solvable_algebra(
    rng: random.Random, matrix_size: int = 3, generators: int = 2
) -> LieAlgebra:
    """Bracket closure of random upper-triangular matrices.

    Upper-triangular matrices form a solvable matrix Lie algebra, so the
    closure is solvable and Jacobi holds for free: closure_algebra of a
    random_matrix_closure.
    """
    return closure_algebra(*random_matrix_closure(rng, matrix_size, generators))
