"""Exact-arithmetic toolkit for transitivity of Lie ideals over Q.

Structure constants, brackets, and subspaces are exact rationals throughout,
so ideal membership, definiteness, and chain verification are certified
yes/no answers rather than numerical judgments.

The names below resolve on first use (PEP 562), so importing one submodule,
such as lieideal.catalog, loads only the modules that it imports itself.
"""

from importlib import import_module

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("Inertia", "Mat", "Subspace", "inertia", "nullspace", "rat"), "exactlin"),
    **dict.fromkeys(
        (
            "HypothesisError",
            "LieAlgebra",
            "LinMap",
            "Subalgebra",
            "SymForm",
            "TheoremViolationError",
            "bracket_spaces",
            "center",
            "centralizer",
            "derived_subalgebra",
            "direct_sum",
            "full_subalgebra",
            "generated_subalgebra",
            "is_ideal",
            "is_perfect",
            "is_semisimple",
            "killing_form",
            "normalizer",
            "quotient",
            "radical",
            "subalgebra",
            "validate",
        ),
        "liealg",
    ),
    **dict.fromkeys(
        (
            "DerivationAlgebra",
            "TowerReport",
            "derivation_algebra",
            "derivation_tower",
            "holomorph",
            "is_characteristic",
            "is_complete",
            "theorem_derived_check",
        ),
        "derivations",
    ),
    **dict.fromkeys(
        (
            "CounterexampleCertificate",
            "IdealChain",
            "SubidealVerdict",
            "cartan_eigenspaces",
            "check_cartan_criterion",
            "check_complete_subideal",
            "check_perfect_transitivity",
            "check_radical_intersection",
            "check_self_normalizing_theorem",
            "check_skew_form_criterion",
            "counterexample_extension",
            "ideal_closure",
            "is_self_normalizing",
            "levi_criterion",
            "normalizer_tower",
            "subideal_chain",
        ),
        "transitivity",
    ),
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
