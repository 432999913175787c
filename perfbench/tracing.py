"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public module-level function of each layer
module, plus the methods listed in ``METHODS``, and rebinds each wrapper in
every ``lieideal`` namespace that holds the original (modules import names
directly, e.g. ``from .liealg import bracket_spaces``).  Methods are patched
once, on their class.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the wrapped spans it
called; a layer's self time is the sum over its wrapped functions.  Time in
unwrapped helpers counts towards the nearest wrapped caller.  Inclusive time
counts only the outermost activation of a function, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("exactlin", "liealg", "derivations", "transitivity", "suites", "catalog", "cli")

# methods traced besides the public module-level functions, so that their
# time counts towards their own layer rather than their caller's
METHODS = {
    "exactlin": (
        "Echelon.add",
        "Echelon.rref_rows",
        "Echelon.nullspace_rows",
        "Subspace.span",
        "Subspace.residual",
        "Mat.__mul__",
        "Mat.apply",
    ),
    "liealg": (
        "LieAlgebra.__init__",
        "LieAlgebra.bracket",
        "LieAlgebra.adjoint_matrix",
        "Subalgebra.__init__",
        "LinMap.image",
        "LinMap.kernel",
    ),
    "derivations": ("DerivationAlgebra.coordinates_of",),
    "transitivity": ("IdealChain.verify", "CounterexampleCertificate.verify"),
}

# spans whose outermost activations are summed together
GROUPS = {
    "suites.corpus": ("suites.radical_corpus", "suites.chain_instances", "suites.tower_corpus"),
}


class Stat:
    __slots__ = ("calls", "self_s", "inclusive_s", "depth", "useful", "miss_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.depth = 0
        self.useful = 0  # Echelon.add calls that raised the rank
        self.miss_s = 0.0  # derivation_algebra calls that missed the cache


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.groups = {name: Stat() for name in GROUPS}
        # child-time accumulators of the open spans, above one for the time
        # of top-level spans
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []  # (owner, name, original)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def stat(self, key: str) -> Stat:
        # a function that a later version renames or removes reads as zero
        return self.stats.get(key) or Stat()

    def _wrap(self, key: str, fn):
        st = self.stats[key] = Stat()
        groups = [self.groups[g] for g, members in GROUPS.items() if key in members]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            for g in groups:
                g.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                if not st.depth:
                    st.inclusive_s += dt
                for g in groups:
                    g.depth -= 1
                    if not g.depth:
                        g.calls += 1
                        g.inclusive_s += dt

        return functools.update_wrapper(span, fn)

    def _wrap_echelon_add(self, key: str, fn):
        def add(ech, coeffs):
            before = len(ech.pivots)
            fn(ech, coeffs)
            if len(ech.pivots) > before:
                self.stats[key].useful += 1

        return self._wrap(key, functools.update_wrapper(add, fn))

    def _wrap_cached(self, key: str, fn):
        """lru_cache'd function: keep cache_info/cache_clear, time the misses."""

        def lookup(*args):
            misses = fn.cache_info().misses
            t0 = time.perf_counter()
            out = fn(*args)
            if fn.cache_info().misses > misses and self.stats[key].depth == 1:
                self.stats[key].miss_s += time.perf_counter() - t0
            return out

        wrapper = self._wrap(key, functools.update_wrapper(lookup, fn))
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lieideal.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                key = f"{layer}.{name}"
                if isinstance(obj, functools._lru_cache_wrapper):
                    if obj.__wrapped__.__module__ == mod.__name__:
                        replaced[id(obj)] = self._wrap_cached(key, obj)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(key, obj)
            for qualname in METHODS.get(layer, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                key = f"{layer}.{qualname}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, meth, staticmethod(self._wrap(key, raw.__func__)))
                elif qualname == "Echelon.add":
                    self._patch(cls, meth, self._wrap_echelon_add(key, raw))
                else:
                    self._patch(cls, meth, self._wrap(key, raw))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lieideal" or modname.startswith("lieideal.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, name, replaced[id(obj)])
