"""Per-layer tracing by wrapping public functions of the ggt modules.

The program is not edited: while a ``Tracer`` is active, the named
functions of each layer module are replaced by wrappers in every ggt
module namespace that holds them (modules bind one another's functions
at import time, so patching only the defining module would miss most
calls). Leaving the ``with`` block restores the originals.

Spanned functions record calls, inclusive time of the outermost call and
self time (duration minus the time of nested spans). Counted functions
record calls only: they run thousands of times per op, and timing
them would measure the tracer.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer module -> functions timed as spans
SPANNED = {
    "cli": ("main",),
    "factor": ("factor", "af_factor", "verify_product", "find_bisection",
               "graded_cancellation", "construct_disjoint_paths",
               "print_factorization", "parse_factorization"),
    "fullgroup": ("compose", "transposition", "graded_partition",
                  "parse_element_text"),
    "pathspace": ("canonicalize",),
    "homology": ("index", "is_zero", "homology"),
    "intlin": ("smith_normal_form", "eventual_kernel"),
    "graphs": ("validate", "parse_graph"),
}
# layer module -> functions only counted
COUNTED = {
    "pathspace": ("intersect_pieces", "subtract_piece"),
    "graphs": ("find_path",),
}


class Stat:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Context manager that installs the wrappers and collects stats."""

    def __init__(self):
        self.stats = {}          # "module.function" -> Stat
        self.compose_pairs = 0   # sum of operand blocks x operand blocks
        self.compose_out = 0     # sum of output blocks
        self.compose_blocks_max = 0
        self._stack = []         # [child time] per open span
        self._patched = []       # (namespace dict, name, original)

    def _span(self, key, fn):
        st = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st.depth -= 1
                st.self_time += dur - frame[0]
                if st.depth == 0:
                    st.incl += dur
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _count(self, key, fn):
        st = self.stats.setdefault(key, Stat())

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _compose_sizes(self, fn):
        def wrapper(f, g_elt):
            out = fn(f, g_elt)
            self.compose_pairs += len(f.blocks) * len(g_elt.blocks)
            self.compose_out += len(out.blocks)
            self.compose_blocks_max = max(self.compose_blocks_max, len(f.blocks),
                                          len(g_elt.blocks), len(out.blocks))
            return out

        return wrapper

    def __enter__(self):
        replacements = {}
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"ggt.{layer}")
            for name in names:
                fn = getattr(mod, name)
                inner = self._compose_sizes(fn) if (layer, name) == ("fullgroup", "compose") else fn
                replacements[id(fn)] = (fn, self._span(f"{layer}.{name}", inner))
        for layer, names in COUNTED.items():
            mod = importlib.import_module(f"ggt.{layer}")
            for name in names:
                fn = getattr(mod, name)
                replacements[id(fn)] = (fn, self._count(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "ggt" and not modname.startswith("ggt."):
                continue
            ns = vars(mod)
            for name, value in list(ns.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, name, value))
                    ns[name] = hit[1]
        return self

    def __exit__(self, *exc):
        for ns, name, value in reversed(self._patched):
            ns[name] = value
        self._patched.clear()
        return False

    def calls(self, key) -> int:
        st = self.stats.get(key)
        return st.calls if st else 0

    def ms(self, key) -> float:
        st = self.stats.get(key)
        return 1000.0 * st.incl if st else 0.0

    def self_ms(self, key) -> float:
        st = self.stats.get(key)
        return 1000.0 * st.self_time if st else 0.0
