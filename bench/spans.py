"""Outside-in tracing: spans around the package's public functions.

A span wraps a module attribute by name.  Every ``eaqecne`` module that holds
the same function object gets the wrapper, so calls from inside a module and
names imported with ``from .x import f`` are caught too.  Spans carry the id
of the op that caused them and the index of their parent span, and stay in
memory (typed arrays, about 30 bytes each) until the run ends.  A target the
package no longer has is skipped and reports 0 calls.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute).  "addcodes.scan" is the minimum-weight
# enumeration under every distance, mindist and combine distance.
TARGETS = {
    "gf.field": ("gf", "field"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.kernel": ("linalg", "kernel"),
    "linalg.parse_matrix": ("linalg", "parse_matrix"),
    "symplectic.decompose": ("symplectic", "decompose"),
    "symplectic.symp_inner": ("symplectic", "symp_inner"),
    "symplectic.symp_dual": ("symplectic", "symp_dual"),
    "addcodes.dual": ("addcodes", "dual"),
    "addcodes.inner": ("addcodes", "inner"),
    "addcodes.radical_decompose": ("addcodes", "radical_decompose"),
    "addcodes.scan": ("addcodes", "min_weight_excluding_detail"),
    "eaqec.eaqec_params": ("eaqec", "eaqec_params"),
    "eaqec.combine_construct": ("eaqec", "combine_construct"),
    "fidelity.approx_fidelity": ("fidelity", "approx_fidelity"),
    "fidelity.sweep": ("fidelity", "sweep"),
    "fidelity.crossover_degradation": ("fidelity", "crossover_degradation"),
    "fidelity.curve_csv": ("fidelity", "curve_csv"),
    "cli.main": ("cli", "main"),
}

# Spans whose result carries a work count: the scan's words examined.
_COUNTED = {"addcodes.scan": "examined"}


class Tracer:
    """Records spans while installed; ``op`` tags the spans with an op id."""

    def __init__(self, targets=None):
        self.names = list(TARGETS if targets is None else targets)
        self._targets = TARGETS if targets is None else targets
        self.name_id = array("H")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = {}            # span index -> work count from the result
        self.op = -1
        self._stack = [-1]
        self._patches = []         # (module, attribute, original)
        self.missing = []

    def _wrap(self, nid: int, fn, count_attr):
        name_id, op_id, parent = self.name_id, self.op_id, self.parent
        start, end, stack, counts = self.start, self.end, self._stack, self.count
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            op_id.append(self.op)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count_attr is not None:
                counts[idx] = getattr(result, count_attr, 0)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "eaqecne" or k.startswith("eaqecne."))]
        self.missing = []
        for nid, name in enumerate(self.names):
            mod_name, attr = self._targets[name]
            home = sys.modules.get(f"eaqecne.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(nid, original, _COUNTED.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def arrays(self):
        """Copies per span: name id, op id, parent index, duration, self time."""
        nid = np.array(self.name_id, dtype=np.int64)
        op = np.array(self.op_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has = parent >= 0
        if has.any():
            child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, op, parent, dur, dur - child
