"""In-memory spans and counts around quatbraid's public functions.

The tracer patches functions from outside the program: a module-level
function is rebound in every quatbraid module that holds it (so
``from x import f`` call sites are covered too), and a method is replaced on
its class.  ``uninstall`` restores every original.

A span records (name, start, end, parent index).  A span name's inclusive
time counts only its outermost occurrence on the stack; its self time is the
duration minus the time covered by child spans.  Hot leaf calls (scalar
products, the word sign rule, permutation composition) are counted, not
spanned.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.keep_spans = True
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def enter(self, name: str):
        idx = -1
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0, idx])

    def exit(self):
        end = perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end
        self.self_time[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def reset(self):
        """Drop all counts, times and spans (only between passes: no span open)."""
        self.counts.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.spans = []

    # --- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(args) runs first, after(result) last."""
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """fn (positional arguments only) with a call counter."""
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ----------------------------------------------------------

    def patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def patch_function(self, module, attr: str, make):
        """Replace module.attr everywhere a quatbraid module binds the same object."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is not module and name != "quatbraid" and not name.startswith("quatbraid."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
