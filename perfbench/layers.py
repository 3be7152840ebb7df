"""Per-layer tracing from outside the package.

Timing wrappers are installed on the module attributes through which the
package's own callers look its functions up (e.g. `assemble` in
`ltivp.laplace`, `expm` in the `ltivp.simulate` module), so no file of the
package changes.  Spans (name, op, start, end, parent) stay in memory and
are written when the run ends.  Per-sample `Signal.__call__` calls are far
too many for one span each; they are counted, and their time summed, on the
enclosing span.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# span record fields; PARENT is the index of the enclosing span, or -1
NAME, OP, START, END, PARENT, CHILD_S, SIG_CALLS, SIG_S, RAISED = range(9)
FIELDS = ("name", "op", "start", "end", "parent", "child_s", "signal_calls", "signal_s", "raised")

# (metric prefix, module, attribute): wrapped where the callers look them up
TARGETS = (
    ("signal.laplace_transform", "ltivp.laplace", "laplace_transform"),
    ("laplace.assemble", "ltivp.laplace", "assemble"),
    ("poly.partial_fractions", "ltivp.laplace", "partial_fractions"),
    ("poly.poly_roots", "ltivp.poly", "poly_roots"),
    ("signal.from_partial_fractions", "ltivp.laplace", "from_partial_fractions"),
    ("ic.map_previous_to_first", "ltivp.laplace", "map_previous_to_first"),
    ("realization.observable_canonical", "ltivp.simulate", "observable_canonical"),
    ("ic.recover_state", "ltivp.simulate", "recover_state"),
    ("simulate.simulate", "ltivp.simulate", "simulate"),
)
EXPM = "simulate.expm"
SIGNAL_CALL = "signal.Signal.__call__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.on = False
        self.expm: tuple[object, object] | None = None
        self.patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        spans, stack = self.spans, self.stack
        rec = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0, 0.0, False]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            end = rec[END] = time.perf_counter()
            stack.pop()
            if stack:
                spans[stack[-1]][CHILD_S] += end - rec[START]
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def counted(self, fn):
        """Aggregate calls of fn into the enclosing span: a count and summed time."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if stack:
                    top = spans[stack[-1]]
                    top[SIG_CALLS] += 1
                    top[SIG_S] += dt
                    top[CHILD_S] += dt

        return counted

    # -- installing -----------------------------------------------------------

    def wrap_expm_before_import(self) -> None:
        """Replace scipy.linalg.expm before ltivp is imported.

        A module that does `from scipy.linalg import expm`, at import time or
        lazily inside a function later, then picks up the wrapper too.
        """
        import scipy.linalg

        original = scipy.linalg.expm
        self.expm = (original, self.wrap(EXPM, original))
        self.patches.append((scipy.linalg, "expm", *self.expm))
        scipy.linalg.expm = self.expm[1]

    def attach(self) -> None:
        """Wrap the package attributes in TARGETS and Signal.__call__; call after import."""
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self.patches.append((module, attr, original, self.wrap(name, original)))
        module = sys.modules.get("ltivp.simulate")
        if self.expm is not None and getattr(module, "expm", None) is self.expm[1]:
            self.patches.append((module, "expm", *self.expm))
        signal_cls = getattr(sys.modules.get("ltivp.signal"), "Signal", None)
        if signal_cls is None or "__call__" not in vars(signal_cls):
            self.absent.append(SIGNAL_CALL)
        else:
            original = vars(signal_cls)["__call__"]
            self.patches.append((signal_cls, "__call__", original, self.counted(original)))

    def enable(self, on: bool) -> None:
        self.on = on
        for obj, attr, original, wrapper in self.patches:
            setattr(obj, attr, wrapper if on else original)

    # -- reporting ------------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def duration(span) -> float:
    return span[END] - span[START]


def self_time(span) -> float:
    """Duration minus the time covered by child spans and counted calls."""
    return duration(span) - span[CHILD_S]


def median(values, default=None):
    values = list(values)
    return statistics.median(values) if values else default


def per_op(spans, field_fn, ops) -> list:
    """field_fn summed over spans of each op in `ops` (ops with none get 0)."""
    totals = defaultdict(float)
    for s in spans:
        totals[s[OP]] += field_fn(s)
    return [totals[op] for op in ops]
