"""Outside-in span tracer for the liegrowth benchmark.

The tracer wraps public functions of the package from outside.  Every
attribute of every loaded ``liegrowth`` module that is bound to a wrapped
function is rebound to a timing wrapper.  That catches calls made through a
name imported into another module (``difflie`` binds ``lie_component`` and
``smith_normal_form_matrix``, ``moore`` binds ``basic_products``) as well as
calls through a module's own globals (``_fp.rank`` calls ``_fp.rref``).
Nothing in the package is edited.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` lists, in
the order they were opened; ``parent`` is the index of the enclosing span or
-1.  :func:`self_times` turns them into per-name self time: a span's duration
minus the part covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """A wrapper around ``fn`` that records one span per call.

        ``describe(args, kwargs, result)`` returns a small dict stored on the
        span; it runs after the span is closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if describe is not None:
                self.spans[sid][4] = describe(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, targets):
    """Rebind each target in every loaded ``liegrowth`` module.

    ``targets`` holds ``(span name, module name, attribute, describe)``.
    """
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "liegrowth" or name.startswith("liegrowth.")
    ]
    for span_name, module_name, attr, describe in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, describe)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)


def self_times(spans) -> dict:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, _, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def ancestors_of(spans, descendant_name: str) -> set:
    """Indices of every span that has a span named ``descendant_name``
    somewhere below it."""
    out = set()
    for name, parent, *_ in spans:
        if name == descendant_name:
            while parent >= 0 and parent not in out:
                out.add(parent)
                parent = spans[parent][1]
    return out
