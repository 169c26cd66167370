"""In-process tracing for the benchmark's traced run.

``Tracer`` replaces chosen functions with wrappers that record one span per
call, in every spinorlab module namespace that binds the function, so that a
call made through ``cli`` or through ``mapping`` is caught alike.  A span is
``[name, start_ns, end_ns, parent, item]``: ``parent`` is the index of the
enclosing span, ``item`` the input record (or suite) the call served.  Spans
stay in memory until the run writes them out.  Count-only wrappers bump a
counter and record no span.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # calls counted without a span
        self.raised: Counter = Counter()  # span calls that ended in an exception
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---- recording -----------------------------------------------------

    def _span_wrapper(self, name: str, fn, item_of=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if item_of is not None:
                self.item = item_of(args)
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else None, self.item])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()

        return wrapper

    def root(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a top-level span ``name``."""
        return self._span_wrapper(name, fn)(*args)

    # ---- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_function(self, name: str, original, item_of: dict | None = None) -> None:
        """Wrap ``original`` wherever a spinorlab module binds it.

        ``item_of`` maps a module name to a function of the call's arguments
        that gives the item id; calls through that module start a new item.
        """
        item_of = item_of or {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinorlab" and not mod_name.startswith("spinorlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    wrapper = self._span_wrapper(name, original, item_of.get(mod_name))
                    self._patch(module, attr, wrapper)

    def wrap_method(self, name: str, cls, attr: str) -> None:
        self._patch(cls, attr, self._span_wrapper(name, getattr(cls, attr)))

    def wrap_module_function(self, name: str, owner, module_attr: str, attr: str, item_of=None) -> None:
        """Wrap ``owner.<module_attr>.<attr>`` for ``owner`` only, via a module proxy.

        Used for stdlib functions such as ``json.dumps``, so that the
        benchmark's own calls into the same stdlib module stay untraced.
        """
        module = getattr(owner, module_attr)
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        setattr(proxy, attr, self._span_wrapper(name, getattr(module, attr), item_of))
        self._patch(owner, module_attr, proxy)

    def count_calls(self, name: str, cls, attr: str, when=None) -> None:
        """Count calls of ``cls.attr`` (those where ``when(args)`` holds) without spans."""
        original = getattr(cls, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if when is None or when(args):
                counts[name] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------

    def totals(self, first: int = 0, end: int | None = None) -> dict:
        """Per span name over ``spans[first:end]``: ``(calls, self_ns)``.

        Self time is a span's duration minus that of its child spans; the
        range must hold whole trees, as one traced pass does.
        """
        spans = self.spans[first:end]
        child_ns = [0] * len(spans)
        for _, start, stop, parent, _ in spans:
            if parent is not None:
                child_ns[parent - first] += stop - start
        out: dict = {}
        for (name, start, stop, _, _), children in zip(spans, child_ns):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + (stop - start) - children)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
