"""Layer spans recorded from outside the program.

The tracer replaces, for the duration of a ``with`` block, the package
functions that ``covertcap.cli`` calls with wrappers that record a span per
call and keep the call's return value.  Only names in the ``covertcap.cli``
namespace are replaced, plus ``covertcap.lower_bound.f_s``, which is counted
but not timed; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# name in covertcap.cli -> layer it enters
LAYER_OF = {
    "load_channel_spec": "core.load_spec",
    "validate_instance": "core.load_spec",
    "weight_parameter": "core.load_spec",
    "lower_bound": "lower_bound.lower_bound",
    "upper_bound": "converse.upper_bound",
    "upper_bound_grid_oracle": "converse.grid_oracle",
    "covert_capacity": "closed_forms.covert_capacity",
    "generate_codebook": "ppm.codebook",
    "estimate_error": "ppm.estimate_error",
    "covertness_mc": "ppm.covertness_mc",
    "covertness_exact": "ppm.covertness_exact",
    "expurgate": "ppm.expurgate",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Spans ``(name, start, end, parent)`` kept in memory, with per-call results.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.
    ``results`` holds ``(layer, return value, kwargs)`` of every wrapped call
    since it was last cleared; ``f_evals`` counts ``f_s`` calls.
    """

    def __init__(self, cli_module, lower_bound_module):
        self._targets = [(cli_module, name) for name in LAYER_OF] + [(lower_bound_module, "f_s")]
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.results: list[tuple[str, object, dict]] = []
        self.f_evals = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            self.results.append((layer, result, kwargs))
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.f_evals += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        for module, name in self._targets:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            wrapper = self._count(fn) if name == "f_s" else self._wrap(LAYER_OF[name], fn)
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (duration minus direct children) and call count per span name."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls
