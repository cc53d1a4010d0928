"""In-memory spans recorded around calls into apxmm's public functions.

The benchmark traces from outside the package: while a `Tracer.patched`
block is open, every apxmm module attribute bound to one of the traced
functions is replaced by a wrapper that records a span, so calls made by
the package itself (svd_first_order_multiply calling randomized_partial_svd,
circulant_decompose calling cycle_reorder) nest under the caller's span.
The originals are restored when the block closes. Nothing under src/ is
modified.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call: `parent` is the index of the enclosing span or None."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one run; written out by the caller when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run_id, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, count=None):
        """`fn` inside a span; `name` is a string or a function of the call's
        arguments, `count` maps the result to a dict of counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    sp.attrs.update(count(out))
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace every `(owner, attribute, name[, count])` in `targets`.

        For module-level functions, each loaded apxmm module that imported
        the function under the same attribute name is patched as well.
        """
        saved = []
        try:
            for owner, attr, name, *count in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, *count)
                holders = [owner] if isinstance(owner, type) else [
                    m for key, m in list(sys.modules.items())
                    if (key == "apxmm" or key.startswith("apxmm."))
                    and getattr(m, attr, None) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

    def ancestor(self, index: int, names) -> int | None:
        """Index of the nearest enclosing span whose name is in `names`."""
        parent = self.spans[index].parent
        while parent is not None and self.spans[parent].name not in names:
            parent = self.spans[parent].parent
        return parent

    def summary(self) -> dict:
        """Median duration, median self time and count per span name."""
        selfs = self.self_times()
        by_name: dict[str, tuple[list, list]] = {}
        for sp, st in zip(self.spans, selfs):
            durs, own = by_name.setdefault(sp.name, ([], []))
            durs.append(sp.duration)
            own.append(st)
        return {name: {"count": len(d), "median_s": statistics.median(d),
                       "median_self_s": statistics.median(s)}
                for name, (d, s) in sorted(by_name.items())}

    def to_records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]
