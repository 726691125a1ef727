"""In-memory spans recorded around calls into the combword package.

The tracer wraps public callables from outside the package (module
attributes, class methods, or attributes of one object), so the package
itself carries no instrumentation. Each span is (name, start, end, parent,
run id); a span's self time is its duration minus the time its direct
children cover. Spans stay in memory until ``write`` dumps them at exit.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def span(self, name: str, fn):
        """`fn` wrapped so that every call records one span called `name`."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace `owner.attr` by its traced form until `restore` is called."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, self.span(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), covered in zip(self.spans, child):
            out[name] += (t1 - t0) - covered
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "run": self.run_id}) + "\n")
