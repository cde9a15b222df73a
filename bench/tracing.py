"""In-memory spans around calls into the stgp modules, recorded from outside.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1.  Span names are "<module>.<function>",
so the module part is the layer a span's time belongs to.

`Tracer.patch` swaps a module (or class) attribute for a wrapper that opens a
span around each call, and `restore` puts the originals back.  Callers look
those names up at call time, so a traced pass runs exactly the program code
of an untraced pass plus one wrapper call per span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def patch(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _root(self, i: int) -> str:
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return self.spans[i][0]

    def total(self, name: str, root: Optional[str] = None) -> float:
        """Summed duration of the spans called `name`, optionally only those
        under a root span called `root`."""
        return sum(end - start
                   for i, (n, start, end, _) in enumerate(self.spans)
                   if n == name and (root is None or self._root(i) == root))

    def self_times(self, roots: Sequence[str]) -> Dict[str, float]:
        """Per layer: durations of the spans under the given roots minus the
        time their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if self._root(i) in roots:
                out[name.split(".", 1)[0]] += (end - start) - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write the spans with start times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
