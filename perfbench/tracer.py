"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into each fermigraph
module; nothing inside the library is instrumented.  Each span keeps its
name, start, end, parent span and item id (geometry/N, lattice graph or
oracle case), plus the repetition it belongs to.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

_NULL = nullcontext()


class NullTracer:
    """Tracer stand-in for the untraced run: spans cost one call."""

    active = False
    rep = None

    def span(self, name: str, item: Optional[str] = None):
        return _NULL


class Tracer:
    active = True

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.rep = None  # repetition index, or a label such as "breakdown"
        self.spans: List[list] = []  # [name, start, end, parent, item, rep]
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, item: Optional[str] = None):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, item, self.rep]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def best_self_time(self) -> Dict[str, float]:
        """Per span name: for each item, the least self time the name's
        spans took in any one repetition, summed over the items (the same
        estimator as the benchmark's ``run_s``)."""
        per_rep: Dict[tuple, float] = defaultdict(float)
        for (name, _, _, _, item, rep), own in zip(self.spans, self.self_times()):
            per_rep[name, item, rep] += own
        best: Dict[tuple, float] = {}
        for (name, item, _), own in per_rep.items():
            best[name, item] = min(best.get((name, item), own), own)
        out: Dict[str, float] = defaultdict(float)
        for (name, _), own in best.items():
            out[name] += own
        return dict(out)

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["spans"] = [
            {"name": name, "start": start - self.origin, "end": end - self.origin,
             "parent": parent, "item": item, "rep": rep}
            for name, start, end, parent, item, rep in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
