"""In-memory span tracing around the library's layer boundaries.

The tracer wraps callables from outside the package: it replaces module
attributes (``beliefs.solve_lp``, ``_kernels.pattern_valid_flags``,
``cli.exact_feasibility``, ``Population.__init__``, ...) with timing
wrappers and puts the originals back on ``restore``.  No file of the package
changes.

Every wrapped call opens a frame on a stack.  A frame's self time is its
duration minus the time of the wrapped calls made inside it.  Ordinary
boundaries become span records (id, name, start, end, parent, task id, self
time).  *Leaf* boundaries that run hundreds of thousands of times per task
(population construction, SWF scoring, instance checks) are aggregated per
name instead of recorded one by one, so the audit workload does not hold
millions of spans; their time still counts against the enclosing span.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.task_id = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        # layer -> seconds spent in calls not nested inside the same layer
        self.layer_outer: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name, leaf: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``after(counts, args, kwargs, result)`` records work
        counters from a call that returned.
        """
        orig = getattr(owner, attr)
        tracer = self
        stack = self._stack
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            span_name = name_of(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [span_name, 0.0, None if leaf else tracer._new_id()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(span_name, frame, parent, start, end, leaf)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _close(self, name, frame, parent, start, end, leaf):
        dur = end - start
        self_time = dur - frame[1]
        if parent is not None:
            parent[1] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += self_time
        layer = name.split(".", 1)[0]
        if parent is None or parent[0].split(".", 1)[0] != layer:
            self.layer_outer[layer] += dur
            self.counts[f"{layer}.outer_calls"] += 1
        if not leaf:
            parent_id = parent[2] if parent is not None else None
            self.spans.append((frame[2], name, start, end, parent_id, self.task_id, self_time))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.totals.clear()
        self.layer_outer.clear()
        self._next_id = 0

    def write_spans(self, path, header: dict) -> None:
        """Write the header and one JSON line per span (leaf totals last)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, name, start, end, parent, task, self_time in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "task": task,
                            "self": self_time,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"totals": self.totals, "counts": dict(self.counts)}) + "\n")
