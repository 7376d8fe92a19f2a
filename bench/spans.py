"""In-memory span recorder for the bfl benchmark.

Spans are recorded from outside the program: `Tracer.patched` swaps a
module attribute (a public bfl function, looked up by name at its use site)
for a wrapper that times each call.  A span is the list

    [name, wall_start, wall_end, cpu_start, cpu_end, parent, cell, info]

where `parent` is the index of the enclosing span (-1 at top level), `cell`
the id of the experiment cell it belongs to, and `info` whatever the site's
info function derived from the call's arguments and result.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

NAME, T0, T1, C0, C1, PARENT, CELL, INFO = range(8)


class Site(NamedTuple):
    """One wrapped function: `module.attr` becomes a span called `name`.

    `name` may be a callable of (args, kwargs) for spans named by argument.
    `info(args, kwargs, result)` returns the span's info.  A site with
    `new_cell` starts a new cell id on every call.
    """

    module: Any
    attr: str
    name: Any
    info: Optional[Callable] = None
    new_cell: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.cell = 0
        self._stack: List[int] = []

    def wrap(self, fn: Callable, site: Site) -> Callable:
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            if site.new_cell:
                self.cell += 1
            label = site.name(args, kwargs) if callable(site.name) else site.name
            rec = [label, 0.0, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.cell, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[C0] = cpu()
            rec[T0] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                rec[C1] = cpu()
                stack.pop()
            if site.info is not None:
                rec[INFO] = site.info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, sites: Iterable[Site]):
        """Install a wrapper at every site; restore the originals on exit."""
        saved = []
        try:
            for site in sites:
                original = getattr(site.module, site.attr)
                saved.append((site.module, site.attr, original))
                setattr(site.module, site.attr, self.wrap(original, site))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Wall self time of every span, in seconds."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[T1] - rec[T0]
    return [rec[T1] - rec[T0] - c for rec, c in zip(spans, child)]


def by_name(spans: List[list]) -> Dict[str, Dict[str, Any]]:
    """Per span name: call count, inclusive and self wall seconds, infos."""
    table: Dict[str, Dict[str, Any]] = {}
    for rec, own in zip(spans, self_times(spans)):
        row = table.setdefault(rec[NAME], {"calls": 0, "wall": 0.0, "self": 0.0, "infos": []})
        row["calls"] += 1
        row["wall"] += rec[T1] - rec[T0]
        row["self"] += own
        if rec[INFO] is not None:
            row["infos"].append(rec[INFO])
    return table


def children(spans: List[list], name: str) -> Dict[int, List[list]]:
    """The spans called `name`, grouped by parent index, in call order."""
    groups: Dict[int, List[list]] = {}
    for rec in spans:
        if rec[NAME] == name:
            groups.setdefault(rec[PARENT], []).append(rec)
    return groups


def dump(spans: List[list], path: str) -> None:
    """Write spans as JSON lines; info keeps only its scalar fields."""
    with open(path, "w") as fh:
        for rec in spans:
            info = rec[INFO] if isinstance(rec[INFO], dict) else {}
            scalars = {k: v for k, v in info.items() if isinstance(v, (bool, int, float, str))}
            fh.write(json.dumps({
                "name": rec[NAME], "start": rec[T0], "end": rec[T1],
                "parent": rec[PARENT], "cell": rec[CELL], "info": scalars,
            }) + "\n")
