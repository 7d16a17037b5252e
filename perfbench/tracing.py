"""In-memory spans around the benchmark's calls into streakcount's layers.

A span has a name, a start, an end, the span that caused it and the round
it belongs to; numeric attributes set on it are work counters.  Spans stay
in memory and are written out once, when the run ends.  With tracing off,
span() hands back one shared no-op context, so the untraced run pays for a
method call and nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "round", "attrs", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.round = tracer.round_id
        self.attrs: dict[str, float] = {}

    def __enter__(self) -> dict[str, float]:
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr._stack[-1].id if tr._stack else None
        tr.spans.append(self)
        tr._stack.append(self)
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, *exc: object) -> bool:
        self.end = perf_counter()
        self.tracer._stack.pop()
        return False


class _Off:
    def __enter__(self) -> dict[str, float]:
        return {}

    def __exit__(self, *exc: object) -> bool:
        return False


_OFF = _Off()


class Tracer:
    """Collects spans while on; round_id tags each span with its round."""

    def __init__(self) -> None:
        self.on = False
        self.round_id = -1
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []

    def span(self, name: str):
        if not self.on:
            return _OFF
        return _Span(self, name)

    def totals(self, round_id: int) -> dict[str, float]:
        """Self time (s) per span name, and each counter summed, in one round.

        Self time is a span's duration less the time its child spans cover.
        Counter c of span name x is reported as "x#c".
        """
        spans = [sp for sp in self.spans if sp.round == round_id]
        child_time: dict[int, float] = {}
        for sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.end - sp.start
        out: dict[str, float] = {}
        for sp in spans:
            out[sp.name] = (out.get(sp.name, 0.0) + sp.end - sp.start
                            - child_time.get(sp.id, 0.0))
            for key, value in sp.attrs.items():
                out[f"{sp.name}#{key}"] = out.get(f"{sp.name}#{key}", 0.0) + value
        return out

    def write(self, path: Path, t0: float) -> None:
        """All spans as JSON records, times in seconds from t0."""
        records = [{"id": sp.id, "parent": sp.parent, "name": sp.name,
                    "round": sp.round,
                    "start": round(sp.start - t0, 9), "end": round(sp.end - t0, 9),
                    "attrs": sp.attrs}
                   for sp in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records))
