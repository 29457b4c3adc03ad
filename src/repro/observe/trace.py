"""Span-tree tracer with content-derived ids and a free disabled path.

A :class:`Tracer` records a nested tree of :class:`Span` nodes — phase →
structure group → assembly → per-block work — each carrying three strictly
separated payloads:

* ``attributes`` — **deterministic** facts about the work itself (element
  counts, block ranks, solver iterations, content fingerprints).  These are
  pure functions of the run's inputs, never of its scheduling, so the
  attribute payload of a span is bit-identical across pool worker counts.
* ``volatile`` — run/host-dependent data (worker slots, shard loads, relative
  timestamps, backend labels).  Excluded from the canonical projection and
  from span ids.
* ``duration_seconds`` — the :func:`repro.timing.wall_clock` wall of the
  span, also excluded from the canonical projection.

Nodes come in two kinds.  ``"span"`` nodes describe *what work happened* and
form the deterministic tree; ``"event"`` nodes describe *scheduling
happenings* (chunk dispatch, retry, respawn) whose count and order legally
vary between runs — they are always dropped from the canonical projection,
which is what lets the golden suite assert byte-identical traces across
worker counts and across fault-injected/recovered runs.

Span ids are derived from content, not clock or entropy (DET002 stays
clean): each id is a blake2b fingerprint of the parent id, the span name,
the span's ordinal among its *span* siblings and its canonical attribute
JSON.  Two runs of the same inputs therefore produce the same ids, making
traces from recovered, replayed or differently-sharded runs directly
comparable node-by-node.

The disabled path is a single attribute check: every hot loop guards on
``tracer.enabled`` and the shared :data:`NULL_TRACER` singleton makes every
recording method a no-op, so an uninstrumented run pays (asserted <2% on the
quick bench) nothing for the machinery.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.observe.metrics import MetricsRegistry
from repro.timing import wall_clock

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer", "ensure_tracer"]


def _canonical_json(payload: Any) -> str:
    """Sorted-key JSON with a stable fallback for exotic values."""
    return json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))


@dataclass
class Span:
    """One node of the trace tree (a unit of work, or an event within one)."""

    name: str
    kind: str = "span"  # "span" (deterministic tree) | "event" (scheduling)
    attributes: dict[str, Any] = field(default_factory=dict)
    volatile: dict[str, Any] = field(default_factory=dict)
    duration_seconds: float | None = None
    children: list["Span"] = field(default_factory=list)
    span_id: str = ""

    def child_spans(self) -> list["Span"]:
        """The ``"span"``-kind children, in recording order."""
        return [child for child in self.children if child.kind == "span"]

    def events(self) -> list["Span"]:
        """The ``"event"``-kind children, in recording order."""
        return [child for child in self.children if child.kind == "event"]

    def walk(self) -> Iterator["Span"]:
        """This node and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def canonical_attributes(self) -> str:
        """The deterministic attribute payload as sorted-key JSON."""
        return _canonical_json(self.attributes)


def assign_span_ids(roots: list[Span], parent_id: str = "") -> None:
    """Derive content-fingerprint ids for every node under ``roots``.

    A span's id hashes ``parent_id | name | ordinal | attributes`` where the
    ordinal counts preceding *span* siblings only — event counts may legally
    differ between runs (retries, respawns) and must never shift the ids of
    the deterministic tree around them.  Events get ids in a separate
    ordinal space (prefixed ``e:``), unique within the trace but with no
    cross-run stability promise.
    """
    span_ordinal = 0
    event_ordinal = 0
    for node in roots:
        if node.kind == "span":
            seed = f"{parent_id}|{node.name}|{span_ordinal}|{node.canonical_attributes()}"
            span_ordinal += 1
        else:
            seed = f"e:{parent_id}|{node.name}|{event_ordinal}"
            event_ordinal += 1
        node.span_id = hashlib.blake2b(seed.encode("utf-8"), digest_size=8).hexdigest()
        assign_span_ids(node.children, node.span_id)


class Tracer:
    """Records a span tree plus a :class:`MetricsRegistry` for one run.

    ``profile`` optionally attaches a
    :class:`~repro.observe.profile.ResourceProfiler`: every ``span()``
    block additionally gets volatile ``cpu_seconds`` / ``mem_peak_kb``
    stamps.  The default stays ``None`` — one ``is not None`` check per
    span, nothing on the :data:`NULL_TRACER` path — so profiling is
    strictly opt-in and the canonical projection never changes either way.
    """

    enabled: bool = True

    def __init__(
        self, metrics: MetricsRegistry | None = None, profile: Any = None
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profile = profile
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- recording ---------------------------------------------------------

    def _attach(self, node: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)

    @contextmanager
    def span(self, name: str, /, **attributes: Any) -> Iterator[Span]:
        """Open a child span for a ``with`` block, timing it via wall_clock."""
        node = Span(name=name, attributes=dict(attributes))
        self._attach(node)
        self._stack.append(node)
        profile = self.profile
        if profile is not None:
            profile.enter(node)
        start = wall_clock()
        try:
            yield node
        finally:
            node.duration_seconds = wall_clock() - start
            if profile is not None:
                profile.exit(node)
            self._stack.pop()

    def record_span(
        self,
        name: str,
        /,
        duration_seconds: float | None = None,
        volatile: dict[str, Any] | None = None,
        **attributes: Any,
    ) -> Span:
        """Append an already-measured span (work executed elsewhere).

        The hierarchical block builder runs block work on pool workers and
        only learns per-task durations after collection; it re-emits those
        units here, in canonical (ascending block) order, so the trace tree
        is identical for every worker count.
        """
        node = Span(
            name=name,
            attributes=dict(attributes),
            volatile=dict(volatile) if volatile else {},
            duration_seconds=duration_seconds,
        )
        self._attach(node)
        return node

    def event(self, name: str, /, **data: Any) -> Span:
        """Append a scheduling event (dispatch/retry/respawn) to the open span.

        All event payload is volatile by definition — events exist precisely
        because their occurrence depends on scheduling, faults and timing.
        """
        node = Span(name=name, kind="event", volatile=dict(data))
        self._attach(node)
        return node

    def annotate(self, **attributes: Any) -> None:
        """Add deterministic attributes to the innermost open span."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def annotate_volatile(self, **data: Any) -> None:
        """Add volatile (run-dependent) data to the innermost open span."""
        if self._stack:
            self._stack[-1].volatile.update(data)

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def graft(self, roots: list[Span]) -> None:
        """Attach finished subtrees recorded by a branch tracer.

        Concurrent pipelines record each in-flight branch on its own
        ``Tracer`` (isolated span stack), then graft the branch roots under
        the main tracer's open span **in canonical order** once the branch
        completes.  Ids are assigned only at :meth:`finalize`, so grafted
        nodes get exactly the ids they would have had if recorded inline —
        the canonical projection is independent of completion order.
        """
        for node in roots:
            self._attach(node)

    # -- finishing ---------------------------------------------------------

    def finalize(self) -> list[Span]:
        """Assign content-derived ids over the whole tree and return roots."""
        assign_span_ids(self.roots)
        return self.roots

    def stats(self) -> dict[str, int]:
        """Node counts of the recorded tree (spans vs events)."""
        spans = 0
        events = 0
        for root in self.roots:
            for node in root.walk():
                if node.kind == "span":
                    spans += 1
                else:
                    events += 1
        return {"spans": spans, "events": events}


class _NullSpanContext:
    """Shared allocation-free context manager yielding no span."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The default tracer: every recording call is a no-op.

    ``span()`` returns a shared context manager yielding ``None`` — callers
    that need the yielded span object must guard on ``tracer.enabled`` (the
    single attribute check that keeps disabled overhead immeasurable).  The
    metrics registry exists (bounded state, never exported) so unguarded
    ``tracer.metrics`` access stays valid.
    """

    enabled = False

    def span(self, name: str, /, **attributes: Any) -> Any:  # type: ignore[override]
        return _NULL_CONTEXT

    def record_span(
        self,
        name: str,
        /,
        duration_seconds: float | None = None,
        volatile: dict[str, Any] | None = None,
        **attributes: Any,
    ) -> Span | None:  # type: ignore[override]
        return None

    def event(self, name: str, /, **data: Any) -> Span | None:  # type: ignore[override]
        return None

    def annotate(self, **attributes: Any) -> None:
        return None

    def annotate_volatile(self, **data: Any) -> None:
        return None

    def graft(self, roots: list[Span]) -> None:
        return None


#: Shared no-op tracer used wherever ``tracer=None`` was passed.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Tracer | None) -> Tracer:
    """``tracer`` itself, or the shared :data:`NULL_TRACER` when ``None``."""
    return tracer if tracer is not None else NULL_TRACER
