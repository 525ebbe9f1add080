"""Spans recorded from outside the program, around calls into its layers.

Nothing under ``src/`` knows about tracing.  The harness records a span
(``name, start, end, parent, op_id``) around each phase it drives, and
in a ``--trace 1`` run it additionally wraps a fixed list of the
program's *public* functions (``LAYER_POINTS``) so calls the program
makes into its own layers show up as child spans.  Spans stay in memory
and are written out once, when the run ends.

A layer's *self time* is its spans' duration minus the time covered by
their direct children; children of one span run on the same thread and
do not overlap, so that is a plain subtraction.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: One clock for every timestamp the harness takes.  On Linux this is
#: ``CLOCK_MONOTONIC``, shared by all processes of the host, so spans
#: shipped back by the gateway child line up with the parent's.
now = time.monotonic

#: ``(module, qualified attribute, span name)``.  Functions imported by
#: name (``from x import f``) are bound once per importing module, so a
#: function used from several modules is listed once per binding.
LAYER_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.sisg", "build_enriched_corpus", "enrichment.build"),
    ("repro.core.incremental", "build_enriched_corpus", "enrichment.build"),
    ("repro.core.sampling", "PairGenerator.materialize_pairs", "sampling.materialize_pairs"),
    ("repro.core.sampling", "AliasSampler.__init__", "sampling.alias_build"),
    ("repro.core.sgns", "SGNSTrainer.fit", "sgns.fit"),
    ("repro.core.hogwild", "ParallelSGNSTrainer.fit", "hogwild.fit"),
    ("repro.core.hogwild", "shard_sequences", "hogwild.shard"),
    ("repro.core.similarity", "SimilarityIndex.__init__", "similarity.index_build"),
    ("repro.core.ann", "IVFIndex.__init__", "ann.build"),
    ("repro.serving.store", "build_candidate_table", "candidates.build"),
    ("repro.serving.sharding", "build_candidate_table", "candidates.build"),
    ("repro.serving.store", "build_bundle", "store.build_bundle"),
    ("repro.serving.refresh", "build_bundle", "store.build_bundle"),
    ("repro.streaming.applier", "build_bundle", "store.build_bundle"),
    ("repro.serving.sharding", "build_shard_bundle", "sharding.build_shard_bundle"),
    ("repro.serving.refresh", "build_shard_bundle", "sharding.build_shard_bundle"),
    ("repro.streaming.applier", "build_shard_bundle", "sharding.build_shard_bundle"),
    ("repro.serving.store", "ModelStore.swap", "store.swap"),
    ("repro.serving.refresh", "incremental_update", "incremental.update"),
    ("repro.streaming.applier", "incremental_update", "incremental.update"),
    ("repro.serving.refresh", "embedding_drift", "incremental.drift"),
    ("repro.streaming.applier", "embedding_drift", "incremental.drift"),
    ("repro.streaming.window", "MicroBatchWindower.next_window", "window.next_window"),
    ("repro.graph.hbgp", "hbgp_partition", "hbgp.partition"),
)


class Tracer:
    """Collects spans; optionally wraps the program's layer entry points.

    ``span()`` always records (the end-to-end metrics are read off the
    phase spans, a few dozen per run).  ``install()`` adds the wrappers
    of ``LAYER_POINTS`` and is only called in a traced run, so an
    untraced run executes the program's functions unmodified.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, op_id: "str | None" = None):
        """Record one span; nested spans on a thread link to their parent."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent["op_id"]
        record = {
            # The pid keeps ids unique once the child's spans are adopted.
            "id": f"{os.getpid()}-{next(self._ids)}",
            "name": name,
            "start": now(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "op_id": op_id,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = now()
            stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Add spans recorded by another process (the gateway child)."""
        self.spans.extend(spans)

    # -- wrapping the program's layer entry points ---------------------

    def install(self) -> None:
        """Wrap every ``LAYER_POINTS`` target with a span (idempotent)."""
        if self._patched:
            return
        for module_name, qualname, span_name in LAYER_POINTS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapped(original, span_name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrapped(self, fn, span_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)

        return traced

    # -- reading -------------------------------------------------------

    def finished(self) -> list[dict]:
        return [s for s in self.spans if s["end"] is not None]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.finished() if s["name"] == name]

    def self_times(self, keep=None) -> dict[str, float]:
        """Total self time per span name, over the spans ``keep`` accepts.

        Self time is a span's duration minus what its direct children cover.
        """
        spans = self.finished()
        covered: dict[str, float] = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in spans:
            if keep is None or keep(s):
                own = max(s["end"] - s["start"] - covered.get(s["id"], 0.0), 0.0)
                totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.finished()}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    tracer = Tracer()
    start = now()
    for _ in range(n):
        with tracer.span("calibrate"):
            pass
    return (now() - start) / n
