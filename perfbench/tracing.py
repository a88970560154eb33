"""Timing wrappers installed around locaray's layers from outside the package.

Each wrapper replaces a name that a calling module bound at import time:
``construct`` reaches ``sa_run`` as ``locaray.search.sa_run``, and ``sa_run``
reaches the index and the neighbour selection through the names bound in
``locaray.anneal``.  The package itself is left unchanged.  The package
``__init__`` rebinds ``locaray.cost`` and ``locaray.verify`` to the ``cost()``
and ``verify()`` functions, so the submodules are taken from ``sys.modules``.

A span is (name, start, end, parent), with parent the index of the span that
was open when it began (-1 at the root).  Spans are kept in memory; a layer's
self time is its duration minus the durations of its direct children.  The
wrappers draw no random numbers, so a traced run builds the same arrays as an
untraced one.
"""

import contextlib
import json
import statistics
import sys
import time

# (module, bound name, span name)
TARGETS = (
    ("locaray.search", "sa_run", "anneal.sa_run"),
    ("locaray.anneal", "random_array", "model.random_array"),
    ("locaray.anneal", "build_index", "cost.build_index"),
    ("locaray.anneal", "select_neighbor_proposed", "anneal.select"),
    ("locaray.anneal", "apply_move", "cost.apply_move"),
    ("locaray.anneal", "undo_move", "cost.undo_move"),
    ("locaray.cost", "enumerate_interactions", "model.catalog"),
    ("locaray.verify", "enumerate_interactions", "model.catalog"),
    ("locaray.verify", "verify", "verify.verify"),
    ("locaray.verify", "locate_fault", "verify.locate_fault"),
)


class Tracer:
    """Spans and move counters of one traced pass."""

    def __init__(self):
        # a span's slot is reserved when it opens and filled when it closes
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open = [-1]
        self.entry_changes = 0
        self.applied = 0
        self.undone = 0
        self.uphill = 0

    def _wrap(self, name, fn, on_return=None):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    # sa_run calls apply_move(index, array, move, weight) and
    # undo_move(index, array, move) positionally; a move applies one entry
    # change per assignment, and undoing it applies as many again.
    def _on_apply(self, args, delta):
        self.applied += 1
        self.entry_changes += len(args[2].assignments)
        if delta > 0:
            self.uphill += 1

    def _on_undo(self, args, _result):
        self.undone += 1
        self.entry_changes += len(args[2].assignments)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        hooks = {"cost.apply_move": self._on_apply, "cost.undo_move": self._on_undo}
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, hooks.get(span)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, medians and ratios of this pass (times in s unless named)."""
        spans = self.spans
        durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        sa_self = sum(
            end - start - child_time[i]
            for i, (name, start, end, _) in enumerate(spans)
            if name == "anneal.sa_run"
        )

        def total(name):
            return sum(durations.get(name, ()))

        def p50(name):
            values = durations.get(name)
            return statistics.median(values) if values else 0.0

        kept = self.applied - self.undone
        move_s = total("cost.apply_move") + total("cost.undo_move")
        return {
            "cost.apply_move.s": total("cost.apply_move"),
            "cost.apply_move.us_p50": p50("cost.apply_move") * 1e6,
            "cost.undo_move.s": total("cost.undo_move"),
            "cost.undo_move.us_p50": p50("cost.undo_move") * 1e6,
            "cost.entry_changes": self.entry_changes,
            "cost.us_per_entry_change": _ratio(move_s, self.entry_changes) * 1e6,
            "cost.build_index.s": total("cost.build_index"),
            "cost.build_index.ms_p50": p50("cost.build_index") * 1e3,
            "anneal.sa_run.self_s": sa_self,
            "anneal.iterations": self.applied,
            "anneal.select.s": total("anneal.select"),
            "anneal.select.us_p50": p50("anneal.select") * 1e6,
            "anneal.accept_ratio": _ratio(kept, self.applied),
            # sa_run undoes only rejected moves, and only uphill moves are rejected
            "anneal.uphill_ratio": _ratio(self.uphill - self.undone, kept),
            "model.catalog.s": total("model.catalog"),
            "model.random_array.s": total("model.random_array"),
            "verify.verify.s": total("verify.verify"),
            "verify.locate_fault.s": total("verify.locate_fault"),
        }

    def write_jsonl(self, fh, pass_no: int) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"pass": pass_no, "id": i, "name": name, "start": start, "end": end, "parent": parent}))
            fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
