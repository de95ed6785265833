"""Spans around the library's public functions, installed from outside.

Each wrapper replaces a function at the name its caller looks it up under
(for example ``chamtoy.model.attention``, which ``block_forward`` reads
from its module globals) and ``restore`` puts the original back, so
``src/`` is never edited.  Spans are kept in memory as
``[name, start, end, parent, op, kind]`` lists and written out once, at
the end of a run.  Wrappers record only inside ``recording()``, which the
workloads open around their timed regions.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """The tracer of an untraced pass: every hook does nothing."""

    def recording(self):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()

    def op_span(self, name: str, op):
        return nullcontext()

    def next_op(self, name: str, op) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer(NullTracer):
    """Records nested spans; spans of one step or request share an op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.active = False
        # (counter name, op id) -> value, filled by result hooks
        self.counters: dict[tuple, float] = defaultdict(float)
        self._saved: list[tuple] = []
        self._op_open = False

    def open(self, name: str, kind: str | None = None) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, kind])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def next_op(self, name: str, op) -> None:
        """End the current op's root span, if any, and open one for op."""
        self.end_op()
        self.op = op
        self.open(name)
        self._op_open = True

    def end_op(self) -> None:
        if self._op_open:
            self.close()
            self._op_open = False
        self.op = None

    @contextmanager
    def op_span(self, name: str, op):
        self.next_op(name, op)
        try:
            yield
        finally:
            self.end_op()

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind_of=None, on_result=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        kind_of(args, kwargs) labels the span (train / prefill / step for
        forward passes); on_result(tracer, args, result) records counters.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from original(*args, **kwargs))
                tracer.open(name)
                try:
                    return (yield from original(*args, **kwargs))
                finally:
                    tracer.close()
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                tracer.open(name, kind_of(args, kwargs) if kind_of else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if on_result is not None:
                    on_result(tracer, args, result)
                return result
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def _analyse(self):
        """Per span: duration, self time and kind.

        A span's kind is its own label or else that of its nearest
        labelled ancestor, so layer spans inherit train / prefill / step
        from the forward pass that called them.  Self time is a span's
        duration minus the durations of its direct children, which never
        overlap in a single-threaded run.
        """
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        self_time = list(dur)
        kind: list[str | None] = [None] * n
        for i, (_, _, _, parent, _, own) in enumerate(self.spans):
            kind[i] = own if own is not None or parent < 0 else kind[parent]
            if parent >= 0:
                self_time[parent] -= dur[i]
        return dur, self_time, kind

    def totals(self) -> dict[tuple, list]:
        """(span name, kind) -> [self seconds, inclusive seconds, calls].

        Every span counts under (name, None) and, when it has a kind,
        under (name, kind) as well.
        """
        dur, self_time, kind = self._analyse()
        out: dict[tuple, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, s in enumerate(self.spans):
            for key in {(s[0], None), (s[0], kind[i])}:
                acc = out[key]
                acc[0] += self_time[i]
                acc[1] += dur[i]
                acc[2] += 1
        return out

    def op_coverage(self, op_name: str, own_prefix: str) -> float:
        """Seconds of library self time inside the ops whose root span is op_name.

        Spans named with own_prefix are the benchmark's own (op roots and
        phases); every other span wraps a library function.
        """
        _, self_time, _ = self._analyse()
        ops = {s[4] for s in self.spans if s[0] == op_name}
        return sum(t for s, t in zip(self.spans, self_time)
                   if s[4] in ops and not s[0].startswith(own_prefix))

    def write(self, path, header: dict) -> None:
        """Dump the header, then every span, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, kind in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "kind": kind,
                }) + "\n")
