"""Outside-in timing of phibal: wrappers installed on the library's public
entry points from the benchmark's side, so the library itself is untouched.

Two kinds of wrapper exist:

* the *op probe* wraps the one call that forms the workload's closed loop
  (``Trainer.step`` or ``MoeStack.forward``). It is installed in every run,
  traced or not, and records each call's start, end and token count: that
  is where ``step_ms_p50``, ``step_ms_tail`` and ``tokens_per_s`` come from.
* *span* wrappers sit on every other layer entry point. They are installed
  only around traced units and record one span per call:
  ``[name, start, end, parent index, unit, op id]``. Spans stay in memory and
  are written out once, when the run ends.

Garbage-collector pauses are recorded as ``python.gc`` spans through
``gc.callbacks`` while tracing, as children of whatever span was open.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self, op: tuple, spans: list[tuple], node_counter: Callable[[], int], probe):
        """``op`` is ``(owner, attr, name, tokens_of_args)``; ``spans`` holds
        ``(owner, attr, name)`` where ``name`` is a string or a function of the
        call's positional arguments; ``node_counter`` returns the next autodiff
        node id (it creates one node per call); ``probe`` is the
        ``calibrate.SpeedProbe`` whose clock times ops and spans and whose
        samples wait while an op runs."""
        self.op = op
        self.probe = probe
        self.clock = probe.clock
        self.targets = spans
        self.node_counter = node_counter
        self.ops: list[tuple[float, float, int]] = []
        self.nodes: list[int] = []
        self.spans: list[list] = []
        self.unit = 0
        self.op_id = 0
        self._stack: list[int] = []
        self._tracing = False

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self, unit: int, tracing: bool):
        """Wrap the op (always) and, when ``tracing``, every span target."""
        self.unit = unit
        self._tracing = tracing
        owner, attr, name, tokens_of = self.op
        patches = [(owner, attr, self._op_wrapper(getattr(owner, attr), name, tokens_of))]
        if tracing:
            patches += [
                (owner, attr, self._span_wrapper(getattr(owner, attr), name))
                for owner, attr, name in self.targets
            ]
            gc.callbacks.append(self._gc_callback)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            if tracing:
                gc.callbacks.remove(self._gc_callback)
            self._tracing = False
            self._stack.clear()

    def _op_wrapper(self, original, name: str, tokens_of):
        tracer = self
        ops = self.ops
        spans = self.spans
        stack = self._stack
        clock = self.clock
        hold, release = self.probe.hold, self.probe.release

        def op(*args, **kwargs):
            tokens = tokens_of(args)
            if not tracer._tracing:
                hold()
                try:
                    t0 = clock()
                    out = original(*args, **kwargs)
                    ops.append((t0, clock(), tokens))
                finally:
                    release()
                return out
            uid0 = tracer.node_counter()
            tracer.op_id += 1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.unit, tracer.op_id])
            stack.append(idx)
            hold()
            t0 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                t1 = clock()
                release()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            ops.append((t0, t1, tokens))
            # The probe node itself takes one id.
            tracer.nodes.append(tracer.node_counter() - uid0 - 1)
            return out

        return op

    def _span_wrapper(self, original, name):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = self.clock
        name_of = name if callable(name) else None

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [
                    name_of(args) if name_of else name,
                    0.0,
                    0.0,
                    stack[-1] if stack else -1,
                    tracer.unit,
                    tracer.op_id,
                ]
            )
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return span

    def _gc_callback(self, phase: str, info: dict) -> None:
        stack = self._stack
        if phase == "start":
            stack.append(len(self.spans))
            self.spans.append(
                ["python.gc", self.clock(), 0.0, stack[-2] if len(stack) > 1 else -1,
                 self.unit, self.op_id]
            )
        elif stack and self.spans[stack[-1]][0] == "python.gc":
            self.spans[stack.pop()][2] = self.clock()

    # -- analysis ---------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], float]:
        """Per span name: self seconds, inclusive seconds and call count; plus
        the share of op-span time that child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        op_name = self.op[2]
        op_total = op_covered = 0.0
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            incl_s[name] = incl_s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name == op_name:
                op_total += dur
                op_covered += child[i]
        coverage = op_covered / op_total if op_total > 0.0 else 0.0
        return self_s, incl_s, calls, coverage

    def write(self, path) -> None:
        """One JSON object per line; times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for name, start, end, parent, unit, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                            "unit": unit,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )
