"""In-memory spans around pumpwatch's public functions, installed from outside.

The benchmark wraps each probed function or method with a span recorder and
never edits the package.  A wrapper has to be bound where callers look the
name up: ``harness`` does ``from .signal import window``, so rebinding
``pumpwatch.signal.window`` alone would leave the harness calling the
original.  ``install`` therefore rebinds a function in every loaded
``pumpwatch`` module that holds it, and replaces methods on their class.
``Instrumentation.restore`` puts every original back.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``count`` is the work the call did,
as measured by the probe's counter (0 without one).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records nested spans in call order; nothing is written until asked."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.region(name) as rec:
            result = fn(*args, **kwargs)
        if count is not None:
            rec[COUNT] = count(args, kwargs, result)
        return result

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block; ``call`` and the benchmark's roots use it."""
        rec = [name, self.clock(), 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._open.pop()


def self_times(spans) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent; the sum of every span's self time under a root
    equals the root's duration.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START]) - c for s, c in zip(spans, covered)]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``."""

    target: str
    span: str
    count: Optional[Callable] = None


class Instrumentation:
    """The wrappers one ``install`` put in place, and how to undo them."""

    def __init__(self):
        self._undo = []  # (owner, attribute, original value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _wrapper(tracer, probe, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(probe.span, fn, args, kwargs, probe.count)
    return traced


def _pumpwatch_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pumpwatch" or name.startswith("pumpwatch."))]


def install(tracer: Tracer, probes) -> Instrumentation:
    """Wrap every probe; the caller must ``restore()`` the result."""
    inst = Instrumentation()
    try:
        for probe in probes:
            module_name, _, attr = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    inst._set(cls, meth, classmethod(_wrapper(tracer, probe, raw.__func__)))
                else:
                    inst._set(cls, meth, _wrapper(tracer, probe, raw))
                continue
            original = getattr(module, attr)
            traced = _wrapper(tracer, probe, original)
            for mod in _pumpwatch_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        inst._set(mod, name, traced)
    except BaseException:
        inst.restore()
        raise
    return inst

