"""Spans and user-callable counters recorded from the benchmark's side.

Every number here comes from outside secmeasure: spans time the
benchmark's own calls into a module, and the counters count the points
and Python calls that the library makes into the callables the benchmark
hands it (a density's smooth part h, and f and g).

Times are CPU seconds (``cpu_clock``), not wall time, so that time the
machine gives to other processes drops out.  CPU time still stretches when
the host under a virtual machine is busy; ``reference_s`` measures by how
much, so that the runner can scale it out.
"""

from __future__ import annotations

import contextlib
import resource
import time

import numpy as np


def cpu_clock():
    """CPU seconds, user and system, of this process and of every child
    process it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


# What reference_s takes on an idle core, in round figures (about 2 ms on a
# Xeon virtual machine with Python 3.11).  A time scaled by
# REFERENCE_S / reference_s() is the time the same work takes at that speed.
REFERENCE_S = 2e-3


def reference_s():
    """CPU seconds of a fixed routine that mixes Python arithmetic with calls
    of numpy ufuncs on small arrays, as secmeasure's ops do.  It calls no
    secmeasure code, so a change to secmeasure cannot change it."""
    t0 = cpu_clock()
    s = 0
    for i in range(20000):
        s += i * i
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(200):
        a = np.tanh(a) * 0.5 + np.exp(-a) * 0.1
    return cpu_clock() - t0


_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "t0", "child")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.child = 0.0
        self.tracer.stack.append(self)
        self.t0 = cpu_clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = cpu_clock() - self.t0
        tr = self.tracer
        tr.stack.pop()
        st = tr.stat(self.name)
        st[0] += 1
        st[1] += dur - self.child
        if exc_type is not None:
            st[3] += 1
        if tr.stack:
            tr.stack[-1].child += dur
        else:
            tr.top_s += dur
        return False


class Tracer:
    """Per-span totals: name -> [calls, self seconds, user points, failures].

    Self time is a span's duration minus the time of the spans opened
    inside it.  User points are attributed to the innermost open span.
    With ``enabled`` false, ``span`` costs one attribute lookup and the
    user-callable totals are still kept.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.stack = []
        self.stats = {}
        self.top_s = 0.0
        self.points = 0
        self.calls = 0

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0, 0]
        return st

    def span(self, name):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def add_external(self, name, calls, self_s):
        """Fold in a span measured in another process."""
        st = self.stat(name)
        st[0] += calls
        st[1] += self_s

    def counted(self, fn):
        """Wrap a user callable so every call and abscissa is counted."""

        def wrapper(x):
            self.calls += 1
            n = getattr(x, "size", 1)
            self.points += n
            if self.stack:
                self.stat(self.stack[-1].name)[2] += n
            return fn(x)

        return wrapper
