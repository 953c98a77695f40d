"""The reference task: a fixed pure-Python task whose time measures the
host's current speed, so that op and set-up times can be scaled to a
reference speed (see ``run.run_untraced``)."""

import gc
import time


class Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.a, self.b)


def reference_task():
    """A fixed pure-Python task of the same kinds of work as ggt: tuples,
    dicts, small objects, method calls, sorting and frozensets."""
    d = {}
    acc = 0
    nodes = []
    for i in range(750):
        k = (i % 97, "e%d" % (i % 13))
        d[k] = d.get(k, 0) + i
        nodes.append(Node(i % 31, k[1]))
        acc += len(k[1]) + (i * i) % 7
    nodes.sort(key=Node.key)
    common = frozenset(n.key() for n in nodes) & frozenset(d)
    return acc + len(common) + len(sorted(d.items()))


def timed_reference():
    """Seconds the reference task takes now; the collector is paused so
    that it does not charge collections of ggt's objects to the task."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        gc.enable()
