"""Fixed pieces of work, independent of fairint, that gauge the machine's speed right now.

On a shared machine the same work can take 1.5 times longer from one
second to the next, as neighbours come and go. The benchmark runs these
gauges before and after every measured call and scales the call's time by
the gauges' time around it: the speed of the machine cancels out, while a
change in the program does not, because the gauges do not use the program.

Two gauges, because neighbours slow the two kinds of work fairint does by
different amounts:

  interp  interpreter arithmetic, CSV parsing into Python lists with float
          conversion and dict lookups, and chains of small numpy
          operations held in Python objects (training, CSV loading)
  blas    full-batch logistic-regression steps over a 10000 x 150 design,
          the matrix-vector work of ``fairint probe``

``NOMINAL_S`` is each gauge's duration on a 2-vCPU Xeon VM with quiet
neighbours; scaling by it reports times in that machine's seconds.
"""

import csv
import io
import time

import numpy as np

_rng = np.random.default_rng(0)
_TEXT = "\n".join(
    ",".join([repr(float(x)) for x in row] + [f"c{i % 37}"])
    for i, row in enumerate(_rng.standard_normal((3000, 6)))
)
_A = _rng.standard_normal((128, 16))
_W = _rng.standard_normal((16, 16))
_DESIGN = _rng.standard_normal((10000, 150))
_TARGET = (_rng.random(10000) < 0.5).astype(np.float64)

NOMINAL_S = {"interp": 0.025, "blas": 0.035}


class _Node:
    __slots__ = ("values", "parents", "backward")

    def __init__(self, values, parents):
        self.values, self.parents, self.backward = values, parents, None


def _interp() -> float:
    total = 0
    for j in range(60000):
        total += j * j
    vocab = {}
    columns = [[] for _ in range(7)]
    for row in csv.reader(io.StringIO(_TEXT)):
        for k in range(6):
            columns[k].append(float(row[k]))
        columns[6].append(vocab.setdefault(row[6], len(vocab)))
    node = _Node(_A, ())
    for _ in range(300):
        nxt = _Node(np.maximum(node.values @ _W, 0.0) + _A, (node,))
        nxt.backward = lambda n=nxt: n.values.sum()
        node = nxt
    return float(node.values[0, 0]) + total % 7 + len(columns[6])


def _blas() -> float:
    weights = np.zeros(_DESIGN.shape[1])
    for _ in range(25):
        prob = 1.0 / (1.0 + np.exp(-(_DESIGN @ weights)))
        weights -= 0.1 * (_DESIGN.T @ (prob - _TARGET)) / _DESIGN.shape[0]
    return float(weights[0])


def gauge() -> dict:
    """Wall seconds of one pass of each gauge (each about 20-40 ms)."""
    out = {}
    for name, work in (("interp", _interp), ("blas", _blas)):
        start = time.perf_counter()
        work()
        out[name] = time.perf_counter() - start
    return out


def scale(seconds: float, before: dict, after: dict, gauges) -> float:
    """``seconds`` as the machine would have taken at nominal speed.

    The speed is read from the named gauges just before and just after
    the measured call.
    """
    measured = sum(before[g] + after[g] for g in gauges) / 2
    return seconds * sum(NOMINAL_S[g] for g in gauges) / measured
