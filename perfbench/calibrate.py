"""A fixed pure-Python reference loop that measures how fast the machine runs now.

Shared machines change speed by half or more within seconds, and the change
hits every timing alike.  The benchmark times this loop next to the work it
measures and scales timings to the speed at which the loop takes
``REFERENCE_S``.  The loop uses no alephcalc code, so no change to the
engine can move it.  It mixes container work (tuples, dicts, strings,
sorting) with what an import does (unmarshalling code, executing a module
body, creating a class, calls), since the workloads do both.
"""

import marshal
from time import perf_counter

REFERENCE_S = 0.006
# A process that starts an interpreter and runs the loop once; see
# CliOneshot.scale in workloads.py.
REFERENCE_PROCESS_S = 0.05

_MODULE = marshal.dumps(compile('''
class Node:
    __slots__ = ("kind", "kids")

    def __init__(self, kind, kids=()):
        self.kind = kind
        self.kids = tuple(kids)

def build(n):
    return Node("leaf") if n <= 0 else Node("inner", [build(n - 1), build(n - 2)])

def walk(node):
    return 1 + sum(walk(k) for k in node.kids)

TABLE = {f"k{i}": i * i for i in range(64)}
''', "<calibrate>", "exec"))


def _reference_work() -> int:
    acc = 0
    for i in range(300):
        pairs = tuple((j, str(j * i)) for j in range(20))
        table = {k: v for k, v in pairs}
        acc += len(",".join(sorted(table.values())))
    for _ in range(60):
        namespace = {"__name__": "calibrate_module"}
        exec(marshal.loads(_MODULE), namespace)
        acc += namespace["walk"](namespace["build"](6))
    return acc


def loop_seconds() -> float:
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def scale() -> float:
    """Factor that maps a timing taken now to the reference speed."""
    return REFERENCE_S / loop_seconds()


if __name__ == "__main__":
    # The reference process: interpreter start plus one pass of the loop.
    _reference_work()
