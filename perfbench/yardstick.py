"""Machine-speed yardstick: a process of the same shape as a benchmark child
(interpreter start, numpy and scipy imports, a computation) that runs none of
rareweak's code. Run as ``python3 perfbench/yardstick.py``; it prints nothing.

The benchmark runs on shared hosts whose speed drifts by a third over minutes
as other tenants come and go, and that drift slows every process alike.
run.py runs this process before each child of a run and once after the last,
on the child's CPUs, and reports the children's wall and CPU time in units of
its mean CPU time. That cancels the host's drift but not a change in the
program's own cost, because the yardstick shares no code with the program.

The computation follows the workloads: interpreter-bound graph traversal (as
in the subgraph enumeration), bulk Philox draws and a sort (as in the Monte
Carlo replicates), and a large fresh array that is filled and reduced (as in
the dense precision-matrix factoring), three times over (about 1.3 s).
"""

from __future__ import annotations

import numpy as np

_NODES = 100_000
_STEPS = (1, 3, 11, 29, 97)
_DRAWS = 3_000_000
_ARRAY_SIDE = 4000
_ROUNDS = 3


def _traverse():
    """Breadth-first search over a fixed sparse graph held in dicts and lists."""
    adj = {i: [(7 * i + d) % _NODES for d in _STEPS] for i in range(_NODES)}
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def _arrays():
    rng = np.random.Generator(np.random.Philox(1410))
    draws = rng.standard_normal(_DRAWS)
    draws.sort()
    block = np.empty((_ARRAY_SIDE, _ARRAY_SIDE))
    block[:] = draws[:_ARRAY_SIDE]
    return float(block.sum())


def main():
    import scipy.linalg  # noqa: F401  (imported for its start-up cost, as rareweak does)
    import scipy.sparse  # noqa: F401

    for _ in range(_ROUNDS):
        _traverse()
        _arrays()


if __name__ == "__main__":
    main()
