"""Large batches on every CPU of the affinity mask, bit for bit.

:func:`finslergo.geodesic._solve` hands a batch of 2 * _SHARD_ROWS rows or
more, once its systems are assembled, to :func:`solve_shards`.  Every row
gives the same bits alone as in any batch, so the shards, joined in order,
give the bits of one serial solve.  This module is imported on the first
such batch, so a process that never solves one does not pay for it: on a
2-vCPU VM without a bytecode cache, compiling it takes about 0.2 ms and
importing ``concurrent.futures`` 3.7 ms.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import geodesic

_pool = None  # (pid, executor) of this process, built on first use


def solve_shards(a_mat, b_vec):
    """``geodesic._solve_rows`` over contiguous shards of at least
    _SHARD_ROWS rows, one per CPU of the affinity mask (of all CPUs where
    the platform has no mask): the first on the calling thread, the others
    on the pool.  A shard that no pool thread has started by the time the
    caller is free is solved by the caller."""
    n = len(a_mat)
    mask = getattr(os, "sched_getaffinity", None)
    cpus = len(mask(0)) if mask else os.cpu_count() or 1
    shards = min(cpus, n // geodesic._SHARD_ROWS)
    if shards < 2:
        return geodesic._solve_rows(a_mat, b_vec)
    cut = [n * i // shards for i in range(shards + 1)]
    pool = _executor()
    rest = [(lo, hi, pool.submit(_solve_quietly, a_mat[lo:hi], b_vec[lo:hi]))
            for lo, hi in zip(cut[1:-1], cut[2:])]
    parts = [geodesic._solve_rows(a_mat[:cut[1]], b_vec[:cut[1]])]
    parts += [geodesic._solve_rows(a_mat[lo:hi], b_vec[lo:hi])
              if future.cancel() else future.result()
              for lo, hi, future in rest]
    return map(np.concatenate, zip(*parts))


def _solve_quietly(a_mat, b_vec):
    with np.errstate(all="ignore"):  # a pool thread has numpy's defaults
        return geodesic._solve_rows(a_mat, b_vec)


def _executor():
    """The thread pool of this process, built again in a forked child: a
    pool inherited through fork has no threads, so no work given to it
    would ever start."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = os.getpid(), ThreadPoolExecutor()
    return _pool[1]
