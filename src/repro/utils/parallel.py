"""Multi-core campaign plumbing: job resolution, shard sizing and the
BLAS thread budget.

The sharded campaign engine splits a fault universe into contiguous
shards and fans (workload group x shard) units out over worker
processes.  This module holds the policy arithmetic — how many workers
a host can sustain, and how many lanes one unit may carry before its
net values (``n_nets`` ints of ``8 * n_words`` bytes each) outgrow the
shard budget — kept free of any FI vocabulary so other fan-out stages
(feature extraction, training sweeps) can reuse it.

Parallelism comes from ``--jobs`` processes, not from BLAS threads.
The matrices here are 16–64 columns wide, so a second OpenBLAS thread
buys little wall time for nearly twice the CPU, oversubscribes every
fork worker, and makes the trained GCN's last bits depend on the
host's core count.  :func:`budget_blas_threads` (run once when
``repro`` is imported) therefore sizes every mapped OpenBLAS to one
thread unless the user sized it through the environment.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from typing import Dict, List, Optional, Tuple

from repro.utils.errors import CampaignError

#: Budget for one unit's net values: ``n_nets`` lane ints of
#: ``8 * n_words`` bytes each.  ``--shard-size auto`` sizes shards to
#: it, and a campaign packs no more same-length workloads into one unit
#: than keep its values within it (one workload always fits).  A
#: unit's working set is its values plus keep and force masks on the
#: faulted nets, under three times the values, so under sharding the
#: budget bounds a unit's memory and the width of every int the
#: compiled evaluator combines.  The golden machine costs one extra
#: lane per workload.
DEFAULT_SHARD_BUDGET_BYTES = 4 * 1024 * 1024


def resolve_jobs(jobs: int) -> int:
    """Worker-process count for a requested ``jobs`` value.

    ``0`` means "all cores the scheduler grants us" (cgroup/affinity
    aware where the platform exposes it); explicit values pass through.
    """
    if jobs < 0:
        raise CampaignError(f"jobs {jobs} must be >= 0")
    if jobs > 0:
        return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def auto_shard_size(
    n_nets: int,
    budget_bytes: int = DEFAULT_SHARD_BUDGET_BYTES,
) -> int:
    """Largest shard whose net values fit the budget.

    A shard of ``f`` faults simulates ``f + 1`` machines (the golden
    machine rides along in bit 0), so choosing ``f = 64*w - 1`` packs
    exactly ``w`` words per net with no wasted lanes.
    """
    if n_nets <= 0:
        raise CampaignError(f"n_nets {n_nets} must be positive")
    words = max(1, budget_bytes // (n_nets * 8))
    return words * 64 - 1


def shard_bounds(n_items: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` shard bounds covering ``n_items``.

    ``shard_size <= 0`` means one shard spanning everything (the
    unsharded fast path for small universes).
    """
    if n_items <= 0:
        raise CampaignError(f"cannot shard {n_items} items")
    if shard_size <= 0 or shard_size >= n_items:
        return [(0, n_items)]
    return [
        (start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where missing.

    Fault campaigns fan out with *fork* workers: netlists carry cell
    lambdas that cannot pickle, so workers must inherit the campaign
    context through copy-on-write memory instead of the spawn pipe.
    Callers fall back to in-process execution when this returns None
    (e.g. Windows).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


#: Environment variables through which a user sizes OpenBLAS's thread
#: pool; when any is set, :func:`budget_blas_threads` leaves BLAS alone.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "OMP_NUM_THREADS")

#: Symbol spellings of OpenBLAS's thread-count entry points, most
#: specific first: numpy 2 wheels bundle ``libscipy_openblas64_``
#: (``scipy_openblas_set_num_threads64_``), scipy wheels
#: ``libscipy_openblas`` (``scipy_openblas_set_num_threads``), and other
#: builds export ``openblas_set_num_threads`` (``...64_`` for ILP64).
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


def _is_openblas(path: str) -> bool:
    """A BLAS library of an OpenBLAS build: the wheels' bundled
    ``libscipy_openblas*``, or a distribution's ``libblas.so`` under an
    ``openblas-*`` directory."""
    return ("blas" in os.path.basename(path).lower()
            and "openblas" in path.lower())


def _mapped_openblas() -> Dict[str, ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process, by path.

    Empty where ``/proc/self/maps`` does not exist (macOS, Windows) or
    no OpenBLAS is mapped (MKL, Accelerate).  Libraries open with
    ``RTLD_NOLOAD``, so this never loads one.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({
                fields[5].strip() for fields in
                (line.split(None, 5) for line in maps)
                if len(fields) == 6 and _is_openblas(fields[5].strip())
            })
    except OSError:
        return {}
    libraries = {}
    for path in paths:
        try:
            libraries[path] = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since, or not a loadable library
            continue
    return libraries


def _openblas_function(library: ctypes.CDLL, verb: str):
    """``library``'s ``{verb}_num_threads`` entry point, or ``None``."""
    for symbol in _OPENBLAS_SYMBOLS:
        function = getattr(library, symbol.format(verb), None)
        if function is not None:
            return function
    return None


def blas_threads() -> Dict[str, Optional[int]]:
    """Thread count that each mapped OpenBLAS reports, by library path.

    ``None`` marks a library that exports no known getter, so a
    renamed symbol shows up instead of reading as "no OpenBLAS".
    """
    counts: Dict[str, Optional[int]] = {}
    for path, library in _mapped_openblas().items():
        getter = _openblas_function(library, "get")
        if getter is None:
            counts[path] = None
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts[path] = int(getter())
    return counts


def budget_blas_threads() -> None:
    """One BLAS thread per process, unless the user sized BLAS.

    Any of :data:`BLAS_THREAD_ENV` set to a value leaves every library
    as the user configured it.  Fork workers inherit the budget, so
    ``--jobs N`` runs N BLAS threads.
    """
    if any(os.environ.get(name) for name in BLAS_THREAD_ENV):
        return
    for library in _mapped_openblas().values():
        setter = _openblas_function(library, "set")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
