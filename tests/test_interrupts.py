"""Interrupts that land inside a campaign checkpoint write.

The CLI turns SIGINT and SIGTERM into ``KeyboardInterrupt`` and exits
130 (resumable).  numpy's zip writer is not interrupt-safe: an
interrupt that arrives while it has an archive entry open surfaced from
its cleanup as a ``ValueError``, and the interrupted campaign ended as a
crash (exit 1).  Here a signal is raised at every third Python line of
one checkpoint write; each must unwind as ``KeyboardInterrupt``, with
the checkpoint either not yet begun or fully published.
"""

import signal
import sys

import numpy as np
import pytest

from repro.io import load_workload_checkpoint, save_workload_checkpoint

ARRAYS = dict(
    error_cycles=np.arange(64),
    detection_cycle=np.arange(64) - 1,
    latent=np.arange(64) % 3 == 0,
)


def write(path, on_event=None):
    """One checkpoint write, calling ``on_event(k)`` at its k-th traced
    line or call event; returns the number of events."""
    count = [0]

    def tracer(frame, event, arg):
        if event in ("call", "line"):
            count[0] += 1
            if on_event is not None:
                on_event(count[0])
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        save_workload_checkpoint(path, fingerprint="f", workload_index=0,
                                 elapsed_seconds=0.5, **ARRAYS)
    finally:
        sys.settrace(previous)
    return count[0]


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_mid_write_unwinds_as_keyboard_interrupt(tmp_path, signum):
    events = write(tmp_path / "clean.npz")
    targets = range(1, events + 1, 3)
    interrupted = 0
    previous = signal.signal(signum, _interrupt)  # as the CLI routes it
    try:
        for target in targets:
            path = tmp_path / f"unit_{target}.npz"
            fired = []

            def on_event(k, target=target, fired=fired):
                # A write's event count can vary (a garbage collection
                # may run finalizers mid-write), so record the firing.
                if k == target:
                    fired.append(k)
                    signal.raise_signal(signum)

            try:
                write(path, on_event)
            except KeyboardInterrupt:
                assert fired
                interrupted += 1
            else:
                assert not fired, "the signal was swallowed"
            if path.exists():
                loaded = load_workload_checkpoint(
                    path, fingerprint="f", workload_index=0, n_faults=64,
                )
                for name, array in ARRAYS.items():
                    assert np.array_equal(loaded[name], array)
    finally:
        signal.signal(signum, previous)
    assert interrupted >= len(targets) // 2
