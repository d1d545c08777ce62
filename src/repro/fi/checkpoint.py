"""Durable per-unit checkpointing for fault-injection campaigns.

A checkpoint store is a directory holding one ``manifest.json``
describing the campaign configuration plus one ``.npz`` per *completed*
``(workload, fault shard)`` row.  The runner packs several workloads
into one unit of work, but records each row of a finished unit in its
own file: an unsharded campaign writes the classic
one-file-per-workload layout (``workload_NNNN.npz``), a sharded one
writes ``workload_NNNN_shard_SSS.npz`` per shard, so a resume simply
regroups the rows still pending.  Completion is defined by the atomic
rename in :func:`repro.io.save_workload_checkpoint`: a row file either
exists in full or not at all, so a campaign killed at any instant —
including mid-write — resumes cleanly from the last whole row.

The manifest and every workload file carry a *fingerprint* of the
campaign configuration (netlist, fault universe, workload stimulus
bytes, severity/observation policy, collapse flag).  Resuming against a
store written for any other configuration raises
:class:`~repro.utils.errors.CampaignError` — silently mixing rows from
two different campaigns would corrupt the ground-truth labels the whole
pipeline trains on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.errors import (
    CampaignError,
    CorruptArtifactError,
    SerializationError,
)
# Campaign identity lives in the repo-wide fingerprint scheme; it is
# re-exported here because checkpoint stores are its oldest consumer.
from repro.utils.fingerprint import campaign_fingerprint

__all__ = [
    "CheckpointStore",
    "campaign_fingerprint",
    "observation_key",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
]

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
#: Manifest format version (independent of the workload-file version).
MANIFEST_VERSION = 1


class CheckpointStore:
    """Directory-backed checkpoint store for one campaign run.

    ``shard_bounds`` is the campaign's fault-shard layout as contiguous
    ``(start, stop)`` pairs; ``None`` (or a single all-covering pair)
    selects the classic unsharded per-workload layout.  The layout is
    recorded in the manifest, and a resume under a *different* layout is
    refused — the unit files would carry incompatible column spans.
    """

    def __init__(self, directory: PathLike, *, fingerprint: str,
                 netlist_name: str, workload_names: Sequence[str],
                 n_faults: int,
                 shard_bounds: Optional[Sequence[Tuple[int, int]]] = None,
                 ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.netlist_name = netlist_name
        self.workload_names = list(workload_names)
        self.n_faults = n_faults
        self.shard_bounds = (
            [(int(lo), int(hi)) for lo, hi in shard_bounds]
            if shard_bounds is not None else [(0, n_faults)]
        )
        #: ``(workload, shard, reason)`` of unit files whose bytes were
        #: torn (truncated mid-kill) and will be re-simulated on resume.
        self.stale_units: List[Tuple[int, int, str]] = []
        self._manifest: Optional[dict] = None

    @classmethod
    def from_manifest(cls, directory: PathLike) -> "CheckpointStore":
        """Reopen a store as its manifest describes it — the ECO
        baseline path, which learns the campaign from the store rather
        than the other way round.  The manifest is read once; a later
        ``open(resume=True)`` validates that same copy."""
        manifest = _read_manifest(
            Path(directory) / MANIFEST_NAME,
            ("fingerprint", "netlist_name", "workload_names", "n_faults"),
        )
        store = cls(
            directory, fingerprint=manifest["fingerprint"],
            netlist_name=manifest["netlist_name"],
            workload_names=manifest["workload_names"],
            n_faults=int(manifest["n_faults"]),
            shard_bounds=manifest.get("shards"),
        )
        store._manifest = manifest
        return store

    @property
    def n_shards(self) -> int:
        return len(self.shard_bounds)

    # -- paths ---------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def unit_path(self, index: int, shard: int = 0) -> Path:
        """Checkpoint file for one (workload, shard) unit."""
        if self.n_shards == 1:
            return self.directory / f"workload_{index:04d}.npz"
        return self.directory / (
            f"workload_{index:04d}_shard_{shard:03d}.npz"
        )

    # -- lifecycle -----------------------------------------------------
    def open(self, resume: bool) -> Dict[Tuple[int, int], dict]:
        """Prepare the store; return already-completed units.

        The result maps ``(workload_index, shard_index)`` to the loaded
        checkpoint arrays.  Fresh runs (``resume=False``) require the
        directory to hold no prior manifest — refusing to clobber an
        existing campaign's checkpoints is cheaper than diagnosing a
        half-mixed result.  Resumed runs validate the manifest against
        the current campaign (including the shard layout) and load
        every intact unit file.  A unit file with *torn bytes* — the
        truncation signature of a writer killed mid-write — is skipped
        (recorded in :attr:`stale_units`) so the unit is re-simulated;
        a well-formed unit file belonging to a different campaign
        configuration still fails loudly, because silently
        re-simulating over a mismatch would mask an operator error.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            if not resume:
                raise CampaignError(
                    f"checkpoint directory {self.directory} already "
                    "holds a campaign manifest — resume it, or point "
                    "at an empty directory"
                )
            self._validate_manifest()
            return self._load_completed()
        if resume:
            raise CampaignError(
                f"nothing to resume: {self.directory} has no "
                f"{MANIFEST_NAME}"
            )
        self._write_manifest()
        return {}

    def record(self, index: int, shard: int = 0, *,
               error_cycles: np.ndarray,
               detection_cycle: np.ndarray, latent: np.ndarray,
               elapsed_seconds: float) -> None:
        """Durably persist one completed (workload, shard) unit."""
        from repro.io import save_workload_checkpoint

        save_workload_checkpoint(
            self.unit_path(index, shard),
            fingerprint=self.fingerprint,
            workload_index=index,
            error_cycles=error_cycles,
            detection_cycle=detection_cycle,
            latent=latent,
            elapsed_seconds=elapsed_seconds,
        )

    # -- internals -----------------------------------------------------
    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "netlist_name": self.netlist_name,
            "workload_names": self.workload_names,
            "n_faults": self.n_faults,
            "shards": [list(bounds) for bounds in self.shard_bounds],
        }
        from repro.io import publish, write_json

        publish(self.manifest_path,
                lambda handle: write_json(handle, payload))

    def _validate_manifest(self) -> None:
        manifest = self._manifest or _read_manifest(self.manifest_path)
        if manifest.get("version") != MANIFEST_VERSION:
            raise CampaignError(
                f"checkpoint manifest {self.manifest_path}: version "
                f"{manifest.get('version')} (this build reads "
                f"{MANIFEST_VERSION})"
            )
        if manifest.get("fingerprint") != self.fingerprint:
            raise CampaignError(
                f"checkpoint directory {self.directory} belongs to a "
                "different campaign (netlist, faults, workloads, or "
                "policy changed) — cannot resume"
            )
        # Manifests from unsharded builds carry no "shards" key; they
        # are by construction the single-shard layout.
        stored = [
            (int(lo), int(hi))
            for lo, hi in manifest.get(
                "shards", [[0, self.n_faults]]
            )
        ]
        if stored != self.shard_bounds:
            raise CampaignError(
                f"checkpoint directory {self.directory} was written "
                f"with a different fault-shard layout ({len(stored)} "
                f"shard(s) vs {self.n_shards} now) — resume with the "
                "same --shard-size, or start a fresh directory"
            )

    def _load_completed(self) -> Dict[Tuple[int, int], dict]:
        from repro.io import load_workload_checkpoint

        completed: Dict[Tuple[int, int], dict] = {}
        for index in range(len(self.workload_names)):
            for shard, (lo, hi) in enumerate(self.shard_bounds):
                path = self.unit_path(index, shard)
                if not path.exists():
                    continue
                try:
                    completed[index, shard] = load_workload_checkpoint(
                        path,
                        fingerprint=self.fingerprint,
                        workload_index=index,
                        n_faults=hi - lo,
                    )
                except CorruptArtifactError as error:
                    # Torn write from a killed worker/run: the bytes
                    # are damaged, not mismatched — re-simulate the
                    # unit instead of stranding the whole resume.
                    self.stale_units.append((index, shard, str(error)))
                except SerializationError as error:
                    raise CampaignError(
                        f"cannot resume: unit checkpoint {path} failed "
                        f"validation ({error}); delete it to "
                        "re-simulate that unit"
                    ) from error
        return completed


def _read_manifest(path: Path, required: tuple = ()) -> dict:
    """A manifest as written by :meth:`CheckpointStore.open`; an
    unreadable one is a :class:`CampaignError` naming the path."""
    from repro.io import read_json

    return read_json(path, "checkpoint manifest", required,
                     error=CampaignError)


def observation_key(observation: Optional[object]) -> str:
    """Stable fingerprint component for an observation policy."""
    if observation is None:
        return "all-outputs"
    strobes = getattr(observation, "strobes", None)
    if strobes is not None:
        return json.dumps(sorted(
            (target, list(strobe)) for target, strobe in strobes.items()
        ))
    return repr(observation)
