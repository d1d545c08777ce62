"""The repo's single artifact-identity scheme.

Every durable artifact — campaign checkpoints and the
content-addressed :mod:`repro.store` entries — is identified by a
sha256 fingerprint of its *full input closure*: a canonical-JSON header
describing every parameter that shapes the artifact's bytes, plus the
raw bytes of any referenced arrays.  :func:`canonical_hash` is the one
primitive; the domain helpers here compose it into the identities the
pipeline uses, so two subsystems can never disagree about whether two
artifacts were produced from the same inputs.

Canonicalization rules:

* Headers are hashed as ``json.dumps(..., sort_keys=True)`` — key
  order never matters, and every value must be JSON-serializable
  (numbers, strings, booleans, lists, dicts, ``None``).
* Arrays are hashed as their C-contiguous raw bytes, in argument
  order, after the header — identical values with different memory
  layouts fingerprint identically.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Sequence

import numpy as np


def canonical_hash(header: object,
                   arrays: Iterable[np.ndarray] = ()) -> str:
    """Sha256 hex digest of a canonical-JSON header plus array bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps(header, sort_keys=True).encode("utf-8"))
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def campaign_fingerprint(
    netlist_name: str,
    workloads: Sequence,
    faults: Sequence,
    severity: float,
    collapse: bool,
    observation_key: str,
) -> str:
    """Deterministic digest of everything that shapes campaign output.

    Workloads hash their stimulus *bytes*, not just their names: two
    suites generated with different seeds share names but produce
    different ground truth, and resuming across them must be refused.
    """
    header = {
        "netlist": netlist_name,
        "severity": float(severity),
        "collapse": bool(collapse),
        "observation": observation_key,
        "faults": [
            (fault.node_name, int(fault.gate_index),
             int(fault.net_index),
             int(getattr(fault, "stuck_at", -1)),
             int(getattr(fault, "cycle", -1)))
            for fault in faults
        ],
        "workloads": [
            (workload.name, workload.cycles) for workload in workloads
        ],
    }
    return canonical_hash(
        header, (workload.vectors for workload in workloads)
    )


def netlist_fingerprint(netlist) -> str:
    """Structural identity of a gate-level design.

    Hashes the full name-level description — design name, primary
    inputs, primary outputs, and every gate's (cell, instance, input
    net names, output net name) in gate order — so any edit that could
    change behaviour (or the fault universe) changes the digest, while
    re-parsing the same design always reproduces it.
    """
    nets = netlist.nets
    header = {
        "name": netlist.name,
        "inputs": netlist.input_names(),
        "outputs": [
            [nets[net].name, port]
            for net, port in netlist.primary_outputs
        ],
        "gates": [
            [gate.cell.name, gate.instance,
             [nets[net].name for net in gate.inputs],
             nets[gate.output].name]
            for gate in netlist.gates
        ],
    }
    return canonical_hash(header)


def workloads_fingerprint(workloads: Sequence) -> str:
    """Identity of a stimulus suite: names, shapes, and vector bytes."""
    header = {
        "workloads": [
            [workload.name, workload.cycles, list(workload.input_names)]
            for workload in workloads
        ],
    }
    return canonical_hash(
        header, (workload.vectors for workload in workloads)
    )
