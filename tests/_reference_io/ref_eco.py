"""``EcoTraces`` as ``repro.fi.eco`` defines it before the archive codec."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.utils.errors import EcoError

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Baseline mismatch traces (the trace-merge fast path's fuel)
# ----------------------------------------------------------------------
ECO_TRACES_NAME = "eco_traces.npz"


@dataclass
class EcoTraces:
    """Per-output / per-flop mismatch traces of a baseline campaign.

    Recorded by :func:`run_campaign_with_traces`: for every workload,
    the strobe-gated golden-vs-faulty mismatch words of each output on
    each cycle, and each flop's end-of-run state-corruption words.
    They let :func:`run_eco_campaign` rebuild a dirty fault's full row
    from (a) the baseline's clean-output/clean-flop contributions —
    provably unchanged by the edit — plus (b) a fresh simulation of
    only the affected-support cone, which is what turns "re-simulate 4%
    of the faults" into an actual wall-clock win on designs where dirty
    gates have global fanout.
    """

    fingerprint: str
    netlist_name: str
    workload_names: List[str]
    output_names: List[str]
    flop_names: List[str]
    fault_nodes: List[str]
    fault_stuck: np.ndarray        # int8 per fault
    output_diff: List[np.ndarray]  # per workload (cycles, outs, words)
    flop_end_diff: List[np.ndarray]  # per workload (flops, words)

    def fault_keys(self) -> List[Tuple[str, int, int]]:
        return [
            (node, int(stuck), -1)
            for node, stuck in zip(self.fault_nodes, self.fault_stuck)
        ]

    def save(self, path: PathLike) -> None:
        payload: Dict[str, np.ndarray] = {
            "fingerprint": np.array(self.fingerprint),
            "netlist_name": np.array(self.netlist_name),
            "workload_names": np.array(self.workload_names, dtype="U"),
            "output_names": np.array(self.output_names, dtype="U"),
            "flop_names": np.array(self.flop_names, dtype="U"),
            "fault_nodes": np.array(self.fault_nodes, dtype="U"),
            "fault_stuck": np.asarray(self.fault_stuck, dtype=np.int8),
        }
        for row, array in enumerate(self.output_diff):
            payload[f"output_diff_{row}"] = array
        for row, array in enumerate(self.flop_end_diff):
            payload[f"flop_end_diff_{row}"] = array
        # Uncompressed on purpose: the sidecar is read on every ECO
        # run and zlib decompression would dominate the warm path.
        np.savez(str(path), **payload)

    @classmethod
    def load(cls, path: PathLike) -> "EcoTraces":
        try:
            with np.load(str(path)) as archive:
                workload_names = [
                    str(name) for name in archive["workload_names"]
                ]
                traces = cls(
                    fingerprint=str(archive["fingerprint"]),
                    netlist_name=str(archive["netlist_name"]),
                    workload_names=workload_names,
                    output_names=[
                        str(name) for name in archive["output_names"]
                    ],
                    flop_names=[
                        str(name) for name in archive["flop_names"]
                    ],
                    fault_nodes=[
                        str(name) for name in archive["fault_nodes"]
                    ],
                    fault_stuck=archive["fault_stuck"],
                    output_diff=[
                        archive[f"output_diff_{row}"]
                        for row in range(len(workload_names))
                    ],
                    flop_end_diff=[
                        archive[f"flop_end_diff_{row}"]
                        for row in range(len(workload_names))
                    ],
                )
        except (KeyError, ValueError, OSError, zipfile.BadZipFile
               ) as error:
            raise EcoError(
                f"ECO trace sidecar {path} is corrupt or truncated: "
                f"{error}"
            ) from error
        traces._check_shapes(path)
        return traces

    def _check_shapes(self, path: PathLike) -> None:
        """Refuse a sidecar whose arrays disagree with its name lists
        (lane words, output and flop counts), before any lane lookup
        can index past them."""
        n_words = (len(self.fault_nodes) + 64) // 64
        problems = []
        if len(self.fault_stuck) != len(self.fault_nodes):
            problems.append(
                f"{len(self.fault_stuck)} stuck values for "
                f"{len(self.fault_nodes)} faults"
            )
        for row, (outputs, flops) in enumerate(
            zip(self.output_diff, self.flop_end_diff)
        ):
            if outputs.shape[1:] != (len(self.output_names), n_words):
                problems.append(
                    f"output_diff_{row} has shape {outputs.shape}, "
                    f"expected (cycles, {len(self.output_names)}, "
                    f"{n_words})"
                )
            if flops.shape != (len(self.flop_names), n_words):
                problems.append(
                    f"flop_end_diff_{row} has shape {flops.shape}, "
                    f"expected ({len(self.flop_names)}, {n_words})"
                )
        if problems:
            raise EcoError(
                f"ECO trace sidecar {path} is inconsistent: "
                + "; ".join(problems)
            )

