"""Pipeline benchmark: ``repro analyze`` end to end -- cold, warm and
ECO -- with a per-layer stage breakdown.

    python benchmarks/pipeline/run.py [--rounds N] [--seed S] [--smoke]
                                      [--out FILE]
    python benchmarks/pipeline/run.py --workload NAME --seed N
                                      --seconds S --trace 0|1
    python benchmarks/pipeline/run.py compare A.json B.json

The first form runs every workload for ``--rounds`` interleaved rounds
(the order rotates each round), then one traced round, prints each
end-to-end metric with its unit and quartiles plus the per-layer table,
and writes ``results/BENCH_pipeline.json`` (or ``--out``).  ``--smoke``
shrinks every workload and runs one round, writing nothing unless
``--out`` is given.  The second form measures one workload for at least
``--seconds`` and prints one JSON object as its last line: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``compare`` labels every metric x workload of two records better,
same, worse or unresolved, and exits 1 on any worse.

Load model: a closed loop with one client.  Each run is one child
process (``child.py``) started after the previous one exited, with the
CLI's defaults (``--jobs 1``, the host's BLAS threads).  A workload is
set up SETUP_REPEATS times, each time with its own seed derived from
``--seed``, and runs rotate over the set-ups, so a median averages over
several input sets.  The program receives only the generated inputs:
the seed goes to ``analyze --seed`` and to ``build_fsm_grid(seed=)``.
Every run is checked (see ``_check``); a failed check makes the command
exit 1.  Metric names, units, directions and bounds come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = HERE / ".work"
RESULTS = HERE / "results" / "BENCH_pipeline.json"

#: Set-ups per workload, each with its own seed; ``setup_s`` is the
#: median of their times.
SETUP_REPEATS = 3
#: Fewest measured runs per ``--workload`` invocation, however short
#: ``--seconds`` is: the median of five shrugs off one stalled run.
MIN_RUNS = 5
#: Seconds one child may take before it is killed and counted failed.
RUN_TIMEOUT = 150.0


@dataclass(frozen=True)
class Workload:
    """One kind of ``analyze`` input and the state it starts from."""

    name: str
    design: str                      # CLI design name
    workloads: int
    cycles: int
    explain_sample: int
    grid: Optional[Tuple[int, int]] = None   # build_fsm_grid, read as Verilog
    mode: str = "cold"               # cold | warm (store filled) | eco

    def analyze_args(self, seed: int) -> List[str]:
        """Arguments shared by the child and ``repro analyze``."""
        return ["--workloads", str(self.workloads),
                "--cycles", str(self.cycles), "--seed", str(seed),
                "--explain-sample", str(self.explain_sample)]


# Sizes fit the run budget on a 2-CPU host (see README.md): or1200_if
# at 8 x 100 spreads the cold run over every layer; the 3 x 4 grid
# (~1.4k gates) is where campaign, training and baselines dominate.
WORKLOADS = (
    Workload("if-cold", "or1200_if", 8, 100, 4),
    Workload("grid-cold", "grid", 2, 100, 1, grid=(3, 4)),
    Workload("if-warm", "or1200_if", 8, 100, 4, mode="warm"),
    # The ECO report explains nothing, so its store fill skips explain.
    Workload("if-eco", "or1200_if", 8, 100, 0, mode="eco"),
)
SMOKE_WORKLOADS = (
    Workload("if-cold", "sdram", 2, 60, 1),
    Workload("grid-cold", "grid", 1, 40, 1, grid=(2, 2)),
    Workload("if-warm", "sdram", 2, 60, 1, mode="warm"),
    Workload("if-eco", "sdram", 2, 60, 0, mode="eco"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, failed set-up)."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
@dataclass
class Process:
    returncode: int
    spawn: float          # perf_counter before the fork
    end: float            # perf_counter after the child was reaped
    cpu: float            # user + sys of the child's process tree
    rss_mib: float        # the child's peak resident set

    @property
    def wall(self) -> float:
        return self.end - self.spawn


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_STORE", None)
    return env


def spawn(argv: Sequence, stdout_path: Path,
          timeout: float = RUN_TIMEOUT) -> Process:
    """Run one child to completion; stdout and stderr go to files.

    ``os.wait4`` reaps it, which gives this child's own resource usage
    (``RUSAGE_CHILDREN`` would merge every child's peak RSS).
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen([str(arg) for arg in argv], stdout=out,
                                 stderr=err, cwd=ROOT, env=_child_env())
        timer = threading.Timer(timeout, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        ended = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(child.returncode, started, ended,
                   usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0)


def _stderr_tail(stdout_path: Path) -> str:
    text = stdout_path.with_suffix(".err").read_text(errors="replace")
    return "\n".join(text.splitlines()[-5:])


def _from_checkout(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(ROOT / "src")


def _clean(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another benchmark process is still using it
        pass


def preflight() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {ROOT / 'src' / 'repro'}")


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class State:
    """One set-up: its seed and directory, and what runs on it must
    reproduce."""

    seed: int
    directory: Path
    fill_stdout: Optional[bytes] = None
    reference: Optional[dict] = None


@dataclass
class Prepared:
    workload: Workload
    setup_s: List[float]
    states: List[State]
    problems: List[str] = field(default_factory=list)


def _prepare(argv: list, directory: Path, log: str) -> Process:
    process = spawn([sys.executable, HERE / "prepare.py", "--dir",
                     directory, *argv], directory / log)
    if process.returncode != 0:
        raise BenchmarkError(
            f"set-up failed ({process.returncode}): "
            f"{_stderr_tail(directory / log)}")
    imported = json.loads((directory / "prepare.json").read_text())["repro"]
    if not _from_checkout(imported):
        raise BenchmarkError(f"repro imported from {imported}, "
                             f"not from {ROOT / 'src'}")
    return process


def set_up(workload: Workload, seed: int, root: Path) -> Prepared:
    """Set ``workload`` up SETUP_REPEATS times, with seeds derived from
    ``seed``.  The ECO reference campaigns are computed afterwards and
    are not part of ``setup_s``."""
    states, times = [], []
    for index in range(SETUP_REPEATS):
        state = State(seed * SETUP_REPEATS + index, root / f"setup{index}")
        state.directory.mkdir(parents=True)
        argv = ["--design", workload.design, "--seed", state.seed]
        if workload.grid:
            argv += ["--grid", *workload.grid]
        if workload.mode == "eco":
            argv.append("--edit")
        if workload.mode != "cold":
            argv += ["--fill", *workload.analyze_args(state.seed)]
        times.append(_prepare(argv, state.directory, "prepare.out").wall)
        states.append(state)
    prepared = Prepared(workload, times, states)
    for state in states:
        if workload.mode != "cold":
            state.fill_stdout = (state.directory / "fill.out").read_bytes()
        if workload.mode == "eco":
            _prepare(["--design", workload.design, "--reference",
                      *workload.analyze_args(state.seed)],
                     state.directory, "reference.out")
            state.reference = json.loads(
                (state.directory / "reference.json").read_text())
            if state.reference["failures"]:
                prepared.problems.append(
                    f"seed {state.seed}: reference campaign has failures")
    return prepared


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@dataclass
class Run:
    state: State
    process: Process
    stdout: bytes
    record: dict
    problems: List[str]

    @property
    def failed_units(self) -> int:
        return int(self.record.get("failures", 0))


def run_once(workload: Workload, state: State, directory: Path,
             traced: bool) -> Run:
    """One measured child run on a fresh copy of a set-up's state."""
    directory.mkdir(parents=True)
    record_path = directory / "record.json"
    argv = [sys.executable, HERE / "child.py"]
    argv += (["--verilog", state.directory / "design.v"] if workload.grid
             else ["--design", workload.design])
    argv += workload.analyze_args(state.seed)
    argv += ["--record", record_path]
    if workload.mode != "cold":
        shutil.copytree(state.directory / "store", directory / "store")
        argv += ["--store", directory / "store"]
    if workload.mode == "eco":
        argv += ["--eco", state.directory / "edited.v"]
    if traced:
        argv.append("--trace")
    stdout_path = directory / "stdout"
    process = spawn(argv, stdout_path)
    record = (json.loads(record_path.read_text())
              if record_path.exists() else {})
    run = Run(state, process, stdout_path.read_bytes(), record, [])
    run.problems = _check(workload, run, stdout_path)
    shutil.rmtree(directory)
    return run


def _check(workload: Workload, run: Run, stdout_path: Path) -> List[str]:
    """What is wrong with one run's outputs (empty when correct)."""
    if run.process.returncode != 0:
        return [f"exit {run.process.returncode}: {_stderr_tail(stdout_path)}"]
    problems = []
    if not _from_checkout(run.record["repro"]):
        problems.append(f"repro imported from {run.record['repro']}")
    if run.failed_units:
        problems.append(f"{run.failed_units} campaign unit(s) failed")
    if workload.mode == "warm" and run.stdout != run.state.fill_stdout:
        problems.append("warm stdout differs from the cold run that "
                        "filled the store")
    if (workload.mode == "eco" and run.record["campaign_digest"]
            != run.state.reference["campaign_digest"]):
        problems.append("ECO campaign differs from a full campaign of "
                        "the edited netlist")
    for metric in ("gcn_accuracy", "gcn_auc", "score_pearson"):
        if run.record.get(metric) is None:
            problems.append(f"{metric} undefined")
    return problems


def check_determinism(runs: Sequence[Run]) -> List[str]:
    """Every run on one set-up prints the same report, up to the
    wall-clock readings it contains."""
    digests: Dict[int, set] = {}
    for run in runs:
        if not run.problems:
            text = M.normalise(run.stdout.decode()).encode()
            digests.setdefault(run.state.seed, set()).add(
                hashlib.sha256(text).hexdigest())
    return [f"seed {seed}: {len(found)} different reports across runs"
            for seed, found in digests.items() if len(found) > 1]


def fidelity(workload: Workload, run: Run, directory: Path) -> List[str]:
    """``python -m repro analyze`` prints what the child printed."""
    directory.mkdir(parents=True)
    out = directory / "stdout"
    process = spawn([sys.executable, "-m", "repro", "analyze",
                     workload.design, *workload.analyze_args(run.state.seed),
                     "--no-store"], out)
    if process.returncode != 0:
        return [f"repro analyze exited {process.returncode}"]
    if M.normalise(out.read_text()) != M.normalise(run.stdout.decode()):
        return ["child report differs from repro analyze"]
    return []


def _failures(prepared: Prepared, runs: Sequence[Run]) -> Tuple[int, list]:
    """(failed runs plus failed campaign units, every problem found)."""
    problems = (prepared.problems + check_determinism(runs)
                + [p for run in runs for p in run.problems])
    failed = (sum(1 for run in runs if run.problems)
              + sum(run.failed_units for run in runs))
    return failed, problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_samples(prepared: Prepared,
                       runs: Sequence[Run]) -> Dict[str, List[float]]:
    runs = [run for run in runs if not run.problems]
    return {
        "wall_s": [run.process.wall for run in runs],
        "cpu_s": [run.process.cpu for run in runs],
        "peak_rss_mib": [run.process.rss_mib for run in runs],
        "setup_s": list(prepared.setup_s),
    }


def layer_samples(traced: Sequence[Run],
                  untraced: Sequence[Run]) -> Dict[str, List[float]]:
    untraced_wall = M.summarize(
        [run.process.wall for run in untraced if not run.problems])["median"]
    samples: Dict[str, List[float]] = {}
    for run in traced:
        if run.problems:
            continue
        layers = M.layer_metrics(run.record, run.process.spawn,
                                 run.process.end)
        layers["trace.overhead"] = run.process.wall / untraced_wall - 1.0
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    return samples


def definitions() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one workload for at least --seconds (the per-workload form)
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    spec = definitions()
    root = WORK / f"{workload.name}-{os.getpid()}"
    untraced: List[Run] = []
    traced: List[Run] = []
    try:
        prepared = set_up(workload, seed, root)
        deadline = time.perf_counter() + seconds
        index = 0
        while len(untraced) < MIN_RUNS or time.perf_counter() < deadline:
            state = prepared.states[index % len(prepared.states)]
            # Traced mode alternates which form goes first, so drift
            # lands evenly on both and trace.overhead stays unbiased.
            forms = [index % 2 == 1, index % 2 == 0] if trace else [False]
            for as_traced in forms:
                run = run_once(workload, state,
                               root / f"run{index}-{as_traced:d}", as_traced)
                (traced if as_traced else untraced).append(run)
            index += 1
    finally:
        _clean(root)

    failed, problems = _failures(prepared, untraced + traced)
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    if trace:
        samples = layer_samples(traced, untraced)
        chosen = spec["per_layer"]
    else:
        samples = end_to_end_samples(prepared, untraced)
        chosen = spec["end_to_end"]
    values = {d["name"]: {"value": M.summarize(samples[d["name"]])["median"],
                          "unit": d["unit"]} for d in chosen}
    for name, entry in values.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    return {"correct": not problems, "attempted": len(untraced + traced),
            "failed": failed, "metrics": values}


# ----------------------------------------------------------------------
# every workload, interleaved rounds (the full form)
# ----------------------------------------------------------------------
def host_block(rounds: int) -> dict:
    from importlib.metadata import version

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from hostinfo import host_metadata

    host = host_metadata(best_of=rounds)
    host["measurement"] = (f"median of {rounds} interleaved rounds, one "
                           "child process at a time")
    host["affinity"] = sorted(os.sched_getaffinity(0))
    host["threads_env"] = {name: os.environ.get(name) for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    host["versions"] = {name: version(name) for name in ("numpy", "scipy")}
    return host


def full(rounds: int, seed: int, smoke: bool) -> Tuple[dict, bool]:
    """Run every workload; return the record and whether every check
    passed."""
    spec = definitions()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    root = WORK / f"full-{os.getpid()}"
    prepared: Dict[str, Prepared] = {}
    runs: Dict[str, List[Run]] = {w.name: [] for w in workloads}
    traced: Dict[str, Run] = {}
    try:
        for workload in workloads:
            print(f"set-up {workload.name} ...", file=sys.stderr)
            prepared[workload.name] = set_up(workload, seed,
                                             root / workload.name)
        for index in range(rounds):
            shift = index % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                states = prepared[workload.name].states
                run = run_once(workload, states[index % len(states)],
                               root / f"r{index}-{workload.name}", False)
                runs[workload.name].append(run)
                print(f"round {index} {workload.name}: "
                      f"{run.process.wall:.2f}s", file=sys.stderr)
        for workload in workloads:
            traced[workload.name] = run_once(
                workload, prepared[workload.name].states[0],
                root / f"traced-{workload.name}", True)
        cold = workloads[0]
        fidelity_problems = fidelity(cold, runs[cold.name][0],
                                     root / "fidelity")
    finally:
        _clean(root)

    ok = not fidelity_problems
    record = {
        "benchmark": "python benchmarks/pipeline/run.py",
        "seed": seed,
        "rounds": rounds,
        "smoke": smoke,
        "load": "closed loop, one client: one analyze process at a time",
        "fidelity": fidelity_problems or "child report == repro analyze",
        "workloads": {},
        "host": host_block(rounds),
    }
    for workload in workloads:
        name = workload.name
        all_runs = runs[name] + [traced[name]]
        failed, problems = _failures(prepared[name], all_runs)
        ok = ok and not problems
        samples = end_to_end_samples(prepared[name], runs[name])
        layers = layer_samples([traced[name]], runs[name])
        per_layer = {d["name"]: {"value": layers[d["name"]][0],
                                 "unit": d["unit"]}
                     for d in spec["per_layer"]}
        record["workloads"][name] = {
            "why": whys.get(name, ""),
            "inputs": asdict(workload),
            "seeds": [state.seed for state in prepared[name].states],
            "end_to_end": {
                d["name"]: dict(M.summarize(samples[d["name"]]),
                                unit=d["unit"])
                for d in spec["end_to_end"]
            },
            "failed_frac": failed / len(all_runs),
            "problems": problems,
            "per_layer": per_layer,
            "dominant_stage": M.dominant_stage(
                {k: v["value"] for k, v in per_layer.items()}),
        }
    return record, ok


def print_record(record: dict) -> None:
    for name, entry in record["workloads"].items():
        print(f"\n== {name} ({entry['inputs']['design']}, "
              f"{entry['inputs']['mode']}) "
              f"dominant stage: {entry['dominant_stage']}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:14s} {s['median']:12.4f} {s['unit']:9s} "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"min {s['min']:.4f}  max {s['max']:.4f}  n {s['n']}")
        print(f"  {'failed_frac':14s} {entry['failed_frac']:12.4f} fraction")
    names = list(record["workloads"])
    print("\nper layer (traced round)")
    print(f"  {'metric':32s} {'unit':9s}"
          + "".join(f"{n:>12s}" for n in names))
    first = record["workloads"][names[0]]["per_layer"]
    for metric, entry in first.items():
        row = "".join(
            f"{record['workloads'][n]['per_layer'][metric]['value']:12.4g}"
            for n in names)
        print(f"  {metric:32s} {entry['unit']:9s}{row}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="label each metric x workload of NEW against BASE")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    chosen = definitions()["end_to_end"]
    labels = M.compare(base, new, chosen)
    names = [d["name"] for d in chosen]
    print(f"{'workload':12s}" + "".join(f"{n:>14s}" for n in names))
    for workload, row in labels.items():
        print(f"{workload:12s}"
              + "".join(f"{row.get(n, '-'):>14s}" for n in names))
    worse = any(verdict == "worse"
                for row in labels.values() for verdict in row.values())
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="repro analyze end to end, with a per-layer breakdown")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round, no artifact")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workload",
                        choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        if args.workload:
            workload = {w.name: w for w in WORKLOADS}[args.workload]
            result = measure(workload, args.seed, args.seconds,
                             bool(args.trace))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        record, ok = full(1 if args.smoke else args.rounds, args.seed,
                          args.smoke)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_record(record)
    out = args.out or (None if args.smoke else RESULTS)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecord -> {out}", file=sys.stderr)
    if not ok:
        print("FAIL: a correctness check failed (see problems above)",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
