"""One fan-out decision: only the worker-pool module forks.

``repro.utils.workerpool.worker_count`` alone decides whether and how
wide a stage forks, and ``run_units`` runs every stage's units on that
count.  The pool's supervision settings (restart budget, heartbeat
interval, poison threshold) run on ``PoolPolicy``'s defaults.  A module
that builds its own ``WorkerPool`` or ``PoolPolicy``, or threads one of
those settings through its signatures, brings back a rule of its own
that drifts: the campaign runner once forked a one-worker pool for an
explicit ``jobs=2`` on one CPU, because only the pool clamped to the
usable CPUs.  A module-global worker context (a global that a function
rebinds before the fork) is not needed either: the fork start method
inherits a bound method without pickling it.  The checks are
structural, so no timing or host can flake them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one module allowed to build a pool and to name its settings.
POOL_MODULE = "utils/workerpool.py"

POOL_TYPES = ("WorkerPool", "PoolPolicy")

#: Each setting in its keyword spelling and its CLI-flag spelling.
SETTINGS = tuple(
    spelling
    for setting in ("max_worker_restarts", "heartbeat_interval",
                    "poison_threshold")
    for spelling in (setting, setting.replace("_", "-"))
)


def _modules():
    modules = {
        path.relative_to(PACKAGE).as_posix(): path
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {POOL_MODULE, "fi/runner.py", "core/analyzer.py",
            "explain/gnn_explainer.py", "nn/gridsearch.py"} <= set(modules)
    return modules


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return getattr(func, "attr", "")


def test_only_the_pool_module_builds_a_pool():
    offenders = [
        f"{name}:{node.lineno}: {_called_name(node)}(...)"
        for name, path in _modules().items() if name != POOL_MODULE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _called_name(node) in POOL_TYPES
    ]
    assert offenders == [], (
        "modules building a pool of their own (run units through "
        f"repro.utils.workerpool.run_units or map_supervised): {offenders}"
    )


def test_no_module_names_a_supervision_setting():
    offenders = [
        f"{name}:{number}: {setting}"
        for name, path in _modules().items() if name != POOL_MODULE
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        for setting in SETTINGS if setting in line
    ]
    assert offenders == [], (
        "supervision settings outside the worker-pool module (they run "
        f"on PoolPolicy's defaults): {offenders}"
    )


def test_no_module_global_worker_context():
    offenders = [
        f"{name}:{node.lineno}: global {', '.join(node.names)}"
        for name, path in _modules().items()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert offenders == [], (
        "module-global state rebound by a function (pass the bound "
        f"method to the pool instead): {offenders}"
    )
