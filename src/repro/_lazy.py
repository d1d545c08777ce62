"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package lists its public names by the module that defines each, and
a name's module is imported on its first access.  ``import repro``
therefore loads no engine, and a run loads only the modules it calls
into (``docs/architecture.md``, "Package layout").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]],
    subpackages: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module (relative to ``package``) to
    the public names the package takes from it.  The first access to
    any of them imports that module and binds all of its names into the
    package, as the ``from module import ...`` it replaces did, so later
    reads are plain attribute lookups.  A name in ``subpackages`` is
    imported as ``package.name``.  Any other name raises
    ``AttributeError`` naming the package.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module
              for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in subpackages:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module, package)
        for export in exports[module]:
            namespace[export] = getattr(loaded, export)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(subpackages))

    return list(origin), __getattr__, __dir__
