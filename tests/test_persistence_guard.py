"""One persistence layer: no module writes or parses artifacts alone.

Every archive and JSON artifact goes through the codec in
``repro/io.py`` (one writer, one validating reader, one atomic
publish); ``repro/store/store.py`` keeps only its own publish under the
index lock and the index itself.  A module that calls numpy's archive
functions, the ``json`` file codec, ``os.fsync`` or ``os.replace`` on
its own would bring back a copy that drifts, as the ECO trace sidecar
once did when it was written straight to its final path.  The check is
structural, so no timing or host can flake it.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to touch archive bytes, JSON files and renames.
CODEC_MODULES = ("io.py", "store/store.py")

FORBIDDEN = ("np.savez", "np.load(", "json.load(", "json.loads(",
             "json.dump(", "os.fsync", "os.replace")


def test_only_the_codec_modules_persist():
    modules = {
        path.relative_to(PACKAGE).as_posix(): path
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {"io.py", "store/store.py", "fi/eco.py", "fi/checkpoint.py",
            "store/memo.py", "__main__.py"} <= set(modules)
    offenders = [
        f"{name}:{number}: {token}"
        for name, path in modules.items() if name not in CODEC_MODULES
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        for token in FORBIDDEN if token in line
    ]
    assert offenders == [], (
        "modules persisting on their own (use repro.io's write_archive, "
        f"open_archive, write_json, read_json or publish): {offenders}"
    )
