"""Content-addressed, size-capped on-disk artifact store.

Layout::

    <directory>/
        index.json                      advisory metadata + LRU clock
        objects/<key[:2]>/<key>.<kind>.<ext>

Objects are immutable once published: writers produce a unique temp
file, fsync it, hash it, and atomically rename it into place
(:func:`repro.io.durable_replace`), so a reader never observes a
partial artifact.  The rename and the index update that records the
object's sha256 happen together under an exclusive ``flock`` on
``<directory>/index.lock``.  Every index write — a publish, a read's
LRU tick or eviction, ``gc``, ``clear``, a new byte budget — is merged
into the index on disk under that lock rather than overwriting it with
this process's snapshot; so two concurrent writers of the same key —
which by content addressing are writing identical bytes' worth of
meaning — leave exactly one valid object, recorded with its own hash,
whichever rename lands last, and a reader never drops the entry (and
its ``meta``) that another process just published.

The index is *advisory*: it carries per-entry size/sha256/LRU-tick
plus searchable ``meta`` (what the ECO near-miss probe matches on),
and it is rewritten atomically on every mutation.  A crash between
object rename and index write, or a deleted/corrupt index, never
loses artifacts — the index is reconciled against a directory scan on
load and on every index write, adopting orphaned objects and dropping
ghost entries.  Validation
failures on read (truncated zip, bad JSON, sha256 mismatch, wrong
shapes) are demoted to a logged miss: the entry is deleted and the
caller recomputes and rewrites it.  The eviction is decided under the
lock: if another process republished the key after this process's
snapshot, the object is validated against that newer entry instead.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.io import atomic_write_text, durable_replace, fsync_file
from repro.utils.errors import ReproError, SerializationError

PathLike = Union[str, Path]

logger = logging.getLogger("repro.store")

INDEX_NAME = "index.json"
LOCK_NAME = "index.lock"
INDEX_VERSION = 1

#: Default size cap: generous for the built-in designs (a full 4-design
#: warm pipeline is a few MiB) while bounding unattended growth.
DEFAULT_BYTE_BUDGET = 512 * 1024 * 1024

#: File extension per artifact kind (doubles as the scan-rebuild type
#: tag, so kind survives index loss).
KIND_EXTENSIONS: Dict[str, str] = {
    "netlist": "v",
    "workloads": "npz",
    "campaign": "npz",
    "features": "npz",
    "dataset": "json",
    "graph": "npz",
    "classifier": "npz",
    "regressor": "npz",
    "explanations": "npz",
    "gridsearch": "json",
    "baselines": "json",
}

#: Exceptions that mean "this entry is unusable", never "crash".
_READ_FAILURES = (
    SerializationError,
    ReproError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    zipfile.BadZipFile,
    KeyError,
    ValueError,
    EOFError,
    OSError,
)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _same_object(entry: dict, other: Optional[dict]) -> bool:
    """Whether two index entries record the same published bytes."""
    return other is not None and (entry["size"], entry["sha256"]) == (
        other["size"], other["sha256"])


class ArtifactStore:
    """A directory of memoized pipeline-stage outputs, keyed by input
    closure and evicted LRU under a byte budget."""

    def __init__(self, directory: PathLike,
                 byte_budget: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.objects_dir = self.directory / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._index = self._fresh_index()
        self._merge_disk_index()
        if byte_budget is not None:
            with self._locked_index():
                self._index["byte_budget"] = int(byte_budget)

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    def object_path(self, key: str, kind: str) -> Path:
        extension = KIND_EXTENSIONS[kind]
        return self.objects_dir / key[:2] / f"{key}.{kind}.{extension}"

    @property
    def byte_budget(self) -> int:
        return int(self._index["byte_budget"])

    # -- core API ------------------------------------------------------
    def get(self, key: str, kind: str,
            reader: Callable[[Path], object]) -> Optional[object]:
        """Load the artifact under ``key``, or ``None`` on a miss.

        A hit must fully survive ``reader`` (which is expected to
        validate the payload); any read failure — truncation, garbage
        bytes, sha256 drift, schema mismatch — deletes the entry and
        reports a miss so the caller transparently recomputes.
        """
        path = self.object_path(key, kind)
        entry = self._index["entries"].get(key)
        if not path.exists():
            with self._locked_index():  # drops a ghost entry, if any
                self._count("misses")
            return None
        try:
            value = self._read_checked(path, entry, reader)
        except _READ_FAILURES as error:
            with self._locked_index():
                # Validation ran against this process's snapshot.  If
                # another process republished the key since, the merge
                # holds its entry: check the object against that, under
                # the lock, so a valid object is never evicted.
                current = self._index["entries"].get(key)
                if current is not None and not _same_object(current,
                                                            entry):
                    try:
                        value = self._read_checked(path, current, reader)
                    except _READ_FAILURES as retry_error:
                        error = retry_error
                    else:
                        current["tick"] = self._next_tick()
                        self._count("hits")
                        return value
                logger.warning(
                    "store entry %s (%s) failed validation (%s: %s) — "
                    "treating as miss and discarding",
                    key[:12], kind, type(error).__name__, error,
                )
                self._evict(key, path)
                self._count("misses")
            return None
        with self._locked_index():
            # The merge adopted the object if another process published
            # it after our snapshot; it may also have been evicted since.
            current = self._index["entries"].get(key)
            if current is not None:
                current["tick"] = self._next_tick()
            self._count("hits")
        return value

    def put(self, key: str, kind: str,
            writer: Callable[[Path], None], *,
            meta: Optional[dict] = None) -> Path:
        """Publish an artifact: ``writer(temp_path)`` produces the
        bytes, which are fsynced and atomically renamed into place."""
        if kind not in KIND_EXTENSIONS:
            raise ReproError(f"unknown artifact kind {kind!r}")
        path = self.object_path(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name keeps the final extension (np.savez appends
        # ".npz" to anything else) and is unique per process, so
        # concurrent writers of one key never collide pre-rename.
        temporary = path.parent / (
            f".tmp-{os.getpid()}-{path.name}"
        )
        try:
            writer(temporary)
            fsync_file(temporary)
            # Size and hash the bytes this process wrote, before the
            # rename and outside the lock.
            size = temporary.stat().st_size
            sha256 = _sha256_file(temporary)
            with self._locked_index():
                durable_replace(temporary, path)
                self._index["entries"][key] = {
                    "kind": kind,
                    "size": size,
                    "sha256": sha256,
                    "tick": self._next_tick(),
                    "meta": dict(meta or {}),
                }
                self._gc_locked()
        finally:
            if temporary.exists():
                temporary.unlink()
        return path

    def contains(self, key: str, kind: str) -> bool:
        return self.object_path(key, kind).exists()

    def find(self, kind: str, **meta_filter) -> List[Tuple[str, dict]]:
        """Entries of ``kind`` whose meta matches every filter item,
        most recently used first (the near-miss probe's ordering)."""
        matches = [
            (key, entry) for key, entry in self._index["entries"].items()
            if entry["kind"] == kind and all(
                entry["meta"].get(name) == value
                for name, value in meta_filter.items()
            )
        ]
        matches.sort(key=lambda item: -item[1]["tick"])
        return [(key, dict(entry["meta"])) for key, entry in matches]

    # -- maintenance ---------------------------------------------------
    def gc(self, byte_budget: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries until under budget.

        Returns ``(entries_evicted, bytes_freed)``.  With an explicit
        ``byte_budget`` the store's persistent budget is updated first.
        """
        with self._locked_index():
            if byte_budget is not None:
                self._index["byte_budget"] = int(byte_budget)
            return self._gc_locked()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._locked_index():
            entries = list(self._index["entries"].items())
            for key, entry in entries:
                self._evict(key, self.object_path(key, entry["kind"]))
        return len(entries)

    def stats(self) -> Dict[str, object]:
        entries = self._index["entries"]
        by_kind: Dict[str, int] = {}
        for entry in entries.values():
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(entry["size"] for entry in entries.values()),
            "byte_budget": self.byte_budget,
            "hits": int(self._index["hits"]),
            "misses": int(self._index["misses"]),
            "by_kind": dict(sorted(by_kind.items())),
        }

    def entries(self) -> List[Dict[str, object]]:
        """Index rows for ``repro store ls`` (most recent first)."""
        rows = [
            {"key": key, "kind": entry["kind"], "size": entry["size"],
             "tick": entry["tick"], "meta": dict(entry["meta"])}
            for key, entry in self._index["entries"].items()
        ]
        rows.sort(key=lambda row: -int(row["tick"]))
        return rows

    # -- internals -----------------------------------------------------
    def _next_tick(self) -> int:
        self._index["tick"] = int(self._index["tick"]) + 1
        return self._index["tick"]

    def _count(self, counter: str) -> None:
        self._index[counter] = int(self._index[counter]) + 1

    def _evict(self, key: str, path: Path) -> None:
        self._index["entries"].pop(key, None)
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def _read_checked(path: Path, entry: Optional[dict],
                      reader: Callable[[Path], object]) -> object:
        """``reader(path)`` after checking the object against the size
        and sha256 that ``entry`` recorded (if there is an entry)."""
        if entry is not None:
            size = path.stat().st_size
            if size != entry["size"]:
                raise SerializationError(
                    f"size changed on disk ({size} vs recorded "
                    f"{entry['size']})"
                )
            if _sha256_file(path) != entry["sha256"]:
                raise SerializationError("sha256 mismatch")
        return reader(path)

    def _adopt(self, key: str, kind: str, path: Path) -> None:
        self._index["entries"][key] = {
            "kind": kind,
            "size": path.stat().st_size,
            "sha256": _sha256_file(path),
            "tick": self._next_tick(),
            "meta": {},
        }

    def _gc_locked(self) -> Tuple[int, int]:
        entries = self._index["entries"]
        total = sum(entry["size"] for entry in entries.values())
        budget = self.byte_budget
        evicted = freed = 0
        for key in sorted(entries, key=lambda k: entries[k]["tick"]):
            if total <= budget:
                break
            size = entries[key]["size"]
            self._evict(key, self.object_path(key, entries[key]["kind"]))
            total -= size
            freed += size
            evicted += 1
        if evicted:
            logger.info("store gc: evicted %d entr%s (%d bytes) to "
                        "fit %d-byte budget", evicted,
                        "y" if evicted == 1 else "ies", freed, budget)
        return evicted, freed

    def _write_index(self) -> None:
        atomic_write_text(
            self.index_path,
            json.dumps(self._index, indent=1, sort_keys=True),
        )

    @contextlib.contextmanager
    def _locked_index(self):
        """Every index write goes through here.  Under an exclusive
        ``flock`` across processes, the body mutates this process's
        index after it is rebased on the one on disk, and the result is
        written before the lock is released; so an entry another
        process recorded is never dropped or overwritten by a stale
        snapshot, and publishing an object together with its entry is
        one step."""
        descriptor = os.open(str(self.directory / LOCK_NAME),
                             os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            self._merge_disk_index()
            yield
            self._write_index()
        finally:
            os.close(descriptor)  # closing releases the lock

    def _merge_disk_index(self) -> None:
        """Rebase this process's index on the one on disk and reconcile
        it with the object tree.  Under :meth:`_locked_index` an entry
        another process wrote since this snapshot is then neither lost
        nor overwritten by a stale one.  Counters and the LRU clock
        only move forward."""
        loaded = self._read_index_file()
        if loaded is not None:
            merged = self._fresh_index()
            merged.update(loaded)
            for counter in ("tick", "hits", "misses"):
                merged[counter] = max(int(merged[counter]),
                                      int(self._index[counter]))
            self._index = merged
        self._reconcile()

    def _read_index_file(self) -> Optional[dict]:
        """The index on disk, or ``None`` if it is missing or unusable."""
        try:
            loaded = json.loads(
                self.index_path.read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            logger.warning(
                "store index %s is corrupt (%s) — rebuilding from "
                "directory scan", self.index_path, error,
            )
            return None
        if (isinstance(loaded, dict)
                and loaded.get("version") == INDEX_VERSION
                and isinstance(loaded.get("entries"), dict)):
            return loaded
        logger.warning(
            "store index %s is unusable — rebuilding from directory "
            "scan", self.index_path,
        )
        return None

    def _reconcile(self) -> None:
        """Sync index entries with the objects actually on disk."""
        on_disk: Dict[str, Tuple[str, Path]] = {}
        for path in self.objects_dir.glob("*/*"):
            if path.name.startswith(".tmp-"):
                continue
            parts = path.name.split(".")
            if len(parts) < 3:
                continue
            key, kind = parts[0], parts[1]
            if kind in KIND_EXTENSIONS:
                on_disk[key] = (kind, path)
        entries = self._index["entries"]
        for key in [k for k in entries if k not in on_disk]:
            del entries[key]
        for key, (kind, path) in on_disk.items():
            if key not in entries:
                self._adopt(key, kind, path)

    def _fresh_index(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "byte_budget": DEFAULT_BYTE_BUDGET,
            "tick": 0,
            "hits": 0,
            "misses": 0,
            "entries": {},
        }
