"""Disk-backed campaign/analysis cache.

The paper-scale campaign costs ~15 s per seed; figure sweeps, benchmarks
and the CLI all replay the same handful of configurations.  This module
persists campaign results under ``~/.cache/repro`` so repeated runs —
including runs in *different processes* — skip re-simulation entirely.

Keys
----

An entry is keyed on a SHA-256 digest over:

* the canonical field-by-field rendering of the :class:`CampaignConfig`
  (seed included; the execution fields ``workers``/``backend`` excluded,
  because every backend produces bit-identical results);
* the package version; and
* a fingerprint of the package's own source tree, so *any* code change
  invalidates every cached entry rather than silently serving stale
  simulations.

Storage is pickle — appropriate for a local cache of deterministic
simulation output, not an interchange format.  Unreadable or corrupt
entries are treated as misses.  Set ``REPRO_NO_CACHE=1`` to disable, or
``REPRO_CACHE_DIR`` to relocate the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from . import __version__
from .core.errors import CheckpointError

try:  # POSIX advisory locks; Windows falls back to lockfile spinning.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Bump to orphan every existing entry when the on-disk layout changes.
#: Schema 2: campaign archives are stored columnar (see repro.logs.columnar).
CACHE_SCHEMA = 2

#: Config fields that steer execution without affecting results.
EXECUTION_FIELDS = ("workers", "backend")


def cache_root() -> Path:
    """The cache directory (``REPRO_CACHE_DIR`` > XDG > ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


def _canonical(obj: Any) -> Any:
    """A JSON-able, order-stable rendering of (nested) config objects."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        rendered = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        rendered["__type__"] = type(obj).__qualname__
        return rendered
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, float):
        return repr(obj)  # full precision, stable across platforms
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


_SOURCE_FINGERPRINT: str | None = None


def source_fingerprint() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Hashing file *contents* (not mtimes) keeps the fingerprint identical
    across processes and machines for the same code, while any edit to
    the simulation invalidates the whole cache.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        package_dir = Path(__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def config_digest(config: Any, exclude: tuple[str, ...] = EXECUTION_FIELDS) -> str:
    """Stable cache key for a campaign configuration."""
    payload = _canonical(config)
    if isinstance(payload, dict):
        for name in exclude:
            payload.pop(name, None)
    envelope = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "source": source_fingerprint(),
        "config": payload,
    }
    blob = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class FileLock:
    """Advisory inter-process lock guarding a directory's writers.

    Uses ``flock`` where available (POSIX), else an ``O_EXCL`` lockfile
    with timed spinning.  Concurrent ``repro`` invocations serialize
    their cache/journal writes through this, so two processes can never
    interleave a torn entry.  Reentrant within a process is *not*
    supported — hold it for the shortest write possible.
    """

    def __init__(self, path: str | Path, timeout_s: float = 30.0):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._fd: int | None = None

    def acquire(self) -> None:
        import time as _time

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            deadline = _time.monotonic() + self.timeout_s
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError:
                    if _time.monotonic() >= deadline:
                        os.close(fd)
                        raise TimeoutError(f"could not lock {self.path}")
                    _time.sleep(0.02)
        else:  # pragma: no cover - non-POSIX fallback
            deadline = _time.monotonic() + self.timeout_s
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    return
                except FileExistsError:
                    if _time.monotonic() >= deadline:
                        raise TimeoutError(f"could not lock {self.path}")
                    _time.sleep(0.02)

    def release(self) -> None:
        if self._fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(self._fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self._fd = None

    def __enter__(self) -> "FileLock":
        try:
            self.acquire()
            return self
        except BaseException:
            # Never leak a held lock out of a failed __enter__ —
            # release() is a no-op when acquire() itself failed.
            self.release()
            raise

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


@dataclass
class CampaignCache:
    """Content-addressed pickle store for campaign results."""

    root: Path = field(default_factory=cache_root)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if cache_disabled_by_env():
            self.enabled = False

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _lock(self) -> FileLock:
        return FileLock(self.root / ".lock")

    # -- primitives ---------------------------------------------------------

    def load(self, key: str) -> Any | None:
        """The cached value for ``key``, or None on any kind of miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def store(self, key: str, value: Any) -> bool:
        """Persist ``value`` atomically; False if the write failed.

        The write is temp-file + ``os.replace`` (readers never see a torn
        entry) *and* serialized through an inter-process :class:`FileLock`
        so concurrent ``repro`` invocations storing the same key cannot
        interleave — last completed writer wins cleanly.
        """
        if not self.enabled:
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._lock():
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, self.path_for(key))
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
        except (OSError, TimeoutError):
            return False
        self.stats.stores += 1
        return True

    def get_or_compute(self, config: Any, compute: Callable[[], Any]) -> Any:
        """The cached result for ``config``, computing and storing on miss."""
        key = config_digest(config)
        value = self.load(key)
        if value is None:
            value = compute()
            self.store(key, value)
        return value

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# Campaign checkpoint journal
# ---------------------------------------------------------------------------

#: Frame magic for one journal entry; bump with the frame layout.
JOURNAL_MAGIC = b"RJN1"

#: Journal schema carried in meta.json; bump to orphan old checkpoints.
#: Schema 2: journaled units carry their rows as ``RecordColumns``.
JOURNAL_SCHEMA = 2

_JOURNAL_META = "meta.json"
_JOURNAL_FILE = "journal.bin"
_HEADER_LEN = len(JOURNAL_MAGIC) + 8 + 32  # magic | u64 length | sha256


class CampaignJournal:
    """Append-only, fsync'd checkpoint of completed per-node results.

    The durability protocol mirrors the columnar archive's manifest-last
    discipline, adapted to incremental appends: ``meta.json`` (the
    config digest this checkpoint belongs to) is written first and
    fsync'd, then each completed node appends one checksummed frame —
    ``magic | u64 payload length | sha256(payload) | payload`` — to
    ``journal.bin``, fsync'd per append.  A crash mid-append leaves a
    torn tail that :meth:`entries` detects (short read or digest
    mismatch) and discards, so a resumed campaign recomputes exactly the
    nodes whose results never became durable.  A resume additionally
    *truncates* the torn bytes before appending — frames written after
    garbage would be unreachable on every later resume, since frame
    iteration stops at the first bad frame.

    Entries are keyed by node name; a node journaled twice (a retried
    driver) keeps the *first* durable entry, preserving bit-identity with
    an uninterrupted run since per-node results are deterministic.
    """

    def __init__(self, directory: str | Path, key: str):
        self.directory = Path(directory)
        self.key = key
        self._fh = None
        self.n_torn = 0
        #: Byte offset just past the last fully-validated frame, set by
        #: :meth:`entries` — the truncation point for a torn tail.
        self.valid_bytes = 0

    @property
    def journal_path(self) -> Path:
        return self.directory / _JOURNAL_FILE

    @property
    def meta_path(self) -> Path:
        return self.directory / _JOURNAL_META

    # -- lifecycle ----------------------------------------------------------

    def open(self, *, resume: bool) -> dict[str, Any]:
        """Create or attach to the journal; return already-durable entries.

        ``resume=False`` starts a fresh journal (truncating any previous
        one).  ``resume=True`` requires the existing checkpoint to carry
        the same config digest — resuming someone else's checkpoint would
        silently mix simulations — and returns its completed entries.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        existing: dict[str, Any] = {}
        if resume and self.meta_path.exists():
            try:
                meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint meta {self.meta_path}: {exc}"
                ) from exc
            if meta.get("schema") != JOURNAL_SCHEMA:
                raise CheckpointError(
                    f"checkpoint {self.directory} has schema "
                    f"{meta.get('schema')!r}, this writer uses {JOURNAL_SCHEMA}"
                )
            if meta.get("key") != self.key:
                raise CheckpointError(
                    f"checkpoint {self.directory} belongs to a different "
                    f"campaign configuration (digest {meta.get('key')!r}, "
                    f"this run is {self.key!r})"
                )
            existing = self.entries()
            if self.n_torn:
                # Amputate the torn tail before reopening for append:
                # frames written after garbage bytes would be unreachable
                # on every later resume (_iter_frames stops at the first
                # bad frame), so a second crash would lose all progress
                # journaled by this resumed run.
                with open(self.journal_path, "r+b") as fh:
                    fh.truncate(self.valid_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
        else:
            self._write_meta()
            try:
                self.journal_path.unlink()
            except FileNotFoundError:
                pass
        self._fh = open(self.journal_path, "ab")
        return existing

    def _write_meta(self) -> None:
        payload = json.dumps(
            {"schema": JOURNAL_SCHEMA, "key": self.key, "writer": __version__},
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.meta_path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends ------------------------------------------------------------

    def append(self, node: str, value: Any) -> None:
        """Durably journal one completed node (fsync before returning)."""
        if self._fh is None:
            raise CheckpointError("journal is not open for appends")
        payload = pickle.dumps((node, value), protocol=pickle.HIGHEST_PROTOCOL)
        frame = (
            JOURNAL_MAGIC
            + len(payload).to_bytes(8, "little")
            + hashlib.sha256(payload).digest()
            + payload
        )
        self._fh.write(frame)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # -- reads --------------------------------------------------------------

    def _iter_frames(self) -> Iterator[tuple[str, Any]]:
        try:
            blob = self.journal_path.read_bytes()
        except OSError:
            return
        offset = 0
        while offset < len(blob):
            header = blob[offset : offset + _HEADER_LEN]
            if len(header) < _HEADER_LEN or not header.startswith(JOURNAL_MAGIC):
                self.n_torn += 1
                return  # torn or foreign tail: everything after is void
            length = int.from_bytes(header[4:12], "little")
            digest = header[12:44]
            payload = blob[offset + _HEADER_LEN : offset + _HEADER_LEN + length]
            if len(payload) < length or hashlib.sha256(payload).digest() != digest:
                self.n_torn += 1
                return
            try:
                node, value = pickle.loads(payload)
            except Exception:
                self.n_torn += 1
                return
            offset += _HEADER_LEN + length
            self.valid_bytes = offset
            yield node, value

    def entries(self) -> dict[str, Any]:
        """All durable entries, first write per node winning."""
        self.n_torn = 0
        self.valid_bytes = 0
        out: dict[str, Any] = {}
        for node, value in self._iter_frames():
            out.setdefault(node, value)
        return out


_DEFAULT_CACHE: CampaignCache | None = None


def default_cache() -> CampaignCache:
    """The process-wide cache instance (honours the env switches)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CampaignCache()
    return _DEFAULT_CACHE
