"""The local storage element namespace.

Task outputs staged through Chirp land here; merge planners list and
group them; merged files are published back.  The namespace is the
bookkeeping layer — actual byte movement is modelled by the Chirp/HDFS
transfer paths.

Integrity model: a :class:`StoredFile` carries the *recorded* checksum
(what the producer computed), while the element keeps a parallel map of
the digest of the bytes actually on disk.  Faults diverge the two —
``corrupt()`` models bit rot at rest, ``arm_truncation()`` models a
killed transfer whose partial file still "arrives" — and ``verify()``
is the checksum re-read every consuming hop performs before trusting a
file.  Files stored without a checksum (legacy producers) verify
trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .integrity import IntegrityError, rotted_digest, truncated_digest

__all__ = ["StoredFile", "StorageElement"]


@dataclass(frozen=True)
class StoredFile:
    """One file in the storage element."""

    name: str
    size_bytes: float
    created: float = 0.0
    #: Which workflow/task produced it (for merge bookkeeping).
    source: str = ""
    #: Content digest recorded by the producer; "" means unchecksummed.
    checksum: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size must be non-negative")


class StorageElement:
    """A flat namespace of files with usage and integrity accounting."""

    def __init__(
        self,
        name: str = "se",
        capacity_bytes: Optional[float] = None,
        env=None,
    ):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.env = env
        self._files: Dict[str, StoredFile] = {}
        #: Digest of the bytes actually on disk, per file.  Equals the
        #: recorded checksum unless a fault corrupted the write or the
        #: file at rest.
        self._content: Dict[str, str] = {}
        self._truncate_next = 0
        # -- integrity counters (read by faults/report/tests) --
        self.truncations_injected = 0
        self.corruptions_injected = 0
        self.verifications = 0
        self.corruptions_detected = 0

    # -- namespace ----------------------------------------------------------
    def store(self, f: StoredFile) -> None:
        if f.name in self._files:
            raise ValueError(f"file exists: {f.name}")
        if (
            self.capacity_bytes is not None
            and self.used_bytes + f.size_bytes > self.capacity_bytes
        ):
            raise IOError(f"{self.name}: storage element full")
        content = f.checksum
        if self._truncate_next > 0 and f.checksum:
            # A killed transfer left a partial file that still arrived:
            # the namespace entry looks whole, the bytes do not match.
            self._truncate_next -= 1
            self.truncations_injected += 1
            content = truncated_digest(f.checksum)
        self._files[f.name] = f
        self._content[f.name] = content

    def delete(self, name: str) -> StoredFile:
        try:
            f = self._files.pop(name)
        except KeyError:
            raise FileNotFoundError(name) from None
        self._content.pop(name, None)
        return f

    def stat(self, name: str) -> StoredFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def listdir(self, prefix: str = "") -> List[StoredFile]:
        return sorted(
            (f for n, f in self._files.items() if n.startswith(prefix)),
            key=lambda f: f.name,
        )

    # -- integrity ----------------------------------------------------------
    def corrupt(self, name: str, salt: int = 0) -> None:
        """Silently flip bytes in a committed file (bit rot at rest)."""
        f = self.stat(name)
        base = self._content.get(name, f.checksum)
        self._content[name] = rotted_digest(base or name, salt)
        self.corruptions_injected += 1

    def arm_truncation(self, count: int = 1) -> None:
        """Truncate the next ``count`` checksummed writes in flight."""
        self._truncate_next += count

    def verify(self, name: str) -> StoredFile:
        """Re-read a file's checksum; raise IntegrityError on mismatch.

        The check every consuming hop (merge stage-in, commit,
        publish) performs before trusting a file.  A mismatch also
        publishes an ``integrity.corrupt`` bus event when the element
        is bound to an environment.
        """
        f = self.stat(name)
        self.verifications += 1
        if not f.checksum:
            return f
        actual = self._content.get(name, f.checksum)
        if actual != f.checksum:
            self.corruptions_detected += 1
            if self.env is not None:
                from ..desim.bus import Topics

                port = self.env.bus.port(Topics.INTEGRITY_CORRUPT)
                if port:
                    port.emit(
                        name=name,
                        expected=f.checksum,
                        actual=actual,
                        where=self.name,
                    )
            raise IntegrityError(name, f.checksum, actual, where=self.name)
        return f

    # -- crash snapshots ------------------------------------------------------
    def snapshot(self) -> Dict:
        """Freeze the durable namespace state (for repro.crashtest).

        Captures everything a surviving storage element would still hold
        after the *master* dies: the file entries, the on-disk content
        digests, any armed truncations, and the integrity counters.
        """
        return {
            "files": [
                (f.name, f.size_bytes, f.created, f.source, f.checksum)
                for f in self._files.values()
            ],
            "content": dict(self._content),
            "truncate_next": self._truncate_next,
            "counters": (
                self.truncations_injected,
                self.corruptions_injected,
                self.verifications,
                self.corruptions_detected,
            ),
        }

    def restore_state(self, state: Dict) -> None:
        """Replace this element's namespace with a :meth:`snapshot`."""
        self._files = {
            name: StoredFile(name, size, created, source, checksum)
            for name, size, created, source, checksum in state["files"]
        }
        self._content = dict(state["content"])
        self._truncate_next = int(state["truncate_next"])
        (
            self.truncations_injected,
            self.corruptions_injected,
            self.verifications,
            self.corruptions_detected,
        ) = state["counters"]

    # -- accounting -----------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return sum(f.size_bytes for f in self._files.values())

    @property
    def n_files(self) -> int:
        return len(self._files)

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StorageElement {self.name} files={self.n_files} used={self.used_bytes:.0f}B>"
