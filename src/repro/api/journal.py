"""Crash-safe journal directories, shared by the sweep executor and serve.

A journal is a directory that checkpoints completed work so a crashed run
can resume.  Both engines that keep one -- the sharded sweep
(:class:`repro.api.parallel.SweepJournal`) and the serving loop
(:class:`repro.serve.loop.ServeJournal`) -- get the same guarantees from
:class:`Journal`:

- ``meta.json`` records the content digest of the spec that owns the
  directory; opening it for a different spec is an error, never a silent
  merge of unrelated results;
- a non-empty directory without ``meta.json`` is not a journal and is
  refused, so cleanup can never delete someone else's files;
- a journal that already holds completed entries is only reused with
  ``resume=True``;
- every entry is a pickled dict stamped with the spec digest and checked
  on read, so an entry copied in from another journal is refused on its own
  evidence;
- every file is written by :func:`atomic_write` (temp file, then rename),
  so a crash mid-write never leaves a truncated file a resume would trust.

Subclasses only name their entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["Journal", "atomic_write", "content_digest"]


def atomic_write(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a temp file in the same directory.

    The rename is atomic, so readers see either the old file or the whole
    new one, never a torn write; the temp file is removed on failure.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def content_digest(spec: Any) -> str:
    """Content digest of a spec, for journal compatibility checks.

    Canonical JSON of ``to_dict`` when the spec is serializable (always
    true for spec files); a pickle digest otherwise (programmatic specs
    carrying rich objects) -- journals are same-machine artifacts, so the
    weaker canonicality is acceptable there.
    """
    try:
        payload = json.dumps(spec.to_dict(), sort_keys=True).encode()
    except TypeError:
        payload = pickle.dumps(spec)
    return hashlib.sha256(payload).hexdigest()


class Journal:
    """A checkpoint directory owned by one spec (see the module docstring).

    ``entry_glob`` matches the completed-work entries: their presence makes
    the journal dirty, so reopening it without ``resume`` is refused.
    """

    entry_glob = "*.pkl"

    _META_VERSION = 1
    #: Version of the entry payload.  v1 embeds the spec digest in every
    #: entry -- the meta.json check alone cannot see an entry file copied
    #: (or symlinked) in from another spec's journal.
    _ENTRY_VERSION = 1

    def __init__(self, path: str | Path, spec: Any) -> None:
        self.path = Path(path)
        self.digest = content_digest(spec)

    def open(self, resume: bool, **meta: Any) -> dict:
        """Create the journal directory, or validate it against the spec.

        A fresh journal records ``meta`` next to the digest in
        ``meta.json``; an existing one returns what it recorded, so
        subclasses can reconcile their own settings against it.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        meta_path = self.path / "meta.json"
        if not meta_path.exists():
            if any(self.path.iterdir()):
                raise ValueError(
                    f"journal directory {self.path} is not empty and has no "
                    "meta.json; refusing to adopt it -- choose a fresh directory"
                )
            recorded = {
                "version": self._META_VERSION,
                "spec_digest": self.digest,
                **meta,
            }
            atomic_write(meta_path, json.dumps(recorded, indent=2).encode())
            return recorded
        recorded = json.loads(meta_path.read_text())
        if recorded.get("spec_digest") != self.digest:
            raise ValueError(
                f"journal {self.path} belongs to a different spec "
                f"(digest {recorded.get('spec_digest', '?')[:12]}... != "
                f"{self.digest[:12]}...); use a fresh journal directory"
            )
        if not resume and any(self.path.glob(self.entry_glob)):
            raise ValueError(
                f"journal {self.path} already holds completed work; pass "
                "resume=True (--resume) to reuse it or choose a fresh directory"
            )
        return recorded

    def write_entry(self, name: str, **fields: Any) -> None:
        """Atomically write entry ``name``, stamped with the spec digest."""
        payload = {
            "version": self._ENTRY_VERSION,
            "spec_digest": self.digest,
            **fields,
        }
        atomic_write(self.path / name, pickle.dumps(payload))

    def read_entry(self, name: str) -> dict | None:
        """Entry ``name``'s payload, or ``None`` if it was never written."""
        path = self.path / name
        if not path.exists():
            return None
        return self._load(path)

    def read_entries(self) -> list[dict]:
        """Every ``entry_glob`` entry's payload, in file-name order."""
        return [self._load(path) for path in sorted(self.path.glob(self.entry_glob))]

    def _load(self, path: Path) -> dict:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if not isinstance(payload, dict) or "spec_digest" not in payload:
            raise ValueError(
                f"journal entry {path} has no spec digest (written by an "
                "older version?); re-run without --resume or use a fresh "
                "journal directory"
            )
        if payload["spec_digest"] != self.digest:
            raise ValueError(
                f"journal entry {path} was written by a different spec "
                f"(digest {payload['spec_digest'][:12]}... != "
                f"{self.digest[:12]}...); use a fresh journal directory"
            )
        return payload
