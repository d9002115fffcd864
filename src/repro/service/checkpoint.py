"""Atomic JSON checkpoints for the windowed service, with chain recovery.

One checkpoint *chain* per service: the newest checkpoint lives at ``path``,
its ancestors at ``path.1`` (one write ago), ``path.2``, ... up to the
retention limit.  Every write is atomic (temp file in the same directory,
fsync, then ``os.replace``), so a SIGKILL at any instant leaves either the
previous or the new checkpoint — never a torn file.  The payload carries
only sufficient statistics and probe state (accumulator snapshots, converged
EM weights, detector state), so its size is bounded by the grid geometry,
not by how many users the stream has absorbed.

Atomic writes cannot protect a file *after* it lands — disks corrupt, ops
truncate, backups restore partially.  Recovery is
:meth:`CheckpointChain.load_latest`: walk the chain newest-first, quarantine
every invalid member (renamed aside with a ``.quarantined`` suffix, never
deleted — it is evidence), and resume from the newest member that still
validates; the service then replays the missing windows bit-identically,
because each window's randomness is derived from the spec seed, not from
run history.  Each payload embeds a SHA-256 ``checksum`` over its canonical
JSON (checked when present, so pre-checksum checkpoints stay loadable): a
flipped bit deep inside a float array still parses as valid JSON, and only
the checksum catches it at load time.

Python's ``json`` round-trips finite floats exactly (``repr`` emits the
shortest representation that parses back to the same double), which is what
makes resume *bit*-identical rather than merely close.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.resilience import stats
from repro.utils.durable import write_json

#: bump when the checkpoint layout changes incompatibly
CHECKPOINT_VERSION = 1

#: suffix quarantined (invalid) chain members are renamed aside with
QUARANTINE_SUFFIX = ".quarantined"

#: ancestors retained alongside the newest checkpoint by default
DEFAULT_RETAIN = 3


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of everything except ``checksum``."""
    canonical = json.dumps(
        {key: value for key, value in payload.items() if key != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_checkpoint(path: str, payload: Mapping[str, Any]) -> None:
    """Atomically write a checkpoint payload (checksum-stamped) to ``path``."""
    payload = dict(payload)
    payload["checksum"] = payload_checksum(payload)
    write_json(path, payload)


def load_checkpoint(path: str, expected_digest: str | None = None) -> Dict[str, Any]:
    """Load and structurally validate a checkpoint.

    Raises ``ValueError`` when the file is not a checkpoint of the expected
    version, or — when ``expected_digest`` is given — when it belongs to a
    different service identity (changed window boundaries, seed, probe
    knobs, ...).  A mismatched checkpoint must never be silently resumed:
    the resulting stream would be neither the old one nor the new one.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"checkpoint {path!r} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path!r} must hold a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has version {version!r}, expected "
            f"{CHECKPOINT_VERSION}"
        )
    for key in ("digest", "next_window", "cumulative", "windows", "detector"):
        if key not in payload:
            raise ValueError(f"checkpoint {path!r} is missing key {key!r}")
    stored_checksum = payload.pop("checksum", None)
    if stored_checksum is not None and stored_checksum != payload_checksum(payload):
        # absent in pre-checksum checkpoints (still loadable); present but
        # wrong means silent corruption that survived the JSON parse
        raise ValueError(
            f"checkpoint {path!r} failed its integrity checksum (the file "
            f"parses but its bytes were altered after writing)"
        )
    if expected_digest is not None and payload["digest"] != expected_digest:
        raise ValueError(
            f"checkpoint {path!r} belongs to a different service configuration "
            f"(digest {payload['digest']!r}, expected {expected_digest!r}); "
            f"delete it or restore the original spec"
        )
    return payload


class CheckpointChain:
    """A rotating last-good chain of checkpoints with quarantine recovery.

    ``path`` holds the newest checkpoint; each :meth:`write` first shifts the
    existing members one slot deeper (``path`` → ``path.1`` → ``path.2`` ...),
    dropping the member past ``retain - 1`` ancestors.  ``retain`` is an
    execution detail: it bounds how far back recovery can reach, never what a
    healthy run computes.

    :meth:`load_latest` walks the chain newest-first and returns the newest
    member that validates, renaming every invalid member it walked past to
    ``<name>.quarantined`` (``.quarantined.1``, ... on collision) — kept, not
    deleted, because a corrupt checkpoint is evidence worth inspecting.  One
    deliberate asymmetry: a checkpoint that is *valid but belongs to a
    different service identity* (digest mismatch) is only quarantined when a
    valid same-identity ancestor exists to roll back to.  With nothing to
    roll back to, the mismatch is a configuration error — the caller pointed
    one service at another service's state — and silently starting fresh
    would hide it, so the original ``ValueError`` is re-raised instead.
    """

    def __init__(self, path: str, retain: int = DEFAULT_RETAIN) -> None:
        retain = int(retain)
        if retain < 1:
            raise ValueError(f"checkpoint retain must be >= 1, got {retain}")
        self.path = os.fspath(path)
        self.retain = retain

    def member_paths(self) -> List[str]:
        """Every chain slot, newest first (files may not all exist)."""
        return [self.path] + [
            f"{self.path}.{age}" for age in range(1, self.retain)
        ]

    def existing(self) -> List[str]:
        """The chain members currently on disk, newest first."""
        return [path for path in self.member_paths() if os.path.exists(path)]

    def write(self, payload: Mapping[str, Any]) -> None:
        """Rotate the chain one slot deeper and write the new head."""
        members = self.member_paths()
        for age in range(len(members) - 1, 0, -1):
            if os.path.exists(members[age - 1]):
                os.replace(members[age - 1], members[age])
        write_checkpoint(self.path, payload)

    def _quarantine(self, path: str) -> str:
        target = path + QUARANTINE_SUFFIX
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = f"{path}{QUARANTINE_SUFFIX}.{suffix}"
        os.replace(path, target)
        stats.record("checkpoint_quarantined")
        return target

    def load_latest(
        self, expected_digest: str | None = None
    ) -> Tuple[Optional[Dict[str, Any]], List[str]]:
        """The newest valid payload and the quarantined members walked past.

        Returns ``(None, quarantined)`` when no member validates (fresh
        start), re-raising the digest mismatch instead when the only failure
        mode was a foreign identity (see the class docstring).
        """
        failures: List[Tuple[str, ValueError, bool]] = []
        chosen: Optional[Dict[str, Any]] = None
        for path in self.existing():
            try:
                chosen = load_checkpoint(path, expected_digest)
                break
            except ValueError as error:
                foreign = "different service configuration" in str(error)
                failures.append((path, error, foreign))
        if chosen is None and failures and all(f[2] for f in failures):
            raise failures[0][1]
        quarantined: List[str] = []
        for path, error, _foreign in failures:
            target = self._quarantine(path)
            quarantined.append(target)
            warnings.warn(
                f"quarantined invalid checkpoint {path!r} -> {target!r}: "
                f"{error}",
                RuntimeWarning,
                stacklevel=3,
            )
        return chosen, quarantined


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointChain",
    "DEFAULT_RETAIN",
    "QUARANTINE_SUFFIX",
    "load_checkpoint",
    "payload_checksum",
    "write_checkpoint",
]
