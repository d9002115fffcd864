"""Atomic JSON checkpoints for the windowed service, with chain recovery.

One checkpoint *chain* per service: the newest checkpoint lives at ``path``,
its ancestors at ``path.1`` (one write ago), ``path.2``, ... up to the
retention limit.  Every write is atomic (temp file in the same directory,
fsync, then ``os.replace``), so a SIGKILL at any instant leaves either the
previous or the new checkpoint — never a torn file.  The payload carries
only sufficient statistics and warm state (accumulator snapshots, the probe's
and every budget group's converged EM weights, detector state), so its size
is bounded by the grid geometry and the window count, not by how many users
the stream has absorbed.

Atomic writes cannot protect a file *after* it lands — disks corrupt, ops
truncate, backups restore partially.  Recovery is
:meth:`CheckpointChain.load_latest`: walk the chain newest-first, quarantine
every invalid member (renamed aside with a ``.quarantined`` suffix, never
deleted — it is evidence), and resume from the newest member that still
validates; the service then replays the missing windows bit-identically,
because each window's randomness is derived from the spec seed, not from
run history.

The file body is the payload's *canonical* JSON (sorted keys, no
whitespace), serialised once, with ``"checksum"`` — the SHA-256 of exactly
that canonical text — spliced in as the first key.  Every version-2
checkpoint must carry it, and :func:`load_checkpoint` re-derives the
canonical text from the parsed payload and compares: a flipped bit deep
inside a float array still parses as valid JSON, and only the checksum
catches it.  A file whose ``checksum`` key is missing (deleted, or damaged
into another key) is invalid like any other, so the chain quarantines it.

Resume is *bit*-identical rather than merely close because every number
comes back exactly.  Scalars ride as JSON floats, which Python's ``json``
round-trips (``repr`` emits the shortest string that parses back to the same
double).  The warm EM weight vectors ride as their raw bytes instead —
little-endian float64, base64-encoded (:func:`encode_weights`) — which is
exact too, and much cheaper to write than a JSON list of float reprs.
:func:`load_checkpoint` decodes them (:func:`decode_weights`) and refuses a
vector of the wrong length or with a non-finite or negative entry, so the
chain quarantines such a checkpoint like any other invalid member.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import warnings
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.resilience import stats
from repro.utils.durable import write_text

#: bump when the checkpoint layout changes incompatibly (2: the warm state
#: covers every budget group, and weight vectors are encoded bytes)
CHECKPOINT_VERSION = 2

#: payload section holding the encoded warm EM weight vectors
WARM_KEY = "warm"

#: key of an encoded weight vector's base64 payload
_BYTES_KEY = "f64le"

#: suffix quarantined (invalid) chain members are renamed aside with
QUARANTINE_SUFFIX = ".quarantined"

#: ancestors retained alongside the newest checkpoint by default
DEFAULT_RETAIN = 3


def _canonical(payload: Mapping[str, Any]) -> str:
    """The canonical JSON of everything in ``payload`` except ``checksum``."""
    return json.dumps(
        {key: value for key, value in payload.items() if key != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of everything except ``checksum``."""
    return _sha256(_canonical(payload))


def encode_weights(weights: np.ndarray) -> Dict[str, Any]:
    """A weight vector as ``{"n": length, "f64le": base64 of its bytes}``.

    The bytes are the vector's little-endian float64 values, so decoding
    gives back every value bit for bit (zeros and subnormals included).
    """
    array = np.ascontiguousarray(weights, dtype="<f8")
    return {
        "n": int(array.size),
        _BYTES_KEY: base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_weights(encoded: Any) -> np.ndarray:
    """Invert :func:`encode_weights`, refusing anything but a valid vector.

    Raises ``ValueError`` unless ``encoded`` decodes to exactly ``n``
    finite, non-negative float64 values.
    """
    if not isinstance(encoded, dict) or set(encoded) != {"n", _BYTES_KEY}:
        raise ValueError(f"encoded weights must be {{'n', {_BYTES_KEY!r}}}")
    n = encoded["n"]
    try:
        raw = base64.b64decode(encoded[_BYTES_KEY], validate=True)
    except (binascii.Error, TypeError) as error:
        raise ValueError(f"encoded weights are not valid base64: {error}") from None
    if not isinstance(n, int) or isinstance(n, bool) or len(raw) != 8 * n:
        raise ValueError(
            f"encoded weights hold {len(raw)} bytes, not the {n!r} float64 "
            f"values their length claims"
        )
    weights = np.frombuffer(raw, dtype="<f8").astype(float)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("encoded weights must be finite and non-negative")
    return weights


def _encode_section(node: Any) -> Any:
    """``node`` with every array in it encoded (:func:`encode_weights`)."""
    if isinstance(node, np.ndarray):
        return encode_weights(node)
    if isinstance(node, dict):
        return {key: _encode_section(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_encode_section(value) for value in node]
    return node


def _decode_section(node: Any) -> Any:
    """``node`` with every encoded weight vector in it decoded."""
    if isinstance(node, dict):
        if _BYTES_KEY in node:
            return decode_weights(node)
        return {key: _decode_section(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode_section(value) for value in node]
    return node


def write_checkpoint(path: str, payload: Mapping[str, Any]) -> None:
    """Atomically write a checkpoint payload (checksum-stamped) to ``path``.

    The payload is serialised once, canonically; that text is both the
    checksum's input and the file body, behind the ``"checksum"`` key.
    Arrays in the :data:`WARM_KEY` section are written as exact bytes
    (:func:`encode_weights`).
    """
    payload = dict(payload)
    if payload.get(WARM_KEY) is not None:
        payload[WARM_KEY] = _encode_section(payload[WARM_KEY])
    canonical = _canonical(payload)
    head = '{"checksum":"' + _sha256(canonical) + '"'
    write_text(path, head + ("}" if canonical == "{}" else "," + canonical[1:]))


def load_checkpoint(path: str, expected_digest: str | None = None) -> Dict[str, Any]:
    """Load and structurally validate a checkpoint.

    Raises ``ValueError`` when the file is not a checkpoint of the expected
    version, when its ``checksum`` is missing or does not match, or — when
    ``expected_digest`` is given — when it belongs to a
    different service identity (changed window boundaries, seed, probe
    knobs, ...).  A mismatched checkpoint must never be silently resumed:
    the resulting stream would be neither the old one nor the new one.
    The :data:`WARM_KEY` section comes back with its weight vectors decoded
    to arrays (:func:`decode_weights`, which raises ``ValueError`` too), so
    a loaded payload can be written back as it is.
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
    if "checksum" not in payload:
        raise ValueError(f"checkpoint {path!r} has no integrity checksum")
    if payload.pop("checksum") != payload_checksum(payload):
        # silent corruption that survived the JSON parse
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
    if payload.get(WARM_KEY) is not None:
        try:
            payload[WARM_KEY] = _decode_section(payload[WARM_KEY])
        except ValueError as error:
            raise ValueError(
                f"checkpoint {path!r} holds invalid warm state: {error}"
            ) from None
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
    "WARM_KEY",
    "decode_weights",
    "encode_weights",
    "load_checkpoint",
    "payload_checksum",
    "write_checkpoint",
]
