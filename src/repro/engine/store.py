"""Columnar, JSON-persistable run artifacts.

A run artifact captures one executed sweep: the run identity
(:func:`repro.engine.executor.run_identity`), the sweep points, and the
measurements laid out column-wise (one array per field) so downstream
tooling — notebooks, the examples — can load a run without re-running it,
and an interrupted sweep can resume from the units already on disk.

Format (``repro.engine.run/v1``)::

    {
      "format": "repro.engine.run/v1",
      "meta":    {...},                      # run identity + provenance
      "points":  {"0": {...}, "1": {...}},   # point_index -> sweep point
      "columns": {
        "point_index": [...], "scheme": [...],
        "mse": [...], "bias": [...], "n_trials": [...]
      }
    }
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from repro.simulation.sweep import SweepRecord

FORMAT = "repro.engine.run/v1"

#: the measurement columns of a sweep record
RECORD_COLUMNS = ("point_index", "scheme", "mse", "bias", "n_trials")


def _json_value(value: Any) -> Any:
    """Coerce numpy scalars (and tuples) into JSON-representable values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


@dataclass(frozen=True)
class StoredRecord:
    """One measurement row tied back to its sweep-point index."""

    point_index: int
    record: SweepRecord


@dataclass
class RunArtifact:
    """A loaded run: provenance metadata plus the measurement rows."""

    meta: Dict[str, Any]
    rows: List[StoredRecord]

    @property
    def records(self) -> List[SweepRecord]:
        """The measurements, in stored order."""
        return [row.record for row in self.rows]


def records_to_columns(
    records: Sequence[SweepRecord], point_indices: Sequence[int]
) -> tuple[Dict[str, Dict[str, Any]], Dict[str, List[Any]]]:
    """Lay sweep records out column-wise; returns ``(points, columns)``."""
    if len(records) != len(point_indices):
        raise ValueError(
            f"{len(records)} records but {len(point_indices)} point indices"
        )
    points: Dict[str, Dict[str, Any]] = {}
    columns: Dict[str, List[Any]] = {name: [] for name in RECORD_COLUMNS}
    for record, point_index in zip(records, point_indices):
        key = str(int(point_index))
        points.setdefault(
            key, {name: _json_value(value) for name, value in record.point.items()}
        )
        columns["point_index"].append(int(point_index))
        columns["scheme"].append(record.scheme)
        columns["mse"].append(float(record.mse))
        columns["bias"].append(float(record.bias))
        columns["n_trials"].append(int(record.n_trials))
    return points, columns


def columns_to_records(
    points: Mapping[str, Mapping[str, Any]], columns: Mapping[str, Sequence[Any]]
) -> List[StoredRecord]:
    """Inverse of :func:`records_to_columns`."""
    missing = [name for name in RECORD_COLUMNS if name not in columns]
    if missing:
        raise KeyError(f"run artifact is missing columns {missing}")
    lengths = {name: len(columns[name]) for name in RECORD_COLUMNS}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"ragged run artifact columns: {lengths}")
    rows: List[StoredRecord] = []
    for index in range(lengths["point_index"]):
        point_index = int(columns["point_index"][index])
        point = dict(points.get(str(point_index), {}))
        rows.append(
            StoredRecord(
                point_index=point_index,
                record=SweepRecord(
                    point=point,
                    scheme=str(columns["scheme"][index]),
                    mse=float(columns["mse"][index]),
                    bias=float(columns["bias"][index]),
                    n_trials=int(columns["n_trials"][index]),
                ),
            )
        )
    return rows


def save_run(
    path: str | os.PathLike,
    records: Sequence[SweepRecord],
    point_indices: Sequence[int],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write a run artifact atomically and durably.

    Same discipline as the service checkpoints: serialise to a temp file in
    the destination directory, fsync it, then ``os.replace`` over the final
    path — a crash or kill at any instant leaves either the previous artifact
    or the new one, never a torn file.  A pending ``artifact-write`` fault in
    the active plan fails the call (before any file is touched) with an
    ``OSError``, exercising the callers' retry path.
    """
    from repro.resilience.faults import active_injector

    injector = active_injector()
    if injector is not None and injector.take_artifact_write_fault():
        raise OSError("injected artifact write failure")
    points, columns = records_to_columns(records, point_indices)
    payload = {
        "format": FORMAT,
        "meta": dict(meta or {}),
        "points": points,
        "columns": columns,
    }
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_run(path: str | os.PathLike) -> RunArtifact:
    """Load a run artifact written by :func:`save_run`."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"{os.fspath(path)!s} is not a {FORMAT} artifact "
            f"(format={payload.get('format')!r})"
        )
    rows = columns_to_records(payload.get("points", {}), payload["columns"])
    return RunArtifact(meta=dict(payload.get("meta", {})), rows=rows)


__all__ = [
    "FORMAT",
    "RECORD_COLUMNS",
    "StoredRecord",
    "RunArtifact",
    "records_to_columns",
    "columns_to_records",
    "save_run",
    "load_run",
]
