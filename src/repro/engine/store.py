"""Columnar, JSON-persistable run artifacts.

A run artifact captures one executed run: the run identity
(:func:`repro.engine.executor.run_identity`), the finished work units and
their records laid out column-wise (one array per record field), so
downstream tooling — notebooks, the examples — can load a run without
re-running it, and an interrupted run can resume from the units already on
disk.  Any dataclass record defined under ``repro`` is stored, whatever
experiment produced it.

Format (``repro.engine.run/v2``)::

    {
      "format": "repro.engine.run/v2",
      "meta":    {...},                       # run identity + provenance
      "units":   [[0, 0], [0, 1], ...],       # every finished work unit
      "record_class": "repro.simulation.sweep.SweepRecord",  # null if none
      "columns": {
        "unit": [[0, 0], [0, 1], ...],        # the unit of each record
        "<field>": [...], ...                 # one column per record field
      }
    }

A unit that returned no records is listed in ``units`` all the same, so it
resumes.  Column values are JSON values, except that a tuple is stored as
``{"tuple": [...]}``, a mapping as ``{"dict": {...}}`` and a numeric array
as ``{"ndarray": {"dtype", "shape", "values"}}``, so each comes back as the
type it was written as.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from repro import knobs
from repro.engine.spec import Unit

FORMAT = "repro.engine.run/v2"


@dataclass
class RunArtifact:
    """A loaded run: provenance metadata plus each finished unit's records."""

    meta: Dict[str, Any]
    units: Dict[Unit, List[Any]]

    @property
    def records(self) -> List[Any]:
        """Every record, in stored (canonical unit) order."""
        return [record for records in self.units.values() for record in records]


def _encode(value: Any) -> Any:
    """``value`` as a JSON value that :func:`_decode` turns back into it."""
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, tuple):
        return {"tuple": [_encode(item) for item in value]}
    if isinstance(value, Mapping) and all(isinstance(key, str) for key in value):
        return {"dict": {key: _encode(item) for key, item in value.items()}}
    if isinstance(value, np.ndarray) and value.dtype.kind in "biuf":
        return {
            "ndarray": {
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "values": value.tolist(),
            }
        }
    raise TypeError(f"a run artifact cannot store the value {value!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(item) for item in value]
    if not isinstance(value, dict):
        return value
    ((tag, body),) = value.items()
    if tag == "tuple":
        return tuple(_decode(item) for item in body)
    if tag == "dict":
        return {key: _decode(item) for key, item in body.items()}
    if tag == "ndarray":
        return np.asarray(body["values"], dtype=body["dtype"]).reshape(body["shape"])
    raise ValueError(f"unknown run artifact value tag {tag!r}")


def _record_class(name: Any) -> type:
    """The class a stored name imports back to.  Anything but a dataclass
    defined under ``repro`` is refused, so loading an artifact never imports
    code from outside the package."""
    module, _, attribute = str(name).rpartition(".")
    cls = None
    if str(name).startswith("repro."):
        try:
            cls = getattr(importlib.import_module(module), attribute, None)
        except ImportError:
            pass
    if not (
        isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and knobs._qualified_name(cls) == name
    ):
        raise ValueError(f"run artifact names {name!r}, not a repro dataclass")
    return cls


def _class_name(records: Sequence[Any]) -> str | None:
    """The name of the one class of ``records``; ``TypeError`` unless
    :func:`_record_class` resolves it back."""
    classes = {type(record) for record in records}
    if len(classes) > 1:
        raise TypeError(
            f"a run artifact stores records of one class, got "
            f"{sorted(cls.__qualname__ for cls in classes)}"
        )
    if not classes:
        return None
    (cls,) = classes
    name = knobs._qualified_name(cls)
    try:
        _record_class(name)
    except ValueError:
        raise TypeError(
            f"a run artifact stores dataclass records defined under repro, "
            f"not {cls.__module__}.{cls.__qualname__}"
        ) from None
    return name


def save_run(
    path: str | os.PathLike,
    units: Mapping[Unit, Sequence[Any]],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write the finished ``units`` (unit key -> its records) atomically and
    durably.

    Same discipline as the service checkpoints: serialise to a temp file in
    the destination directory, fsync it, then ``os.replace`` over the final
    path — a crash or kill at any instant leaves either the previous artifact
    or the new one, never a torn file.  A record that is not a dataclass
    defined under ``repro``, or records of two classes, raise ``TypeError``.
    A pending ``artifact-write`` fault in the active plan fails the call
    (before any file is touched) with an ``OSError``, exercising the
    callers' retry path.
    """
    from repro.resilience.faults import active_injector

    injector = active_injector()
    if injector is not None and injector.take_artifact_write_fault():
        raise OSError("injected artifact write failure")
    keys = [[int(index) for index in unit] for unit in units]
    rows = [
        (key, record)
        for key, records in zip(keys, units.values())
        for record in records
    ]
    record_class = _class_name([record for _, record in rows])
    columns: Dict[str, List[Any]] = {"unit": [key for key, _ in rows]}
    for field in dataclasses.fields(rows[0][1]) if rows else ():
        columns[field.name] = [
            _encode(getattr(record, field.name)) for _, record in rows
        ]
    payload = {
        "format": FORMAT,
        "meta": dict(meta or {}),
        "units": keys,
        "record_class": record_class,
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
    """Load a run artifact written by :func:`save_run`.

    A foreign format, a record class that is not a ``repro`` dataclass, or
    columns that do not match the class's fields raise ``ValueError``.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"{os.fspath(path)!s} is not a {FORMAT} artifact "
            f"(format={payload.get('format')!r})"
        )
    units: Dict[Unit, List[Any]] = {tuple(key): [] for key in payload["units"]}
    columns = payload["columns"]
    if payload["record_class"] is not None:
        cls = _record_class(payload["record_class"])
        names = [field.name for field in dataclasses.fields(cls)]
        lengths = {len(column) for column in columns.values()}
        if sorted(columns) != sorted(["unit", *names]) or len(lengths) > 1:
            raise ValueError(
                f"run artifact columns do not hold {payload['record_class']} records"
            )
        for index, key in enumerate(columns["unit"]):
            fields = {name: _decode(columns[name][index]) for name in names}
            units[tuple(key)].append(cls(**fields))
    return RunArtifact(meta=dict(payload.get("meta", {})), units=units)


__all__ = ["FORMAT", "RunArtifact", "save_run", "load_run"]
