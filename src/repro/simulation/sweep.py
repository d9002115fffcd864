"""Sweep result records and their paper-style tables.

Every figure in the paper is a sweep over one or two parameters (epsilon,
gamma, poison range, poison distribution, evasive fraction, ...) with the MSE
of several schemes measured at each point.  The experiment engine
(:mod:`repro.engine`) returns one flat :class:`SweepRecord` per (point,
scheme); :func:`records_to_table` and :func:`format_table` pivot and render
them the way the drivers print the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence


@dataclass
class SweepRecord:
    """One (sweep point, scheme) measurement.

    Attributes
    ----------
    point:
        The sweep point's parameters (e.g. ``{"epsilon": 0.5, "range": "[C/2,C]"}``).
    scheme:
        Scheme name.
    mse:
        Mean squared error at this point.
    bias:
        Mean signed error at this point.
    n_trials:
        Number of trials behind the measurement.
    """

    point: Dict[str, Any]
    scheme: str
    mse: float
    bias: float
    n_trials: int


def _point_key(record: SweepRecord, key: str, role: str) -> Any:
    """Resolve a pivot key on a record, refusing to collapse missing keys.

    A record whose point lacks the requested key would previously land on a
    shared ``None`` row/column, silently merging unrelated measurements; a
    heterogeneous sweep (e.g. panels with different parameters) must instead
    be filtered before pivoting.
    """
    if key == "scheme":
        return record.scheme
    if key not in record.point:
        raise KeyError(
            f"{role} key {key!r} missing from sweep point {record.point!r}; "
            f"filter the records to one panel before pivoting"
        )
    return record.point[key]


def records_to_table(
    records: Sequence[SweepRecord],
    row_key: str,
    column_key: str = "scheme",
    value: str = "mse",
) -> Dict[Any, Dict[Any, float]]:
    """Pivot sweep records into ``{row -> {column -> value}}`` for printing."""
    table: Dict[Any, Dict[Any, float]] = {}
    for record in records:
        row = _point_key(record, row_key, "row")
        column = _point_key(record, column_key, "column")
        cell = getattr(record, value)
        table.setdefault(row, {})[column] = cell
    return table


def format_table(
    table: Mapping[Any, Mapping[Any, float]],
    row_label: str = "",
    float_format: str = "{:.3e}",
) -> str:
    """Format a pivoted table as fixed-width text (paper-style rows)."""
    columns: List[Any] = []
    for row in table.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    header = [row_label.ljust(14)] + [str(c).rjust(12) for c in columns]
    lines = ["".join(header)]
    for row_name, row in table.items():
        cells = [str(row_name).ljust(14)]
        for column in columns:
            value = row.get(column)
            cells.append(
                (float_format.format(value) if value is not None else "-").rjust(12)
            )
        lines.append("".join(cells))
    return "\n".join(lines)


__all__ = ["SweepRecord", "records_to_table", "format_table"]
