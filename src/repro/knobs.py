"""Spec fields that declare their own role: identity or execution detail.

Every knob of :class:`~repro.scenario.ScenarioSpec` and
:class:`~repro.service.ServiceSpec` (and the knobs
:class:`~repro.engine.ExperimentSpec` shares with them) is one dataclass
field built by :func:`knob`, whose metadata carries the knob's role, its
validator, its optional command-line flag and its help text.  The strict
key check, the validation, the identity document and digest, the execution
details and the ``python -m repro`` override flags are all derived from
``dataclasses.fields()``.  The digest guards artifact and checkpoint reuse,
so the role decides whether changing a knob re-keys stored work:

* :data:`IDENTITY` — the knob changes output bits: it is in the document;
* :data:`IDENTITY_UNLESS_DEFAULT` — as identity, but left out of the
  document while at its default, so adding the knob kept the digests of
  every document written before it;
* :data:`EXECUTION` — the knob never changes a record (it changes how the
  same bits are computed, or it is provenance such as a description): it
  stays out of the document and is recorded as an execution detail;
* :data:`EXECUTION_REDRAWS` — an execution detail under which work still
  to be done draws other, statistically equivalent randomness: resuming
  a partial artifact under another value is allowed but warned about.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import sys
import types
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_fraction, check_integer, check_positive

IDENTITY = "identity"
IDENTITY_UNLESS_DEFAULT = "identity-unless-default"
EXECUTION = "execution"
EXECUTION_REDRAWS = "execution-redraws"

#: one line per role, for help texts
ROLE_NOTES = {
    IDENTITY: "identity: enters the digest",
    IDENTITY_UNLESS_DEFAULT: "identity: enters the digest when not the default",
    EXECUTION: "execution detail: never changes a record",
    EXECUTION_REDRAWS: (
        "execution detail: kept out of the digest, but pending work draws "
        "other, statistically equivalent randomness"
    ),
}

#: a validator: ``check(value, name)`` returns the value to store, or raises
Check = Callable[[Any, str], Any]


def knob(
    role: str,
    check: Check | None,
    help: str,
    *,
    default: Any = dataclasses.MISSING,
    default_factory: Any = dataclasses.MISSING,
    flag: str | None = None,
    section: str | None = None,
    alias: str | None = None,
    kw_only: bool = False,
) -> Any:
    """Declare one spec knob as a dataclass field.

    A knob defaulting to ``None`` accepts ``None`` as "unset" without
    calling ``check``.  ``section`` nests the key under that name in
    documents (``population`` in scenarios); ``alias`` is a second accepted
    document key for it.
    """
    if check is not None and default is None:
        check = _optional(check)
    metadata = dict(role=role, check=check, flag=flag, help=help, section=section, alias=alias)
    return dataclasses.field(
        default=default, default_factory=default_factory, kw_only=kw_only, metadata=metadata
    )


#: version of the seeded outputs, the value of every spec's ``draws``
#: constant: a change meant to move seeded outputs (a golden re-pin) bumps
#: it, so artifacts and checkpoints written before the change recompute
#: instead of splicing old bits with new ones
DRAWS = 1


def constant(value: Any) -> Any:
    """An identity entry that is always in the document and never settable.

    Removed knobs leave one so the digests of documents written while they
    existed stay the same; ``draws`` (:data:`DRAWS`) is one on every spec.
    """
    return dataclasses.field(default=value, init=False, metadata={"role": IDENTITY})


def knobs(spec: Any) -> Tuple[dataclasses.Field, ...]:
    """The declared knob fields of a spec class or instance, in order."""
    return tuple(f for f in dataclasses.fields(spec) if "role" in f.metadata)


def flagged(spec: Any) -> Tuple[dataclasses.Field, ...]:
    """The knobs with a command-line flag."""
    return tuple(f for f in knobs(spec) if f.metadata.get("flag"))


def validate(spec: Any) -> None:
    """Run every settable knob's validator, storing what it returns."""
    for f in knobs(spec):
        check = f.metadata.get("check")
        if f.init and check is not None:
            setattr(spec, f.name, check(getattr(spec, f.name), f.name))


def document(spec: Any) -> Dict[str, Any]:
    """The identity fields (any field without a role is one), in field order,
    as one JSON-style document through :func:`canonical`."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(spec):
        role, value = f.metadata.get("role", IDENTITY), getattr(spec, f.name)
        if not (role == IDENTITY or role == IDENTITY_UNLESS_DEFAULT and value != f.default):
            continue
        section = f.metadata.get("section")
        (out.setdefault(section, {}) if section else out)[f.name] = canonical(value)
    return out


#: how a value with no canonical form (a lambda, a closure, a generator)
#: documents; a document holding it identifies nothing (see :func:`is_opaque`)
OPAQUE = "<opaque>"


def canonical(value: Any, _path: frozenset = frozenset()) -> Any:
    """``value`` as a JSON-style document of what it computes.

    Sequences become lists and mapping keys strings; a numpy array documents
    as its dtype, shape and sha256, a module-level class or function as its
    qualified name, and an instance of a module-level class as its class
    plus its dataclass fields (or, for a plain value object, its ``vars``).
    Anything else, a reference cycle included, documents as :data:`OPAQUE`.
    """
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if id(value) in _path:
        return OPAQUE
    path = _path | {id(value)}
    if isinstance(value, (tuple, list)):
        return [canonical(item, path) for item in value]
    if isinstance(value, Mapping):
        return {str(key): canonical(item, path) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        sha256 = hashlib.sha256(data.tobytes()).hexdigest()
        return {"dtype": data.dtype.str, "shape": list(data.shape), "sha256": sha256}
    if isinstance(value, (type, types.FunctionType, types.BuiltinFunctionType)):
        return _qualified_name(value) or OPAQUE
    cls = type(value)
    name = _qualified_name(cls)
    if name and dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {"class": name, **canonical(fields, path)}
    # a plain value object keeps all of its state in its vars
    slotted = any(vars(base).get("__slots__") for base in cls.__mro__)
    if name and hasattr(value, "__dict__") and cls.__reduce__ is object.__reduce__ and not slotted:
        return {"class": name, **canonical(vars(value), path)}
    return OPAQUE


def _qualified_name(obj: Any) -> str | None:
    """``module.qualname`` when that name imports back to ``obj``."""
    target = sys.modules.get(getattr(obj, "__module__", None) or "")
    for part in getattr(obj, "__qualname__", "").split("."):
        target = getattr(target, part, None)
    return f"{obj.__module__}.{obj.__qualname__}" if target is obj else None


def is_opaque(document: Any) -> bool:
    """Whether a :func:`canonical` document holds :data:`OPAQUE` anywhere."""
    if isinstance(document, dict):
        return any(map(is_opaque, document.values()))
    if isinstance(document, list):
        return any(map(is_opaque, document))
    return document == OPAQUE


def _key_layout(cls: type) -> Dict[str | None, List[str]]:
    """Accepted document keys: top level under ``None``, then per section."""
    layout: Dict[str | None, List[str]] = {None: []}
    for f in knobs(cls):
        if not f.init:
            continue
        section = f.metadata.get("section")
        if section not in layout:
            layout[None].append(section)
            layout[section] = []
        layout[section] += [key for key in (f.name, f.metadata.get("alias")) if key]
    return layout


def _refuse_unknown(payload: Any, allowed: Sequence[str], what: str) -> None:
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} document must be a mapping, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {', '.join(allowed)}")


class Spec:
    """Base of a spec dataclass whose fields are :func:`knob` declarations.

    Subclasses set ``kind``, the word used in error messages.
    """

    kind = "spec"

    def __post_init__(self) -> None:
        validate(self)

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> Any:
        """Build a spec from a parsed JSON document; unknown keys are refused."""
        layout = _key_layout(cls)
        for section, allowed in layout.items():
            if section is None:
                _refuse_unknown(payload, allowed, cls.kind)
            else:
                _refuse_unknown(payload.get(section, {}), allowed, section)
        kwargs: Dict[str, Any] = {}
        missing = []
        for f in knobs(cls):
            section = f.metadata.get("section")
            source = payload.get(section, {}) if section else payload
            given = [key for key in (f.name, f.metadata.get("alias")) if key in source]
            if len(given) == 2:
                raise ValueError(f"give either {given[1]!r} or {given[0]!r}, not both")
            if f.init and given:
                kwargs[f.name] = source[given[0]]
            elif f.init and f.default is f.default_factory is dataclasses.MISSING:
                missing.append(f.name)
        if missing:
            raise ValueError(f"{cls.kind} document is missing {missing}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Any) -> Any:
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}: invalid JSON ({error})") from None
        return cls.from_mapping(payload)

    def document(self) -> Dict[str, Any]:
        """The identity knobs as a canonical JSON-style document."""
        return document(self)

    def digest(self) -> str:
        """Stable hash of :meth:`document`; keys artifact and checkpoint reuse."""
        payload = json.dumps(self.document(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def execution_details(self) -> Dict[str, Any]:
        """The execution-detail knobs, recorded (never compared) for provenance."""
        return {
            f.name: getattr(self, f.name)
            for f in knobs(self)
            if f.metadata["role"] in (EXECUTION, EXECUTION_REDRAWS)
        }


# ----------------------------------------------------------------------
# validators
# ----------------------------------------------------------------------
def _optional(check: Check) -> Check:
    def optional(value: Any, name: str) -> Any:
        return None if value is None else check(value, name)

    return optional


def text(value: Any, name: str) -> str:
    """A string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def nonempty_text(value: Any, name: str) -> str:
    """A string with a non-blank character."""
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def boolean(value: Any, name: str) -> bool:
    """``True`` or ``False`` (not ``0`` / ``1`` or a string)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean (true or false), got {value!r}")
    return value


def integer(minimum: int | None = None) -> Check:
    """An integer (not a bool), at least ``minimum``."""
    bound = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"

    def check(value: Any, name: str) -> int:
        value = check_integer(value, name)
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be {bound}, got {value}")
        return value

    return check


def _number(value: Any, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def positive(value: Any, name: str) -> Any:
    """A finite number above zero, stored as given."""
    _number(value, name)
    check_positive(value, name)
    return value


def fraction(value: Any, name: str) -> Any:
    """A number in ``[0, 1]``, stored as given."""
    _number(value, name)
    check_fraction(value, name)
    return value


def domain(value: Any, name: str) -> Tuple[float, float]:
    """A ``[low, high]`` pair of finite numbers with ``low < high``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or len(value) != 2:
        raise ValueError(f"{name} must be a [low, high] pair, got {value!r}")
    for bound in value:
        _number(bound, name)
    low, high = float(value[0]), float(value[1])
    if not (math.isfinite(low) and math.isfinite(high) and low < high):
        raise ValueError(f"{name} must have finite low < high, got {value!r}")
    return (low, high)


def axis(entry: Check | None = None) -> Check:
    """A non-empty sequence, stored as a tuple; ``entry`` checks each item."""

    def check(value: Any, name: str) -> tuple:
        if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
            raise ValueError(f"{name} must be a list, got {value!r}")
        if not value:
            raise ValueError(f"empty {name!r} axis: give at least one entry")
        return tuple(value if entry is None else (entry(item, f"{name} entry") for item in value))

    return check


__all__ = [
    "EXECUTION", "EXECUTION_REDRAWS", "IDENTITY", "IDENTITY_UNLESS_DEFAULT",
    "OPAQUE", "ROLE_NOTES", "Spec", "axis", "boolean", "canonical", "constant",
    "document", "domain", "flagged", "fraction", "integer", "is_opaque", "knob",
    "knobs", "nonempty_text", "positive", "text", "validate",
]
