"""The trust models a collection round runs under, as one contract.

Public surface of the package (see the module docstrings for the design):

* :class:`~repro.protocol.plan.ProtocolPlan` + :func:`check_protocol` —
  the contract and its identity axis (``"local"`` / ``"shuffle"``).  The
  plan is the only protocol object: it caps contributions, delivers each
  lane of reports (identity or a seeded shuffle), hands attacks their view
  of a group and writes the amplification ledger.
* :mod:`repro.protocol.amplification` — the local→central epsilon ledger.

Both protocols register into :data:`repro.registry.PROTOCOLS` (each name
builds its plan) so ``python -m repro list-components`` lists them and
unknown names raise the usual name-listing ``KeyError``.  Validation on hot
paths goes through :func:`check_protocol` against the plain
:data:`PROTOCOL_NAMES` tuple — never through the registry — so a lookup
made while the component modules are still importing cannot observe a
half-populated table.
"""

import functools

from repro.registry import PROTOCOLS

from repro.protocol.amplification import (
    DEFAULT_DELTA,
    amplification_ledger,
    amplified_epsilon,
    ledger_summary,
)
from repro.protocol.plan import (
    PROTOCOL_NAMES,
    ProtocolPlan,
    check_contribution_cap,
    check_protocol,
    intersection_output_domain,
)

PROTOCOLS.register(
    "local",
    kind="trust model",
    summary="classical local model: identity transport, per-group adversary",
)(functools.partial(ProtocolPlan, protocol="local"))
PROTOCOLS.register(
    "shuffle",
    kind="trust model",
    summary="shuffler breaks sender-group linkage; amplification ledger",
)(functools.partial(ProtocolPlan, protocol="shuffle"))

__all__ = [
    "DEFAULT_DELTA",
    "PROTOCOL_NAMES",
    "ProtocolPlan",
    "amplification_ledger",
    "amplified_epsilon",
    "check_contribution_cap",
    "check_protocol",
    "intersection_output_domain",
    "ledger_summary",
]
