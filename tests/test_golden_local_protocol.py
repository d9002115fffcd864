"""Local-protocol golden regression (the seeded outputs' bit-identity pin).

``tests/data/golden_local_protocol.json`` was first generated by running
``tests/golden_protocol_grid.compute_goldens`` before the
``repro/protocol`` pipeline existed.  It has been re-pinned since, only
where a change was meant to move seeded outputs: when the side probe
became two scalar EMF solves, the mean entries of the schemes that probe
the side (Baseline and DAP) moved in their last bits (at most 5 ulp;
``python tests/golden_protocol_grid.py --diff`` lists such drift).
Recomputing the grid must reproduce every committed
float bit for bit — both with the default (unset) protocol and with
``protocol="local"`` forced explicitly, which pins "local is the default"
as a tested invariant rather than a comment.
"""

from __future__ import annotations

import json

import pytest

from tests.golden_protocol_grid import GOLDEN_PATH, compute_goldens


@pytest.fixture(scope="module")
def committed():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _assert_matches(committed: dict, fresh: dict) -> None:
    assert set(fresh) == set(committed)
    for section, entries in committed.items():
        assert set(fresh[section]) == set(entries), section
        for key, value in entries.items():
            assert fresh[section][key] == value, f"{section}/{key} drifted"


def test_default_protocol_matches_prerefactor_goldens(committed):
    _assert_matches(committed, compute_goldens())


def test_explicit_local_protocol_matches_prerefactor_goldens(committed):
    _assert_matches(committed, compute_goldens("local"))
