"""DAP's group assignment against the permutation-and-gather it replaced.

:func:`repro.core.dap.assign_groups` shuffles an int32 index array in place,
turns it into one group label per user and gathers each group's values with
``np.compress``.  The oracle below is the assignment it replaced: an int64
``rng.permutation``, ``np.array_split``, a sort of every piece and a fancy
gather per group.  Both must give every group the same normal values in the
same order and the same Byzantine head-count, and leave the master generator
in the same state, so the block seeds :func:`build_shard_plan` draws next are
unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collect import build_shard_plan
from repro.core.dap import assign_groups
from repro.ldp.budget import dap_budget_ladder

#: the longest ladder dap_budget_ladder builds: at epsilon / epsilon_min =
#: 2^1024 the ratio overflows a float
LONGEST_LADDER = len(dap_budget_ladder(1.0, 2.0**-1023))


def oracle_assign(rng, normal_values, n_byzantine, n_groups):
    """Per-group normal values and Byzantine counts, the way they were drawn."""
    n_normal = normal_values.size
    user_indices = rng.permutation(n_normal + n_byzantine)
    group_values, group_byzantine = [], []
    for piece in np.array_split(user_indices, n_groups):
        members = np.sort(piece)
        normal_members = members[members < n_normal]
        group_values.append(normal_values[normal_members])
        group_byzantine.append(int(members.size - normal_members.size))
    return group_values, group_byzantine


def _check_matches_oracle(seed, n_normal, n_byzantine, n_groups):
    # distinct values, so any reordering within a group shows
    normal_values = np.random.default_rng(seed + 1).permutation(n_normal) / 7.0
    expected_rng = np.random.default_rng(seed)
    expected_values, expected_byzantine = oracle_assign(
        expected_rng, normal_values, n_byzantine, n_groups
    )

    rng = np.random.default_rng(seed)
    out = np.full(n_normal, np.nan)
    normal_counts, byzantine_counts = assign_groups(
        rng, normal_values, n_byzantine, n_groups, out=out
    )

    assert byzantine_counts == expected_byzantine
    assert normal_counts == [values.size for values in expected_values]
    bounds = np.cumsum([0] + normal_counts)
    for group, expected in enumerate(expected_values):
        got = out[bounds[group] : bounds[group + 1]]
        assert got.tobytes() == expected.tobytes(), group
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    plans = [
        build_shard_plan(normal_counts, byzantine_counts, n_shards=2, rng=generator)
        for generator in (rng, expected_rng)
    ]
    assert plans[0] == plans[1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_normal=st.integers(0, 3_000),
    n_byzantine=st.integers(0, 3_000),
    n_groups=st.integers(1, LONGEST_LADDER),
)
def test_assignment_matches_the_permutation_oracle(
    seed, n_normal, n_byzantine, n_groups
):
    if n_normal + n_byzantine == 0:
        n_normal = 1
    _check_matches_oracle(seed, n_normal, n_byzantine, n_groups)


@pytest.mark.parametrize(
    "n_normal, n_byzantine, n_groups",
    [
        (0, 1_001, 5),  # no normal users
        (1_001, 0, 5),  # no Byzantine users
        (9_999, 2_500, 7),  # n_total not divisible by h
        (4, 1, 9),  # more groups than users
        (2_000, 500, 1),  # one group
        (2_000, 500, 256),  # the most groups uint8 labels hold
        (2_000, 500, 257),  # labels past uint8
        (5_000, 1_000, LONGEST_LADDER),
    ],
)
def test_edge_cases_match_the_oracle(n_normal, n_byzantine, n_groups):
    _check_matches_oracle(3, n_normal, n_byzantine, n_groups)
