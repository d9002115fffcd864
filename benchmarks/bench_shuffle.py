"""Shuffle-protocol attack-power benchmark: local vs shuffle trust model.

The shuffle transport buys the server two things the local model cannot
offer: the adversary is **group-blind** (sender→group linkage is severed,
so poison cannot be tailored to a group's wide output domain — reports
must survive the budget ladder's domain intersection) and the server may
**condition its reconstruction** on that same contract (poison columns
restricted to the intersection, Section `repro.protocol`).  This benchmark
measures the resulting drop in attack-induced estimate shift at equal
gamma, and exits nonzero when any gate fails so CI can run it directly:

* ``bba``     — one-sided uniform poison (the paper's default BBA): the
  mean shift under ``protocol="shuffle"`` must be strictly below the
  local-model shift at the same seeds;
* ``gba_pm``  — general Byzantine attack, point mass at the domain edge
  ``C`` (the maximally damaging one-sided configuration): same gate — the
  intersection clamp physically bounds what used to be an unbounded
  outlier, so the reduction here is dramatic rather than marginal;
* ``noattack`` — sanity: both protocols must track the truth at plain-LDP
  accuracy on attack-free rounds;
* ``ledger``  — every shuffle round must carry one amplification row per
  ladder group, each matching the closed-form Feldman bound
  ``0 < eps_central <= eps_local``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shuffle.py --out BENCH_shuffle.json
    PYTHONPATH=src python benchmarks/bench_shuffle.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time

EPSILON = 1.0

#: committed-artifact configuration
FULL = dict(n_normal=4_000, n_byzantine=1_333, n_seeds=24)
#: CI smoke: same pipeline and gates, a few seconds end to end.  At this
#: size the bba shift reduction is ~0.016 against a per-round spread of
#: ~0.046, so 6 seeds miss it about one time in five; 32 about one in a
#: hundred
QUICK = dict(n_normal=1_500, n_byzantine=500, n_seeds=32)

#: the shuffle shift must undercut local by at least this factor per attack
#: (the measured full-config ratios are ~0.82 for bba and ~0.08 for the
#: point-mass gba; the gate only asserts a strict, reproducible reduction)
MAX_SHIFT_RATIO = 1.0
#: attack-free rounds must stay within plain-LDP accuracy for both models
NOATTACK_BUDGET = 0.25


def _attacks():
    from repro.attacks import (
        BiasedByzantineAttack,
        GeneralByzantineAttack,
        PointMassPoison,
    )

    return (
        ("bba", "one-sided uniform poison [O', C]", lambda: BiasedByzantineAttack()),
        (
            "gba_pm",
            "general attack, point mass at C",
            lambda: GeneralByzantineAttack(distribution=PointMassPoison()),
        ),
    )


def _round(protocol_name: str, seed: int, attack, config: dict):
    import numpy as np

    from repro.core.dap import DAPConfig, DAPProtocol

    protocol = DAPProtocol(
        DAPConfig(epsilon=EPSILON, estimator="cemf_star", protocol=protocol_name)
    )
    values = np.random.default_rng([seed, 0]).uniform(
        -1, 1, size=config["n_normal"]
    )
    result = protocol.run(
        values,
        attack,
        n_byzantine=config["n_byzantine"],
        rng=np.random.default_rng([seed, 1]),
    )
    return abs(result.estimate - float(values.mean())), result


def measure_attack(name: str, make_attack, config: dict) -> dict:
    import numpy as np

    shifts = {"local": [], "shuffle": []}
    for protocol_name in shifts:
        for seed in range(config["n_seeds"]):
            shift, _ = _round(protocol_name, seed, make_attack(), config)
            shifts[protocol_name].append(shift)
    local = float(np.mean(shifts["local"]))
    shuffle = float(np.mean(shifts["shuffle"]))
    return {
        "mode": name,
        "n_seeds": config["n_seeds"],
        "mean_shift_local": round(local, 6),
        "mean_shift_shuffle": round(shuffle, 6),
        "shift_ratio": round(shuffle / local, 4) if local else None,
        "shuffle_wins": int(
            sum(s < l for s, l in zip(shifts["shuffle"], shifts["local"]))
        ),
    }


def measure_noattack(config: dict) -> dict:
    import numpy as np

    from repro.attacks import NoAttack

    errors = {"local": [], "shuffle": []}
    for protocol_name in errors:
        for seed in range(config["n_seeds"]):
            shift, _ = _round(protocol_name, seed, NoAttack(), config)
            errors[protocol_name].append(shift)
    return {
        "mode": "noattack",
        "n_seeds": config["n_seeds"],
        "mean_error_local": round(float(np.mean(errors["local"])), 6),
        "mean_error_shuffle": round(float(np.mean(errors["shuffle"])), 6),
    }


def measure_ledger(config: dict) -> dict:
    from repro.attacks import NoAttack
    from repro.protocol.amplification import amplified_epsilon

    _, result = _round("shuffle", 0, NoAttack(), config)
    rows = result.amplification or []
    consistent = all(
        0.0 < row["epsilon_central"] <= row["epsilon_local"]
        and row["epsilon_central"]
        == amplified_epsilon(row["epsilon_local"], row["n_reports"])
        for row in rows
    )
    return {
        "mode": "ledger",
        "n_groups": len(rows),
        "rows": [
            {
                "epsilon_local": row["epsilon_local"],
                "epsilon_central": round(row["epsilon_central"], 6),
                "n_reports": row["n_reports"],
            }
            for row in rows
        ],
        "consistent": bool(consistent),
    }


def gate(results: dict) -> list:
    """Evaluate the hard gates; return the list of violations."""
    violations = []
    for name, _, _ in _attacks():
        row = results[name]
        ratio = row["shift_ratio"]
        if ratio is None or ratio >= MAX_SHIFT_RATIO:
            violations.append(
                f"{name}: shuffle shift {row['mean_shift_shuffle']} does not "
                f"undercut local shift {row['mean_shift_local']} "
                f"(ratio {ratio}, gate < {MAX_SHIFT_RATIO:g})"
            )
    noattack = results["noattack"]
    for protocol_name in ("local", "shuffle"):
        error = noattack[f"mean_error_{protocol_name}"]
        if error > NOATTACK_BUDGET:
            violations.append(
                f"noattack: {protocol_name} mean error {error} exceeds the "
                f"plain-LDP budget {NOATTACK_BUDGET:g}"
            )
    ledger = results["ledger"]
    if ledger["n_groups"] == 0:
        violations.append("ledger: shuffle round carried no amplification rows")
    if not ledger["consistent"]:
        violations.append(
            "ledger: amplification rows disagree with the closed-form bound"
        )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    config = dict(QUICK if args.quick else FULL)
    start = time.perf_counter()
    results = {}
    for name, description, make_attack in _attacks():
        results[name] = measure_attack(name, make_attack, config)
        results[name]["attack"] = description
    results["noattack"] = measure_noattack(config)
    results["ledger"] = measure_ledger(config)
    violations = gate(results)

    report = {
        "benchmark": "shuffle-model protocol: attack power at equal gamma",
        "config": {
            **config,
            "epsilon": EPSILON,
            "estimator": "cemf_star",
            "gamma": round(
                config["n_byzantine"]
                / (config["n_normal"] + config["n_byzantine"]),
                4,
            ),
            "quick": bool(args.quick),
        },
        "notes": (
            "mean |estimate - true mean| over the seed grid, local vs shuffle "
            "protocol at identical seeds and gamma. The shuffle rows gate a "
            "strict shift reduction; 'ledger' checks the per-group "
            "local->central amplification rows against the closed form."
        ),
        "gates_passed": not violations,
        "violations": violations,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "results": list(results.values()),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
