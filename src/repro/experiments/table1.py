"""Table I — variance of the reconstructed normal histogram, left vs right.

The paper injects a Biased Byzantine Attack on the right side of the Taxi
dataset and reports, for four poison ranges and five privacy budgets, the
variance of the EMF-reconstructed normal histogram when the probing transform
hosts the poison buckets on the Left vs the Right side.  The Right (correct)
side always yields the far smaller variance, which is what makes Algorithm 3's
side decision reliable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.core.probing import probe_poisoned_side
from repro.core.transform import default_bucket_counts
from repro.datasets import taxi_dataset
from repro.engine import ExperimentSpec, run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.ldp import PiecewiseMechanism
from repro.utils.rng import RngLike, ensure_rng

#: the poison ranges of Table I, in the paper's row order
TABLE1_RANGES = ("[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]")

#: the privacy budgets of Table I's columns
TABLE1_EPSILONS = (2.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass
class Table1Record:
    """One cell pair of Table I (both sides for one range and budget)."""

    poison_range: str
    epsilon: float
    variance_left: float
    variance_right: float
    selected_side: str


@dataclass
class Table1Spec(ExperimentSpec):
    """Point-granular spec: one probing round per (range, epsilon) cell."""

    values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Table1Record]:
        rng = np.random.default_rng(int(trial_seeds[0]))
        range_name = point["poison_range"]
        epsilon = float(point["epsilon"])
        mechanism = PiecewiseMechanism(epsilon)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES[range_name], side="right")
        n_byzantine = int(round(self.n_users * self.point_gamma(point)))
        n_normal = self.n_users - n_byzantine
        normal_reports = mechanism.perturb(self.values[:n_normal], rng)
        poison_reports = attack.poison_reports(n_byzantine, mechanism, 0.0, rng).reports
        reports = np.concatenate([normal_reports, poison_reports])
        d_in, d_out = default_bucket_counts(reports.size, epsilon)
        probe = probe_poisoned_side(
            mechanism,
            reports,
            n_input_buckets=d_in,
            n_output_buckets=d_out,
            reference_mean=0.0,
            epsilon=epsilon,
        )
        return [
            Table1Record(
                poison_range=range_name,
                epsilon=epsilon,
                variance_left=probe.variance_left,
                variance_right=probe.variance_right,
                selected_side=probe.side,
            )
        ]


def run_table1(
    scale: ExperimentScale = QUICK_SCALE,
    epsilons: Sequence[float] = TABLE1_EPSILONS,
    poison_ranges: Sequence[str] = TABLE1_RANGES,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Table1Record]:
    """Regenerate Table I on the (synthetic) Taxi dataset."""
    rng = ensure_rng(rng)
    dataset = taxi_dataset(n_samples=scale.n_users, rng=rng)
    spec = Table1Spec(
        name="table1",
        description="Table I: reconstructed-histogram variance, left vs right",
        points=[
            {"poison_range": range_name, "epsilon": epsilon}
            for range_name in poison_ranges
            for epsilon in epsilons
        ],
        n_users=scale.n_users,
        n_trials=1,
        gamma=scale.gamma,
        values=dataset.values,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_table1(records: Sequence[Table1Record]) -> str:
    """Render the records in the paper's row layout (L and R rows per range)."""
    epsilons = sorted({r.epsilon for r in records}, reverse=True)
    by_range: Dict[str, Dict[float, Table1Record]] = {}
    for record in records:
        by_range.setdefault(record.poison_range, {})[record.epsilon] = record

    header = ["Poi[l,r]".ljust(12), "Side".ljust(6)] + [
        f"eps={e:g}".rjust(12) for e in epsilons
    ]
    lines = ["".join(header)]
    for range_name, cells in by_range.items():
        for side in ("L", "R"):
            row = [range_name.ljust(12), side.ljust(6)]
            for epsilon in epsilons:
                record = cells.get(epsilon)
                if record is None:
                    row.append("-".rjust(12))
                    continue
                value = record.variance_left if side == "L" else record.variance_right
                row.append(f"{value:.1e}".rjust(12))
            lines.append("".join(row))
    correct = sum(1 for r in records if r.selected_side == "right")
    lines.append(f"# side decision correct in {correct}/{len(records)} cells")
    return "\n".join(lines)


__all__ = [
    "Table1Record",
    "Table1Spec",
    "run_table1",
    "format_table1",
    "TABLE1_RANGES",
    "TABLE1_EPSILONS",
]
