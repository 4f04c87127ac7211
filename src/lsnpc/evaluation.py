"""Micro/macro F1 metrics and experiment report assembly.

Micro-F1 pools true-positive, false-positive, and false-negative counts over
every instance-label cell; macro-F1 averages per-label F1 scores.  A label
that never occurs and is never predicted is vacuously perfect (F1 = 1), so an
unused label cannot punish a perfect predictor.

Reports present mean and sample standard deviation (n - 1 denominator) over
seeds, scaled by 100 as percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "F1Report",
    "RunMetrics",
    "ExperimentReport",
    "label_counts",
    "micro_f1",
    "macro_f1",
    "f1_report",
    "build_report",
]


@dataclass(frozen=True)
class F1Report:
    """Both metrics plus the per-label counts they were computed from."""

    micro_f1: float
    macro_f1: float
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray


@dataclass(frozen=True)
class RunMetrics:
    """One seed's outcome for one (setting, noise rate, method) cell."""

    setting: str
    nr: float
    method: str
    seed: int
    micro_f1: float
    macro_f1: float


@dataclass
class ExperimentReport:
    """Aggregated rows: (setting, nr, method, metric, mean, std, n_seeds).

    Means and standard deviations are stored on the x100 percentage scale.
    """

    rows: list[tuple] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["setting,nr,method,metric,mean,std,n_seeds"]
        for setting, nr, method, metric, mean, std, n in self.rows:
            lines.append(f"{setting},{nr!r},{method},{metric},{mean!r},{std!r},{n}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = ("setting", "nr", "method", "metric", "mean", "std", "seeds")
        table = [header]
        for setting, nr, method, metric, mean, std, n in self.rows:
            table.append(
                (setting, f"{nr:g}", method, metric, f"{mean:.2f}", f"{std:.2f}", str(n))
            )
        return "\n".join(table_lines(table)) + "\n"

    def lookup(self, setting: str, nr: float, method: str, metric: str) -> tuple[float, float, int]:
        for row in self.rows:
            if row[:4] == (setting, nr, method, metric):
                return row[4], row[5], row[6]
        raise KeyError(f"no row for {(setting, nr, method, metric)}")


def table_lines(table) -> list[str]:
    """The rows of ``table`` (sequences of strings) as text lines: each column
    left-justified to its widest cell, columns joined by two spaces."""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]


def label_counts(Y_true, Y_pred) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-label (TP, FP, FN) counts for binary matrices of identical shape."""
    t = np.asarray(Y_true)
    p = np.asarray(Y_pred)
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
    if not np.all((t == 0) | (t == 1)) or not np.all((p == 0) | (p == 1)):
        raise ValueError("inputs must be binary")
    t = t.astype(bool)
    p = p.astype(bool)
    tp = np.sum(t & p, axis=0)
    fp = np.sum(~t & p, axis=0)
    fn = np.sum(t & ~p, axis=0)
    return tp, fp, fn


def micro_f1(Y_true, Y_pred) -> float:
    tp, fp, fn = label_counts(Y_true, Y_pred)
    denom = 2 * int(tp.sum()) + int(fp.sum()) + int(fn.sum())
    if denom == 0:
        return 0.0
    return 2.0 * int(tp.sum()) / denom


def macro_f1(Y_true, Y_pred) -> float:
    """Unweighted mean of per-label F1; a label with no true occurrences and
    no predictions (TP = FP = FN = 0) scores 1."""
    tp, fp, fn = label_counts(Y_true, Y_pred)
    denom = 2 * tp + fp + fn
    per_label = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 1.0)
    return float(np.mean(per_label))


def f1_report(Y_true, Y_pred) -> F1Report:
    tp, fp, fn = label_counts(Y_true, Y_pred)
    return F1Report(
        micro_f1=micro_f1(Y_true, Y_pred),
        macro_f1=macro_f1(Y_true, Y_pred),
        tp=tp,
        fp=fp,
        fn=fn,
    )


def build_report(runs: list[RunMetrics]) -> ExperimentReport:
    """Aggregate per-seed metrics into mean/std rows on the x100 scale."""
    if not runs:
        raise ValueError("at least one run is required")
    groups: dict[tuple, list[RunMetrics]] = {}
    for run in runs:
        groups.setdefault((run.setting, run.nr, run.method), []).append(run)
    report = ExperimentReport()
    for (setting, nr, method), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        members = sorted(members, key=lambda r: r.seed)
        for metric in ("micro_f1", "macro_f1"):
            values = np.array([getattr(r, metric) for r in members]) * 100.0
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            report.rows.append((setting, nr, method, metric, mean, std, len(values)))
    return report
