"""Micro/macro F1 metrics and the one report table every command writes.

Micro-F1 pools true-positive, false-positive, and false-negative counts over
every instance-label cell; macro-F1 averages per-label F1 scores.  A label
that never occurs and is never predicted is vacuously perfect (F1 = 1), so an
unused label cannot punish a perfect predictor.

``Report`` is the table that ``eval``, ``sweep``, ``ablate`` and
``verify-theory`` write as CSV and as aligned text.  ``build_report`` fills
one from per-seed runs: mean and sample standard deviation (n - 1
denominator) over seeds, scaled by 100 as percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Report",
    "RunMetrics",
    "label_counts",
    "micro_f1",
    "macro_f1",
    "build_report",
]


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
class Report:
    """A table: its CSV column names, its text labels, one format spec per
    text column, the rows (tuples in column order) and the notes that the
    text prints below the table."""

    columns: tuple[str, ...]
    labels: tuple[str, ...]
    formats: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        self.rows.append(row)

    def lookup(self, *key) -> tuple:
        """The values after ``key`` in the first row that starts with it."""
        for row in self.rows:
            if row[:len(key)] == key:
                return row[len(key):]
        raise KeyError(f"no row for {key}")

    def to_csv(self) -> str:
        """One line per row, each value through ``str``: a float (numpy's
        too) as its shortest round-tripping digits."""
        lines = [",".join(self.columns)]
        lines.extend(",".join(map(str, row)) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Each column left-justified to its widest cell, columns joined by
        two spaces, then one ``note:`` line per note."""
        table = [self.labels]
        table.extend(tuple(map(format, row, self.formats)) for row in self.rows)
        widths = [max(len(row[i]) for row in table) for i in range(len(self.labels))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


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


def build_report(runs: list[RunMetrics]) -> Report:
    """Aggregate per-seed metrics into rows (setting, nr, method, metric,
    mean, std, n_seeds), with the mean and std on the x100 scale."""
    if not runs:
        raise ValueError("at least one run is required")
    groups: dict[tuple, list[RunMetrics]] = {}
    for run in runs:
        groups.setdefault((run.setting, run.nr, run.method), []).append(run)
    report = Report(("setting", "nr", "method", "metric", "mean", "std", "n_seeds"),
                    ("setting", "nr", "method", "metric", "mean", "std", "seeds"),
                    ("", "g", "", "", ".2f", ".2f", ""))
    for setting, nr, method in sorted(groups):
        members = sorted(groups[setting, nr, method], key=lambda r: r.seed)
        for metric in ("micro_f1", "macro_f1"):
            values = np.array([getattr(r, metric) for r in members]) * 100.0
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            report.add(setting, nr, method, metric, mean, std, len(values))
    return report
