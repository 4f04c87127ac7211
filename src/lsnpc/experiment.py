"""Config-driven pipeline: data, corruption, training, correction, reports.

One run cell is (noise kind, noise rate, seed).  The dataset of a seed is
made once per run and shared by that seed's cells; everything else (split,
base classifier, both LSNPC arms) is built inside its cell and handed from
stage to stage.  The Normal-proposal ablation arm recomputes the Student
arm's datasets and base checkpoints, with identical bytes.

Every artifact is a pure function of (config, seed): the manifest written at
the end maps each artifact file to its content digest, so two runs agree
byte-for-byte exactly when their manifests agree.  So the cells, and the
theory check's quadrature instances, run in worker processes
(``rngs.fan_out``), and this process writes what they return.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rngs
from .baseclf import BaseClassifier, train_base, predict_probs, save_base
from .checkpoint import file_digest, restore, snapshot
from .config import ExperimentConfig
from .correction import CorrectionResult, binarize, correct, knn_correct, save_correction
from .datagen import FeatureDataset, generate_synthetic, load_dataset, save_dataset
from .evaluation import ExperimentReport, RunMetrics, build_report, f1_report, micro_f1
from .model import LsnpcModel, train_semi_supervised, save_model
from .noise import SplitResult, build_transition_matrix, save_transition, split_dataset
from .theory import (
    Theorem1Result,
    TheoryReport,
    amortization_demo,
    estimate_constants,
    fit_delta_exponent,
    gaussian_bound_check,
    random_label_pairs,
    theorem2_check,
    tiny_model,
    verify_theorem1,
)

__all__ = [
    "RunArtifacts",
    "StageError",
    "STAGES",
    "run_experiment",
    "sweep_sensitivity",
    "run_ablation",
    "verify_all",
]

STAGES = ("gen-data", "corrupt", "train-base", "train-lsnpc", "correct", "eval")


class StageError(RuntimeError):
    """A pipeline stage failed; earlier artifacts are left on disk."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunArtifacts:
    out_dir: Path
    rows: list[RunMetrics] = field(default_factory=list)
    report: ExperimentReport | None = None
    manifest: dict[str, str] = field(default_factory=dict)

    def record(self, path: Path) -> None:
        self.manifest[str(path.relative_to(self.out_dir))] = file_digest(path)

    def write_manifest(self) -> Path:
        lines = [f"{name}  {self.manifest[name]}" for name in sorted(self.manifest)]
        path = self.out_dir / "manifest.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def _nr_tag(nr: float) -> str:
    return str(int(round(nr * 100)))


def _cells(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    # At rate 0 every kind yields the identity matrix; run one cell only.
    out = []
    for nr in cfg.noise_rates:
        for kind in cfg.noise_kinds if nr > 0 else cfg.noise_kinds[:1]:
            out.append((kind, nr))
    return out


def _write_report(report, out: Path, stem: str, quiet: bool = True) -> tuple[Path, Path]:
    """Writes ``<stem>.csv`` and ``<stem>.txt`` under ``out``; prints the text unless ``quiet``."""
    out.mkdir(parents=True, exist_ok=True)
    csv, txt = out / f"{stem}.csv", out / f"{stem}.txt"
    csv.write_text(report.to_csv(), encoding="utf-8")
    txt.write_text(report.to_text(), encoding="utf-8")
    if not quiet:
        print(report.to_text(), end="", file=sys.stderr)
    return csv, txt


# -- stage: gen-data
def _dataset(cfg: ExperimentConfig, seed: int) -> FeatureDataset:
    if cfg.source == "synthetic":
        return generate_synthetic(cfg.generator_config(seed))[0]
    return load_dataset(cfg.source)


# The labeling rules that the report scores on the test split; checkpoint
# selection scores the same labels on the corrupted validation split.
def _baseline_labels(h: BaseClassifier, X) -> np.ndarray:
    return binarize(predict_probs(h, X), 0.5)


def _correct(cfg: ExperimentConfig, model: LsnpcModel, h: BaseClassifier, X, seed: int):
    return correct(model, h, X, dataclasses.replace(cfg.correction, seed=seed))


# -- stage: train-base
def _train_base(cfg: ExperimentConfig, split: SplitResult, seed: int) -> BaseClassifier:
    train, val = split.splits["train"], split.splits["validation"]
    return train_base(train.X, train.Y, dataclasses.replace(cfg.base, seed=seed),
                      score=lambda h: micro_f1(val.Y, _baseline_labels(h, val.X)))


# -- stage: train-lsnpc
def _train_lsnpc(cfg: ExperimentConfig, split: SplitResult, h: BaseClassifier, seed: int,
                 warm: LsnpcModel | None = None) -> LsnpcModel:
    """The unsupervised arm; with ``warm`` (that arm), clean sweeps refine its endpoint."""
    train, val = split.splits["train"], split.splits["validation"]
    model = LsnpcModel(cfg.model_config(train.d, train.k), seed=seed)
    if warm is None:
        clean, run = None, dataclasses.replace(cfg.lsnpc, seed=seed)
    else:
        restore(model.params, snapshot(warm.params))
        clean = (split.splits["clean"].X, split.splits["clean"].Y)
        run = dataclasses.replace(cfg.lsnpc, epochs=cfg.clean_epochs,
                                  seed=rngs.spawn_seed(seed, "semi"))
    train_semi_supervised(model, h, train.X, clean, run,
                          score=lambda m: micro_f1(val.Y, _correct(cfg, m, h, val.X, seed).labels))
    return model


# -- stages: correct + eval
def _evaluate(cfg: ExperimentConfig, split: SplitResult, h: BaseClassifier,
              arms: dict[str, LsnpcModel], corrections: dict[str, CorrectionResult],
              kind: str, nr: float, seed: int) -> list[RunMetrics]:
    """Scores the baseline, knn and each arm on the test split; records each
    arm's correction in ``corrections`` as it is made."""
    train, test = split.splits["train"], split.splits["test"]
    labels = {"baseline": _baseline_labels(h, test.X),
              "knn": knn_correct(train.X, train.Y, test.X, cfg.knn_k)}
    for arm, model in arms.items():
        method = "lsnpc-semi" if arm == "semi" else "lsnpc"
        corrections[method] = res = _correct(cfg, model, h, test.X, seed)
        labels[method] = res.labels
    reports = {method: f1_report(split.true_labels["test"], y) for method, y in labels.items()}
    return [RunMetrics(setting=kind, nr=nr, method=method, seed=seed,
                       micro_f1=rep.micro_f1, macro_f1=rep.macro_f1)
            for method, rep in reports.items()]


class _CellTraceback(Exception):
    """The formatted traceback of a cell's error, which pickling drops."""


@dataclass
class _CellOutput:
    """What one cell computed, for ``run_experiment`` to write: ``stage`` is
    the last stage the cell entered, and ``error`` what stopped it there."""

    stage: str = "corrupt"
    error: Exception | None = None
    trace: str = ""
    T: np.ndarray | None = None
    base: BaseClassifier | None = None
    arms: dict[str, LsnpcModel] = field(default_factory=dict)
    corrections: dict[str, CorrectionResult] = field(default_factory=dict)
    rows: list[RunMetrics] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)


def _run_cell(unit) -> _CellOutput:
    """One (kind, rate, seed) cell on its seed's dataset, through STAGES[rank].

    A pure function of its unit that writes nothing, so it can run in a
    worker process.  A failure is returned with what the cell built before it.
    """
    cfg, kind, nr, seed, ds, rank = unit
    out = _CellOutput()
    try:
        out.T = T = build_transition_matrix(kind, ds.k, nr) if nr > 0 else None
        sp = split_dataset(ds, cfg.split_spec(seed), T)
        if rank < STAGES.index("train-base"):
            return out
        out.stage = "train-base"
        t0 = time.time()
        out.base = h = _train_base(cfg, sp, seed)
        out.seconds["base"] = time.time() - t0
        if rank < STAGES.index("train-lsnpc"):
            return out
        out.stage = "train-lsnpc"
        for arm in ("unsup", "semi") if cfg.paradigm == "semi-supervised" else ("unsup",):
            t0 = time.time()
            out.arms[arm] = _train_lsnpc(cfg, sp, h, seed, warm=out.arms.get("unsup"))
            out.seconds[arm] = time.time() - t0
        if rank < STAGES.index("correct"):
            return out
        out.stage = "correct"
        out.rows = _evaluate(cfg, sp, h, out.arms, out.corrections, kind, nr, seed)
    except Exception as e:
        out.error, out.trace = e, traceback.format_exc()
    return out


def run_experiment(cfg: ExperimentConfig, out_dir=None, stage: str = "eval",
                   quiet: bool = False) -> RunArtifacts:
    """Run the pipeline through ``stage`` for every (kind, rate, seed) cell.

    The cells run through ``rngs.fan_out``: in worker processes, one per core
    this process may use and at most one per cell, or in this process when
    that count is 1.  This process makes the datasets and writes every
    artifact, progress line, the report and the manifest in the order of a
    serial run.  A cell that fails has what it built before the failure
    written, and raises ``StageError`` naming its stage.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    art = RunArtifacts(out_dir=out)
    rank = STAGES.index(stage)

    def say(msg: str) -> None:
        if not quiet:
            print(msg, file=sys.stderr)

    def write(rel: str, saver) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        saver(path)
        art.record(path)

    current = STAGES[0]
    try:
        data = {}
        for seed in cfg.seeds:
            data[seed] = ds = _dataset(cfg, seed)
            write(f"data/ds_s{seed}.bin", lambda p: save_dataset(ds, p))
        units = [(cfg, kind, nr, seed, data[seed], rank)
                 for kind, nr in _cells(cfg) for seed in cfg.seeds]
        with rngs.fan_out(_run_cell, units) as results:
            for (_, kind, nr, seed, _, _), res in zip(units, results):
                current = "corrupt"
                # One matrix per (kind, rate): the datasets of all seeds have the same k.
                if res.T is not None and seed == cfg.seeds[0]:
                    write(f"noise/T_{kind}_{_nr_tag(nr)}.csv",
                          lambda p: save_transition(res.T, p))
                cell = f"[{kind} nr={_nr_tag(nr)} s={seed}]"
                name = f"{kind}_{_nr_tag(nr)}_s{seed}"
                if res.base is not None:
                    current = "train-base"
                    val = res.base.metadata.get("val_micro_f1", float("nan"))
                    say(f"  base {cell} val={val:.4f} ({res.seconds['base']:.1f}s)")
                    write(f"base/{name}.ckpt", lambda p: save_base(res.base, p))
                for arm, model in res.arms.items():
                    current = "train-lsnpc"
                    say(f"  lsnpc-{arm} {cell} val={model.metadata['best_val_micro_f1']:.4f} "
                        f"({res.seconds[arm]:.1f}s)")
                    write(f"lsnpc/{name}_{arm}.ckpt", lambda p: save_model(model, p))
                for method, corrected in res.corrections.items():
                    current = "correct"
                    write(f"correction/{name}_{method}.csv",
                          lambda p: save_correction(corrected, p))
                if res.error is not None:
                    current = res.stage
                    raise res.error from _CellTraceback(res.trace)
                art.rows.extend(res.rows)
    except Exception as e:
        art.write_manifest()
        raise StageError(current, e) from e

    if rank >= STAGES.index("eval") and art.rows:
        art.report = build_report(art.rows)
        for path in _write_report(art.report, out, "report", quiet):
            art.record(path)
    art.write_manifest()
    return art


def sweep_sensitivity(cfg: ExperimentConfig, out_dir=None,
                      quiet: bool = False) -> ExperimentReport:
    """One full run per (nu0, nu) in ``cfg.sweep_nu0`` x ``cfg.sweep_nu``; nu may be 'learned'."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    rows: list[RunMetrics] = []
    for nu0 in cfg.sweep_nu0:
        for nu in cfg.sweep_nu:
            tag = f"nu0={nu0:g} nu={'learned' if nu == 'learned' else format(nu, 'g')}"
            cell_cfg = dataclasses.replace(
                cfg,
                nu0=float(nu0),
                nu=cfg.nu if nu == "learned" else float(nu),
                nu_mode="learned" if nu == "learned" else "fixed",
            )
            art = run_experiment(cell_cfg, out_dir=out / tag.replace(" ", "_"),
                                 quiet=quiet)
            for row in art.rows:
                rows.append(dataclasses.replace(row, setting=f"{tag}|{row.setting}"))
    report = build_report(rows)
    _write_report(report, out, "sweep")
    return report


def run_ablation(cfg: ExperimentConfig, out_dir=None,
                 quiet: bool = False) -> ExperimentReport:
    """Student arm vs Normal arm on identical data, seeds, and base models."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    arms = (("LSNPC", "student"), ("GAUSS", "normal"))
    rows: list[RunMetrics] = []
    for arm_index, (label, proposal) in enumerate(arms):
        arm_cfg = dataclasses.replace(cfg, proposal=proposal)
        art = run_experiment(arm_cfg, out_dir=out / label, quiet=quiet)
        for row in art.rows:
            if "lsnpc" in row.method:
                rows.append(dataclasses.replace(
                    row, method=row.method.replace("lsnpc", label)))
            elif arm_index == 0:
                # baseline and knn are arm-independent; keep one copy
                rows.append(row)
    report = build_report(rows)
    _write_report(report, out, "ablation")
    return report


# --------------------------------------------------------------------------
# Theory verification driver


def _trained_theory_model(cfg: ExperimentConfig, proposal: str,
                          quiet: bool) -> tuple[LsnpcModel, np.ndarray]:
    """Small end-to-end training run; returns the model and its train features."""
    tc = cfg.theory
    run_cfg = dataclasses.replace(
        cfg,
        n=tc.train_n,
        m=tc.m,
        nu=tc.nu,
        nu0=tc.nu,
        proposal=proposal,
        base=dataclasses.replace(cfg.base, epochs=tc.base_epochs),
        lsnpc=dataclasses.replace(cfg.lsnpc, epochs=tc.train_epochs),
    )
    ds = _dataset(run_cfg, tc.seed)
    _check_pair_distances(ds.k, tc.pairs)
    if ds.n < tc.train_n:
        raise ValueError(f"{cfg.source} has {ds.n} rows, fewer than [theory] "
                         f"train_n = {tc.train_n}")
    # A dataset file's leading rows, which the split shuffles.
    ds = dataclasses.replace(ds, X=ds.X[:tc.train_n], Y=ds.Y[:tc.train_n])
    T = build_transition_matrix("sym", ds.k, tc.noise_rate) if tc.noise_rate > 0 else None
    sp = split_dataset(ds, run_cfg.split_spec(tc.seed), T)
    model = _train_lsnpc(run_cfg, sp, _train_base(run_cfg, sp, tc.seed), tc.seed)
    if not quiet:
        print(f"  theory model ({proposal}) trained", file=sys.stderr)
    return model, sp.splits["train"].X.astype(np.float64)


def _check_pair_distances(k: int, pairs: int) -> None:
    """The label pairs sit at distances 1..min(3, k) in turn, and the
    normal-quadratic-bound slope needs two of them."""
    if min(k, pairs) < 2:
        raise ValueError(f"verify-theory needs label pairs at two distances, which "
                         f"k = {k} labels and [theory] pairs = {pairs} do not give")


def _theorem1_instance(s: int) -> Theorem1Result:
    """Quadrature instance s: ``tiny_model(seed=s)`` on inputs from stream s."""
    model = tiny_model(seed=s)
    rng = rngs.stream(s, "theory", "inputs")
    x = rng.standard_normal(model.cfg.d)
    yhat = (rng.random(model.cfg.k) < 0.5).astype(np.float64)
    return verify_theorem1(model, x, yhat)


def verify_all(cfg: ExperimentConfig, out_dir=None, quiet: bool = False) -> TheoryReport:
    """All numerical checks; writes theory_report.{txt,csv} under the out dir.

    The quadrature instances and the Monte-Carlo pairs of the affine bound
    run through ``rngs.fan_out``, on every core this process may use; each
    instance and each pair draws from its own stream, so the report does not
    depend on the worker count.  The two theory models train in this process.
    """
    tc = cfg.theory
    if cfg.source == "synthetic":  # a dataset file's k is checked once it is read
        _check_pair_distances(cfg.k, tc.pairs)
    report = TheoryReport()

    # 1. Expected conditional KL vs joint KL on random 1-D instances.
    with rngs.fan_out(_theorem1_instance, range(tc.instances)) as results:
        results = list(results)
    held = sum(res.holds for res in results)
    flagged = sum(not res.entropy_nonneg for res in results)
    worst = min((res.margin for res in results), default=float("inf"))
    report.add("expected-vs-joint-kl", tc.instances, held, worst)
    report.notes.append(
        f"expected-vs-joint-kl: {flagged} instances had negative proposal "
        f"entropy (reported, not failed)"
    )

    # 2 + 3. Encoder constants and the affine bound on a trained model.
    model, X_train = _trained_theory_model(cfg, "student", quiet)
    rng = rngs.stream(tc.seed, "theory", "pairs")
    idx = rng.integers(0, X_train.shape[0], size=tc.pairs)
    X = X_train[idx]
    k = model.cfg.k  # the dataset's label count, which a dataset file sets
    deltas = np.arange(tc.pairs) % min(3, k) + 1
    Y0 = np.empty((tc.pairs, k)); Y1 = np.empty((tc.pairs, k))
    for i in range(tc.pairs):
        a, b = random_label_pairs(k, 1, rng, delta=int(deltas[i]))
        Y0[i], Y1[i] = a[0], b[0]
    const = estimate_constants(model, X, (Y0, Y1)).inflated(1.5)
    report.add("encoder-constants", tc.pairs, const.n_regular, const.lam)
    report.notes.append(
        f"encoder-constants (x1.5 inflated): M={const.M:.4f} L={const.L:.4f} "
        f"lam={const.lam:.6f} alpha={const.alpha:.4f} C1={const.C1:.4f} "
        f"C2={const.C2:.4f}"
    )
    rows = theorem2_check(model, X, (Y0, Y1), const, n_mc=tc.n_mc, seed=tc.seed)
    dominated = sum(r.dominated for r in rows)
    se_ok = sum(r.se < 0.01 * r.bound for r in rows)
    report.add("student-affine-bound", len(rows), dominated,
               min(r.margin for r in rows))
    report.notes.append(
        f"student-affine-bound: MC SE below 1% of the bound on {se_ok}/{len(rows)}"
    )

    # 4. Normal-proposal arm against the quadratic bound.
    gmodel, gX_train = _trained_theory_model(cfg, "normal", quiet)
    gconst = estimate_constants(gmodel, X, (Y0, Y1)).inflated(1.5)
    grows = gaussian_bound_check(gmodel, X, (Y0, Y1), gconst)
    gdom = sum(r.dominated for r in grows)
    exponent = fit_delta_exponent(grows)
    report.add("normal-quadratic-bound", len(grows), gdom,
               min(r.margin for r in grows))
    report.notes.append(
        f"normal-quadratic-bound: fitted distance exponent {exponent:.3f}"
    )

    # 5. Label-KL amortization across label-space sizes.
    ks = (20, 80, 320)
    totals = [amortization_demo(k, 0.01, 0.9, 0.5, 2)[0] for k in ks]
    spread = max(totals) - min(totals)
    matches = sum(abs(t - totals[0]) <= 1e-12 for t in totals)
    report.add("bernoulli-amortization", len(ks), matches, spread)
    report.notes.append(
        f"bernoulli-amortization: total divergence {totals[0]!r} at k={ks}"
    )

    _write_report(report, Path(out_dir if out_dir is not None else cfg.out_dir),
                  "theory_report", quiet)
    return report
