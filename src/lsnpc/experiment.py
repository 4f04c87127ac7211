"""Config-driven pipeline: data, corruption, training, correction, reports.

One run cell is (noise kind, noise rate, seed).  Artifacts shared between
cells (datasets per seed, base classifiers per cell) are computed once and
reused; the Normal-proposal ablation arm reuses the Student arm's datasets
and base checkpoints byte-identically.

Every artifact is a pure function of (config, seed): the manifest written at
the end maps each artifact file to its content digest, so two runs agree
byte-for-byte exactly when their manifests agree.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rngs
from .baseclf import BaseClassifier, train_base, predict_probs, save_base
from .checkpoint import digest, file_digest
from .config import ExperimentConfig
from .correction import binarize, correct, knn_correct, save_correction
from .datagen import FeatureDataset, generate_synthetic, load_dataset, save_dataset
from .evaluation import ExperimentReport, RunMetrics, build_report, f1_report
from .model import LsnpcModel, train_semi_supervised, save_model
from .noise import SplitSpec, build_transition_matrix, save_transition, split_dataset
from .theory import (
    QuadratureGrid,
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


class _Pipeline:
    """Per-call caches plus artifact writing for one experiment invocation."""

    def __init__(self, cfg: ExperimentConfig, out_dir: Path, quiet: bool):
        self.cfg = cfg
        self.out = out_dir
        self.quiet = quiet
        self.art = RunArtifacts(out_dir=out_dir)
        self._data: dict[int, FeatureDataset] = {}
        self._splits: dict = {}
        self._base: dict = {}
        self._lsnpc: dict = {}

    def say(self, msg: str) -> None:
        if not self.quiet:
            print(msg, file=sys.stderr)

    def _write(self, path: Path, saver) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        saver(path)
        self.art.record(path)

    # -- stage: gen-data
    def dataset(self, seed: int) -> FeatureDataset:
        if seed not in self._data:
            if self.cfg.source == "synthetic":
                ds, _ = generate_synthetic(self.cfg.generator_config(seed))
            else:
                ds = load_dataset(self.cfg.source)
            self._data[seed] = ds
            self._write(self.out / "data" / f"ds_s{seed}.bin",
                        lambda p: save_dataset(ds, p))
        return self._data[seed]

    # -- stage: corrupt
    def split(self, seed: int, kind: str, nr: float):
        key = (seed, kind, nr)
        if key not in self._splits:
            ds = self.dataset(seed)
            T = build_transition_matrix(kind, ds.k, nr) if nr > 0 else None
            tr, va, cl, te = self.cfg.split_fractions
            spec = SplitSpec(train=tr, validation=va, test=te, clean=cl, seed=seed)
            self._splits[key] = split_dataset(ds, spec, T)
            if T is not None:
                path = self.out / "noise" / f"T_{kind}_{_nr_tag(nr)}.csv"
                if not path.exists():
                    self._write(path, lambda p: save_transition(T, p))
        return self._splits[key]

    # -- stage: train-base
    def base(self, seed: int, kind: str, nr: float) -> BaseClassifier:
        key = (seed, kind, nr)
        if key not in self._base:
            sp = self.split(seed, kind, nr)
            train = sp.splits["train"]
            val = sp.splits["validation"]
            cfg = dataclasses.replace(self.cfg.base, seed=seed)
            t0 = time.time()
            h = train_base(train.X, train.Y, cfg, validation=(val.X, val.Y))
            self.say(f"  base [{kind} nr={_nr_tag(nr)} s={seed}] "
                     f"val={h.metadata.get('val_micro_f1', float('nan')):.4f} "
                     f"({time.time() - t0:.1f}s)")
            self._base[key] = h
            self._write(self.out / "base" / f"{kind}_{_nr_tag(nr)}_s{seed}.ckpt",
                        lambda p: save_base(h, p))
        return self._base[key]

    # -- stage: train-lsnpc
    def lsnpc(self, seed: int, kind: str, nr: float, semi: bool) -> LsnpcModel:
        key = (seed, kind, nr, semi)
        if key not in self._lsnpc:
            sp = self.split(seed, kind, nr)
            train = sp.splits["train"]
            val = sp.splits["validation"]
            h = self.base(seed, kind, nr)
            corr = dataclasses.replace(self.cfg.correction, seed=seed)
            t0 = time.time()
            if not semi:
                model = LsnpcModel(self.cfg.model_config(train.d, train.k), seed=seed)
                cfg = dataclasses.replace(self.cfg.lsnpc, seed=seed)
                train_semi_supervised(model, h, train.X, None, cfg,
                                      validation=(val.X, val.Y), correction_cfg=corr)
            else:
                # Warm start: clean sweeps refine the unsupervised endpoint.
                warm = self.lsnpc(seed, kind, nr, semi=False)
                model = LsnpcModel(self.cfg.model_config(train.d, train.k), seed=seed)
                model.load_arrays(warm.params_arrays())
                clean = sp.splits["clean"]
                cfg = dataclasses.replace(
                    self.cfg.lsnpc,
                    epochs=self.cfg.clean_epochs,
                    seed=rngs.spawn_seed(seed, "semi"),
                )
                train_semi_supervised(model, h, train.X, (clean.X, clean.Y), cfg,
                                      validation=(val.X, val.Y), correction_cfg=corr)
            tag = "semi" if semi else "unsup"
            log = getattr(model, "last_log", None)
            best = log.best_val if log is not None else float("nan")
            self.say(f"  lsnpc-{tag} [{kind} nr={_nr_tag(nr)} s={seed}] "
                     f"val={best:.4f} ({time.time() - t0:.1f}s)")
            self._lsnpc[key] = model
            self._write(
                self.out / "lsnpc" / f"{kind}_{_nr_tag(nr)}_s{seed}_{tag}.ckpt",
                lambda p: save_model(model, p),
            )
        return self._lsnpc[key]

    # -- stages: correct + eval
    def evaluate_cell(self, seed: int, kind: str, nr: float,
                      stage: str) -> list[RunMetrics]:
        sp = self.split(seed, kind, nr)
        test = sp.splits["test"]
        truth = sp.true_labels["test"]
        train = sp.splits["train"]
        h = self.base(seed, kind, nr)
        corr_cfg = dataclasses.replace(self.cfg.correction, seed=seed)
        rank = STAGES.index(stage)
        rows: list[RunMetrics] = []

        def add(method: str, labels: np.ndarray) -> None:
            rep = f1_report(truth, labels)
            rows.append(RunMetrics(setting=kind, nr=nr, method=method, seed=seed,
                                   micro_f1=rep.micro_f1, macro_f1=rep.macro_f1))

        probs = predict_probs(h, test.X)
        add("baseline", binarize(probs, 0.5))
        add("knn", knn_correct(train.X, train.Y, test.X, self.cfg.knn_k))

        variants = [False] + ([True] if self.cfg.paradigm == "semi-supervised" else [])
        for semi in variants:
            if rank < STAGES.index("train-lsnpc"):
                continue
            model = self.lsnpc(seed, kind, nr, semi)
            if rank < STAGES.index("correct"):
                continue
            res = correct(model, h, test.X, corr_cfg)
            tag = "lsnpc-semi" if semi else "lsnpc"
            self._write(
                self.out / "correction" / f"{kind}_{_nr_tag(nr)}_s{seed}_{tag}.csv",
                lambda p: save_correction(res, p),
            )
            add(tag, res.labels)
        return rows


def run_experiment(cfg: ExperimentConfig, out_dir=None, stage: str = "eval",
                   quiet: bool = False) -> RunArtifacts:
    """Run the pipeline through ``stage`` for every (kind, rate, seed) cell."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipe = _Pipeline(cfg, out, quiet)
    rank = STAGES.index(stage)
    current = STAGES[0]
    try:
        for seed in cfg.seeds:
            current = "gen-data"
            pipe.dataset(seed)
        for kind, nr in _cells(cfg):
            for seed in cfg.seeds:
                current = "corrupt"
                pipe.split(seed, kind, nr)
                if rank < STAGES.index("train-base"):
                    continue
                current = "train-base"
                pipe.base(seed, kind, nr)
                if rank < STAGES.index("train-lsnpc"):
                    continue
                current = "train-lsnpc"
                pipe.lsnpc(seed, kind, nr, semi=False)
                if cfg.paradigm == "semi-supervised":
                    pipe.lsnpc(seed, kind, nr, semi=True)
                if rank < STAGES.index("correct"):
                    continue
                current = "correct"
                pipe.art.rows.extend(pipe.evaluate_cell(seed, kind, nr, stage))
    except Exception as e:
        pipe.art.write_manifest()
        raise StageError(current, e) from e

    art = pipe.art
    if rank >= STAGES.index("eval") and art.rows:
        current = "eval"
        art.report = build_report(art.rows)
        report_csv = out / "report.csv"
        report_csv.write_text(art.report.to_csv(), encoding="utf-8")
        art.record(report_csv)
        report_txt = out / "report.txt"
        report_txt.write_text(art.report.to_text(), encoding="utf-8")
        art.record(report_txt)
        if not quiet:
            print(art.report.to_text(), end="", file=sys.stderr)
    art.write_manifest()
    return art


def sweep_sensitivity(cfg: ExperimentConfig, nu0_values=None, nu_values=None,
                      out_dir=None, quiet: bool = False) -> ExperimentReport:
    """One full run per (nu0, nu) cell; nu may be the string 'learned'."""
    nu0_values = tuple(nu0_values if nu0_values is not None else cfg.sweep_nu0)
    nu_values = tuple(nu_values if nu_values is not None else cfg.sweep_nu)
    for v in nu0_values:
        if not (isinstance(v, (int, float)) and v > 2):
            raise ValueError(f"nu0 value {v!r} must be a number > 2")
    for v in nu_values:
        if v != "learned" and not (isinstance(v, (int, float)) and v > 2):
            raise ValueError(f"nu value {v!r} must be a number > 2 or 'learned'")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    rows: list[RunMetrics] = []
    for nu0 in nu0_values:
        for nu in nu_values:
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
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "sweep.txt").write_text(report.to_text(), encoding="utf-8")
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
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "ablation.txt").write_text(report.to_text(), encoding="utf-8")
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
        noise_kinds=("sym",),
        noise_rates=(tc.noise_rate,),
        seeds=(tc.seed,),
        paradigm="unsupervised",
        base=dataclasses.replace(cfg.base, epochs=tc.base_epochs),
        lsnpc=dataclasses.replace(cfg.lsnpc, epochs=tc.train_epochs),
    )
    pipe = _Pipeline(run_cfg, Path("."), quiet=True)
    pipe._write = lambda *a, **k: None  # in-memory only
    sp = pipe.split(tc.seed, "sym", tc.noise_rate)
    model = pipe.lsnpc(tc.seed, "sym", tc.noise_rate, semi=False)
    if not quiet:
        print(f"  theory model ({proposal}) trained", file=sys.stderr)
    return model, sp.splits["train"].X.astype(np.float64)


def verify_all(cfg: ExperimentConfig, out_dir=None, grid: QuadratureGrid | None = None,
               quiet: bool = False) -> TheoryReport:
    """All numerical checks; writes theory_report.{txt,csv} under the out dir."""
    tc = cfg.theory
    report = TheoryReport()

    # 1. Expected conditional KL vs joint KL on random 1-D instances.
    held = flagged = 0
    worst = float("inf")
    for s in range(tc.instances):
        model = tiny_model(seed=s)
        rng = rngs.stream(s, "theory", "inputs")
        x = rng.standard_normal(model.cfg.d)
        yhat = (rng.random(model.cfg.k) < 0.5).astype(np.float64)
        res = verify_theorem1(model, x, yhat, grid)
        held += res.holds
        flagged += not res.entropy_nonneg
        worst = min(worst, res.margin)
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
    deltas = (np.arange(tc.pairs) % 3) + 1
    Y0 = np.empty((tc.pairs, cfg.k)); Y1 = np.empty((tc.pairs, cfg.k))
    for i in range(tc.pairs):
        a, b = random_label_pairs(cfg.k, 1, rng, delta=int(deltas[i]))
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

    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "theory_report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "theory_report.csv").write_text(report.to_csv(), encoding="utf-8")
    if not quiet:
        print(report.to_text(), end="", file=sys.stderr)
    return report
