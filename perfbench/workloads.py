"""The benchmark's three workloads, their output checks and their metrics.

cell     one default-size cell (sym noise, rate 0.3) through run_experiment
         at stage eval: the path users run, dominated by tape training.
correct  post-hoc correction at scale: correct() over fixed-size batches of
         the leading queries plus knn_correct of every query against a
         14k-row train set; the tape runs forward only.
theory   verify_all on configs/theory.ini: vectorized quadrature and
         Monte-Carlo KL, with two small trainings.

Every workload is a closed loop with one client: each operation starts when
the previous one has returned.  The workload seed reaches the program only
as generated inputs (config seeds, data, noise).  End-to-end times are read
off a ``hostspeed.Clock``: seconds at a fixed host speed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lsnpc import (
    baseclf,
    config,
    correction,
    datagen,
    evaluation,
    experiment,
    model,
    noise,
)

import hostspeed
import replay
import tracing

ROOT = Path(__file__).resolve().parent.parent
NOISE_KIND, NOISE_RATE = "sym", 0.3

# Metrics measured on one workload only.  The other workloads report
# NOT_MEASURED, so that every run carries every end-to-end metric; their
# incidental calls are too short to time steadily.
NOT_MEASURED = 1.0
# name: (workload, unit, span whose rows per second it is, how the calls are
# combined: "total" rows over total time, or "median" of per-call rates).
WORKLOAD_METRICS = {
    "lsnpc_train_rows_per_s": ("cell", "rows/s", "model.train_semi_supervised", "total"),
    "lsnpc_micro_f1": ("cell", "%", None, None),
    "lsnpc_semi_micro_f1": ("cell", "%", None, None),
    "correct_rows_per_s": ("correct", "rows/s", "correction.correct", "median"),
    "knn_rows_per_s": ("correct", "rows/s", "correction.knn_correct", "median"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
    "checks_passed": "count",
    **{name: unit for name, (_, unit, _, _) in WORKLOAD_METRICS.items()},
}

MODULES = ("autodiff", "baseclf", "checkpoint", "config", "correction", "datagen",
           "distributions", "evaluation", "experiment", "layers", "model", "noise",
           "rngs", "special", "theory")

LAYER_UNITS = {
    "datagen.generate_s": "s",
    "noise.corrupt_us_per_row": "us",
    "noise.split_s": "s",
    "baseclf.train_s": "s",
    "baseclf.steps": "count",
    "baseclf.predict_s": "s",
    **replay.UNITS,
    "model.train_unsup_s": "s",
    "model.train_semi_s": "s",
    "model.steps": "count",
    "model.val_correct_s": "s",
    "correction.correct_s": "s",
    "correction.batch_p50_ms": "ms",
    "correction.batch_tail_ms": "ms",
    "correction.decode_calls": "count",
    "correction.se_mean": "prob",
    "correction.se_max": "prob",
    "correction.knn_s": "s",
    "correction.knn_peak_mb": "MB",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "evaluation.f1_s": "s",
    "theory.quadrature_ms_per_instance": "ms",
    "theory.constants_s": "s",
    "theory.gaussian_check_s": "s",
    "distributions.mc_kl_ms_per_pair": "ms",
    "theory.train_s": "s",
    "host.ref_ms": "ms",
    "host.raw_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    **{f"self_s.{name}": "s" for name in MODULES},
}


@dataclass(frozen=True)
class Plan:
    """Sizes of one run.  FULL is the benchmark; TINY serves the self-test."""

    cell: dict = field(default_factory=dict)  # overrides of configs/default.ini
    train_rows: int = 14_000                  # correct: KNN train set, corrupted
    query_rows: int = 6_000
    correct_rows: int = 600                 # correct: leading queries through correct()
    batch_rows: int = 200
    fit_rows: int = 1_000                     # correct: rows of the brief fit
    base_epochs: int = 2
    lsnpc_epochs: int = 1
    theory: dict = field(default_factory=dict)  # overrides of [theory]
    setup_repeats: int = 3
    replay_steps: int = 30
    nan_batches: int = 0                      # query batches given NaN features


FULL = Plan()
TINY = Plan(
    cell={"n": 300, "base": {"epochs": 2}, "lsnpc": {"epochs": 1}, "clean_epochs": 1},
    train_rows=600, query_rows=200, correct_rows=200, batch_rows=50, fit_rows=100, base_epochs=1,
    theory={"instances": 2, "pairs": 6, "n_mc": 2000, "train_n": 100,
            "train_epochs": 1, "base_epochs": 1},
    setup_repeats=2, replay_steps=3,
)


def _replace_nested(cfg, changes: dict):
    out = {}
    for key, value in changes.items():
        out[key] = (dataclasses.replace(getattr(cfg, key), **value)
                    if isinstance(value, dict) else value)
    return config.override(cfg, **out)


# --------------------------------------------------------------------------
# Calls whose spans feed end-to-end metrics, with their output checks.


def _train_lsnpc_info(a, out):
    n_clean = 0 if a["clean"] is None else len(a["clean"][0])
    cfg = a["cfg"]
    return {"rows": cfg.epochs * cfg.s_y * (len(a["X_noisy"]) + n_clean),
            "semi": a["clean"] is not None}


def _correct_info(a, out):
    p, se = out.probs, out.se
    return {
        "rows": len(p),
        "se_mean": float(np.mean(se)) if se.size else 0.0,
        "se_max": float(np.max(se)) if se.size else 0.0,
        "checks": {
            "correct: probabilities finite and inside (0, 1)":
                bool(np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))),
            "correct: standard errors finite": bool(np.all(np.isfinite(se))),
            "correct: labels binary": bool(np.all((out.labels == 0) | (out.labels == 1))),
        },
    }


def _knn_info(a, out):
    return {
        "rows": len(a["X"]),
        "checks": {"knn: one binary label row per query": bool(
            out.shape == (len(a["X"]), np.shape(a["noisy_train_labels"])[1])
            and np.all((out == 0) | (out == 1)))},
    }


def _save_info(a, out):
    return {"bytes": os.path.getsize(a["path"])}


INSPECTORS = {
    "model.train_semi_supervised": _train_lsnpc_info,
    "correction.correct": _correct_info,
    "correction.knn_correct": _knn_info,
    "checkpoint.save_params": _save_info,
    "noise.corrupt_labels": lambda a, out: {"rows": len(a["Y"])},
}
PROBES = ((None, "train_semi_supervised", model.train_semi_supervised),
          (None, "correct", correction.correct),
          (None, "knn_correct", correction.knn_correct))
# Frequent calls on whose entry the clock may calibrate.  Untraced runs only:
# in a traced run a calibration would add to the time of the enclosing spans.
TICK_POINTS = ("layers.AdamW.step", "correction.correct", "correction.knn_correct",
               "theory.verify_theorem1", "distributions.mc_kl_diag_student")


def _with_peak(fn, sink: list):
    """``fn`` with the peak of memory traced during each call appended to sink."""
    def run(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return functools.wraps(fn)(run)


# --------------------------------------------------------------------------
# One run of a workload


@dataclass
class Result:
    recorder: tracing.Recorder
    clock: hostspeed.Clock = field(default_factory=hostspeed.Clock)
    setup_bounds: list[tuple[float, float]] = field(default_factory=list)
    op_bounds: list[tuple[float, float]] = field(default_factory=list)
    last_setup_span: int = 0
    timed_span: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    knn_peak_bytes: list[int] = field(default_factory=list)

    @property
    def setup_s(self) -> list[float]:
        return [self.clock.seconds(a, b) for a, b in self.setup_bounds]

    @property
    def op_s(self) -> list[float]:
        return [self.clock.seconds(a, b) for a, b in self.op_bounds]

    @property
    def raw_op_s(self) -> list[float]:
        return [b - a for a, b in self.op_bounds]

    def check(self, name: str, ok: bool) -> bool:
        if not ok and self.checks.get(name, True):
            self.errors.append(f"check failed: {name}")
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def attempt(self, op, check=None):
        """Run one operation; an exception or a failed check counts it failed."""
        self.attempted += 1
        mark = len(self.recorder.spans)
        try:
            out = op()
            checks = check(out) if check is not None else {}
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3).strip())
            return None
        ok = True
        for span in self.recorder.spans[mark:]:
            for name, passed in (span[4] or {}).get("checks", {}).items():
                ok &= self.check(name, passed)
        for name, passed in checks.items():
            ok &= self.check(name, passed)
        if not ok:
            self.failed += 1
        return out


def _closed_loop(seconds: float, op, res: Result) -> None:
    """Run ``op`` back to back, at least once, while the next run is expected
    to end within ``seconds``; calibrates the clock between runs."""
    res.timed_span = len(res.recorder.spans)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op()
        t1 = time.perf_counter()
        res.clock.calibrate()
        res.op_bounds.append((t0, t1))
        if t1 - start + statistics.median(res.raw_op_s) > seconds:
            break


def _setup(res: Result, repeats: int, fn):
    """Run ``fn`` ``repeats`` times, timing each; returns the last result."""
    out = None
    res.clock.calibrate()
    for _ in range(repeats):
        res.last_setup_span = len(res.recorder.spans)
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        res.clock.calibrate()
        res.setup_bounds.append((t0, t1))
    return out


def run(workload: str, plan: Plan, seed: int, seconds: float, traced: bool,
        scratch: Path) -> Result:
    res = Result(recorder=tracing.Recorder())
    if traced:
        targets = tracing.public_callables()
        around = {"correction.knn_correct": lambda fn: _with_peak(fn, res.knn_peak_bytes)}
    else:
        probed = {tracing.span_name(fn) for _, _, fn in PROBES}
        targets = [*PROBES, *(t for t in tracing.public_callables()
                              if tracing.span_name(t[2]) in TICK_POINTS
                              and tracing.span_name(t[2]) not in probed)]
        around = {name: res.clock.ticking for name in TICK_POINTS}
    with tracing.instrument(res.recorder, targets, INSPECTORS, around):
        WORKLOADS[workload](plan, seed, seconds, res, scratch)
    return res


def _cell(plan: Plan, seed: int, seconds: float, res: Result, scratch: Path) -> None:
    def setup():
        cfg = config.load_config(ROOT / "configs" / "default.ini")
        cfg = _replace_nested(cfg, {"noise_kinds": (NOISE_KIND,),
                                    "noise_rates": (NOISE_RATE,),
                                    "seeds": (seed,), **plan.cell})
        ds, _ = datagen.generate_synthetic(cfg.generator_config(seed))
        T = noise.build_transition_matrix(NOISE_KIND, ds.k, NOISE_RATE)
        tr, va, cl, te = cfg.split_fractions
        spec = noise.SplitSpec(train=tr, validation=va, clean=cl, test=te, seed=seed)
        return cfg, noise.split_dataset(ds, spec, T).true_labels["test"]

    cfg, truth = _setup(res, plan.setup_repeats, setup)

    def op():
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            res.attempt(lambda: experiment.run_experiment(cfg, out_dir=out, quiet=True),
                        lambda art: _check_cell(art, Path(out), truth, res))

    _closed_loop(seconds, op, res)


def _check_cell(art, out: Path, truth, res: Result) -> dict[str, bool]:
    """Output checks of one cell; records quality figures and the digest."""
    rows = {(r.method, r.seed): r for r in art.rows}
    methods = {method for method, _ in rows}
    checks = {"cell: report has baseline, knn, lsnpc and lsnpc-semi rows":
              methods == {"baseline", "knn", "lsnpc", "lsnpc-semi"}}
    if not checks["cell: report has baseline, knn, lsnpc and lsnpc-semi rows"]:
        return checks
    f1 = {m: rows[(m, s)].micro_f1 for m, s in rows}
    csv_ok = f1_ok = True
    for tag in ("lsnpc", "lsnpc-semi"):
        [path] = (out / "correction").glob(f"*_{tag}.csv")
        probs, labels = correction.load_correction(path)
        csv_ok &= bool(np.all(np.isfinite(probs)) and np.all((probs > 0) & (probs < 1))
                       and np.all((labels == 0) | (labels == 1))
                       and np.array_equal(labels, correction.binarize(probs, 0.5)))
        f1_ok &= evaluation.micro_f1(truth, labels) == f1[tag]
    checks.update({
        "cell: corrected probabilities inside (0, 1), labels binary thresholds": csv_ok,
        "cell: F1 recomputed from the correction files equals the report": f1_ok,
    })
    # The paper's claim, reported per seed: an unlucky seed can lose it
    # without any output being wrong, so it does not fail the run.
    for tag in ("lsnpc", "lsnpc-semi"):
        holds = "holds" if f1[tag] > f1["baseline"] else "DOES NOT HOLD"
        res.notes.append(f"claim {tag} beats baseline micro-F1: {100 * f1[tag]:.2f} "
                         f"vs {100 * f1['baseline']:.2f}, {holds}")
    res.quality = {"lsnpc_micro_f1": 100.0 * f1["lsnpc"],
                   "lsnpc_semi_micro_f1": 100.0 * f1["lsnpc-semi"]}
    res.digest = hashlib.sha256((out / "manifest.txt").read_bytes()).hexdigest()
    return checks


def _correct(plan: Plan, seed: int, seconds: float, res: Result, scratch: Path) -> None:
    def setup():
        cfg = config.load_config(ROOT / "configs" / "default.ini")
        n = plan.train_rows + plan.query_rows
        ds, _ = datagen.generate_synthetic(config.override(cfg, n=n).generator_config(seed))
        T = noise.build_transition_matrix(NOISE_KIND, ds.k, NOISE_RATE)
        X, Y = ds.X[:plan.train_rows], ds.Y[:plan.train_rows]
        Y_noisy = noise.corrupt_labels(Y, T, seed)
        Xf, Yf = X[:plan.fit_rows], Y_noisy[:plan.fit_rows]
        h = baseclf.train_base(Xf, Yf, dataclasses.replace(
            cfg.base, epochs=plan.base_epochs, seed=seed))
        lsnpc = model.LsnpcModel(cfg.model_config(ds.d, ds.k), seed=seed)
        model.train_semi_supervised(lsnpc, h, Xf, None, dataclasses.replace(
            cfg.lsnpc, epochs=plan.lsnpc_epochs, seed=seed))
        queries = (ds.X[plan.train_rows:], ds.Y[plan.train_rows:])
        corr = dataclasses.replace(cfg.correction, seed=seed)
        return X, Y_noisy, queries, lsnpc, h, corr, cfg.knn_k

    X, Y_noisy, (Xq, Yq), lsnpc, h, corr, knn_k = _setup(res, plan.setup_repeats, setup)
    bad = np.array(Xq[:1], dtype=np.float64)
    bad[0, 0] = math.nan

    def one_pass():
        digest = hashlib.sha256()
        for index, start in enumerate(range(0, plan.correct_rows, plan.batch_rows)):
            rows = slice(start, start + plan.batch_rows)
            Xb = np.concatenate([bad, Xq[rows][1:]]) if index < plan.nan_batches else Xq[rows]
            out = res.attempt(lambda: correction.correct(
                lsnpc, h, datagen.FeatureDataset(X=Xb, Y=Yq[rows]).X, corr))
            if out is not None:
                digest.update(out.probs.tobytes())
        knn = res.attempt(lambda: correction.knn_correct(X, Y_noisy, Xq, knn_k))
        if knn is not None:
            digest.update(knn.tobytes())
        res.digest = digest.hexdigest()

    _closed_loop(seconds, one_pass, res)


def _theory(plan: Plan, seed: int, seconds: float, res: Result, scratch: Path) -> None:
    def setup():
        cfg = config.load_config(ROOT / "configs" / "theory.ini")
        return _replace_nested(cfg, {"seeds": (seed,),
                                     "theory": {**plan.theory, "seed": seed}})

    cfg = _setup(res, plan.setup_repeats, setup)

    def check(report):
        res.digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        checks = {f"theory: {name} passes on every instance": passes == instances
                  for name, instances, passes, _ in report.rows}
        checks["theory: report has all 5 checks"] = len(report.rows) == 5
        return checks

    def op():
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            res.attempt(lambda: experiment.verify_all(cfg, out_dir=out, quiet=True),
                        check)

    _closed_loop(seconds, op, res)


WORKLOADS = {"cell": _cell, "correct": _correct, "theory": _theory}


# --------------------------------------------------------------------------
# Metrics


def _rate(spans, clock: hostspeed.Clock, how: str) -> float:
    busy = [clock.seconds(s[1], s[2]) for s in spans]
    if how == "median" and spans:
        return statistics.median(s[4]["rows"] / t for s, t in zip(spans, busy))
    total = sum(busy)
    return sum(s[4]["rows"] for s in spans) / total if total > 0 else NOT_MEASURED


def batch_latency(spans) -> tuple[float, float, int]:
    """p50 and tail of correct() call times in ms, and the tail percentile."""
    ms = [1e3 * (s[2] - s[1]) for s in spans]
    if not ms:
        return 0.0, 0.0, 0
    q = tracing.tail_percentile(len(ms))
    return float(np.percentile(ms, 50)), float(np.percentile(ms, q)), q


def end_to_end(res: Result, workload: str, import_s: float) -> dict[str, float]:
    out = {
        "setup_s": import_s + statistics.median(res.setup_s),
        "wall_s": statistics.median(res.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (res.attempted - res.failed) / res.attempted,
        "checks_passed": float(sum(res.checks.values())),
    }
    for name, (home, _, span, how) in WORKLOAD_METRICS.items():
        if home != workload:
            out[name] = NOT_MEASURED
        elif span is not None:
            out[name] = _rate(res.recorder.named(span), res.clock, how)
        else:
            out[name] = res.quality.get(name, NOT_MEASURED)
    return out


def _total(spans) -> float:
    return float(sum(s[2] - s[1] for s in spans))


def _per_call_ms(spans) -> float:
    return 1e3 * _total(spans) / len(spans) if spans else 0.0


def _under(spans, parent_name: str, all_spans) -> list:
    return [s for s in spans if s[3] >= 0 and all_spans[s[3]][0] == parent_name]


def module_self_times(res: Result) -> dict[str, float]:
    """Self time per module over the spans of the timed part."""
    own = tracing.self_times(res.recorder.spans)
    out = {name: 0.0 for name in MODULES}
    for span, t in zip(res.recorder.spans[res.timed_span:], own[res.timed_span:]):
        out[span[0].split(".", 1)[0]] += t
    return out


def per_layer(res: Result, untraced: Result, steps: dict) -> dict[str, float]:
    """Layer metrics over the last set-up and the timed part of a traced run,
    in raw seconds; ``untraced`` is the untraced run of the same workload.

    A layer that the workload never calls reads 0.
    """
    spans = res.recorder.spans
    since = res.last_setup_span

    def named(name):
        return res.recorder.named(name, since)

    corrupt = named("noise.corrupt_labels")
    corrupt_rows = sum(s[4]["rows"] for s in corrupt)
    train_base = named("baseclf.train_base")
    lsnpc = named("model.train_semi_supervised")
    correct = named("correction.correct")
    knn = named("correction.knn_correct")
    ses = [s[4] for s in correct]
    p50, tail, _ = batch_latency(correct)
    evaluation_self = sum(
        t for s, t in zip(spans[since:], tracing.self_times(spans)[since:])
        if s[0].startswith("evaluation."))
    return {
        "datagen.generate_s": _total(named("datagen.generate_synthetic")),
        "noise.corrupt_us_per_row": (
            1e6 * _total(corrupt) / corrupt_rows if corrupt_rows else 0.0),
        "noise.split_s": _total(named("noise.split_dataset")),
        "baseclf.train_s": _total(train_base),
        "baseclf.steps": float(len(_under(named("layers.AdamW.step"),
                                          "baseclf.train_base", spans))),
        "baseclf.predict_s": _total(named("baseclf.predict_probs")),
        **steps,
        "model.train_unsup_s": _total([s for s in lsnpc if not s[4]["semi"]]),
        "model.train_semi_s": _total([s for s in lsnpc if s[4]["semi"]]),
        "model.steps": float(len(_under(named("layers.AdamW.step"),
                                        "model.train_semi_supervised", spans))),
        "model.val_correct_s": _total(_under(correct, "model.train_semi_supervised", spans)),
        "correction.correct_s": _total(correct),
        "correction.batch_p50_ms": p50,
        "correction.batch_tail_ms": tail,
        "correction.decode_calls": (
            len(_under(named("model.LsnpcModel.decode_labels"), "correction.correct", spans))
            / len(correct) if correct else 0.0),
        "correction.se_mean": float(np.mean([i["se_mean"] for i in ses])) if ses else 0.0,
        "correction.se_max": max((i["se_max"] for i in ses), default=0.0),
        "correction.knn_s": _total(knn),
        "correction.knn_peak_mb": max(res.knn_peak_bytes, default=0) / 2**20,
        "checkpoint.save_s": _total(named("checkpoint.save_params")),
        "checkpoint.bytes": float(sum(s[4]["bytes"] for s in named("checkpoint.save_params"))),
        "evaluation.f1_s": evaluation_self,
        "theory.quadrature_ms_per_instance": _per_call_ms(named("theory.verify_theorem1")),
        "theory.constants_s": _total(named("theory.estimate_constants")),
        "theory.gaussian_check_s": _total(named("theory.gaussian_bound_check")),
        "distributions.mc_kl_ms_per_pair": _per_call_ms(named("distributions.mc_kl_diag_student")),
        "theory.train_s": _total(_under(train_base + lsnpc, "experiment.verify_all", spans)),
        "host.ref_ms": untraced.clock.median_ref_ms(),
        "host.raw_wall_s": statistics.median(untraced.raw_op_s),
        "trace.overhead_s": statistics.median(res.op_s) - statistics.median(untraced.op_s),
        "trace.spans": float(len(spans)),
        "trace.span_cost_s": len(spans) * tracing.span_cost(),
        **{f"self_s.{k}": v for k, v in module_self_times(res).items()},
    }
