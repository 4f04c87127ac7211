"""End-to-end pipeline runs on minute-scale configs.

A single tiny run (two noise cells, one seed, both paradigm arms) is shared
across most tests; determinism tests repeat it into a fresh directory and
compare manifests, which hash every artifact byte.
"""

import ctypes
import dataclasses
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from lsnpc import rngs
from lsnpc.baseclf import load_base, predict_probs
from lsnpc.checkpoint import file_digest
from lsnpc.config import ExperimentConfig, TheoryConfig, load_config, override
from lsnpc.correction import binarize, correct
from lsnpc.datagen import GeneratorConfig, generate_synthetic, load_dataset, save_dataset
from lsnpc.evaluation import micro_f1
from lsnpc.model import load_model
from lsnpc.noise import build_transition_matrix, split_dataset
from lsnpc.experiment import (
    STAGES,
    StageError,
    run_ablation,
    run_experiment,
    _trained_theory_model,
    sweep_sensitivity,
    verify_all,
)

TINY = dict(
    n=240,
    d=6,
    k=3,
    rank=3,
    m=2,
    embed_hidden=12,
    embed_dim=12,
    encoder_hidden=(12,),
    decoder_hidden=(12,),
    shift_hidden=(8,),
    noise_kinds=("sym",),
    noise_rates=(0.0, 0.4),
    paradigm="semi-supervised",
    seeds=(1,),
    clean_epochs=1,
)


def tiny_config(**extra) -> ExperimentConfig:
    cfg = ExperimentConfig(**{**TINY, **extra})
    return override(
        cfg,
        base=dataclasses.replace(cfg.base, epochs=4, hidden=(16, 16)),
        lsnpc=dataclasses.replace(cfg.lsnpc, epochs=2),
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = tiny_config()
    art = run_experiment(cfg, out_dir=out, quiet=True)
    return cfg, art


def test_all_stage_artifacts_exist(tiny_run):
    _, art = tiny_run
    names = set(art.manifest)
    assert "data/ds_s1.bin" in names
    assert "noise/T_sym_40.csv" in names
    assert "base/sym_0_s1.ckpt" in names and "base/sym_40_s1.ckpt" in names
    assert "lsnpc/sym_40_s1_unsup.ckpt" in names
    assert "lsnpc/sym_40_s1_semi.ckpt" in names
    assert "correction/sym_40_s1_lsnpc.csv" in names
    assert "correction/sym_40_s1_lsnpc-semi.csv" in names
    assert "report.csv" in names and "report.txt" in names
    assert (art.out_dir / "manifest.txt").exists()


def test_report_covers_every_method_and_cell(tiny_run):
    _, art = tiny_run
    methods = {r.method for r in art.rows}
    assert methods == {"baseline", "knn", "lsnpc", "lsnpc-semi"}
    cells = {(r.setting, r.nr) for r in art.rows}
    assert cells == {("sym", 0.0), ("sym", 0.4)}
    # aggregated report exposes both metrics per cell
    mean, std, n = art.report.lookup("sym", 0.4, "lsnpc", "micro_f1")
    assert 0.0 <= mean <= 100.0 and std == 0.0 and n == 1
    art.report.lookup("sym", 0.4, "lsnpc", "macro_f1")


def test_manifest_digests_match_files(tiny_run):
    _, art = tiny_run
    for rel, want in art.manifest.items():
        assert file_digest(art.out_dir / rel) == want


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    cfg, art = tiny_run
    again = run_experiment(cfg, out_dir=tmp_path, quiet=True)
    assert again.manifest == art.manifest
    assert (tmp_path / "report.csv").read_bytes() == \
        (art.out_dir / "report.csv").read_bytes()


def test_saved_checkpoints_reproduce_their_validation_scores(tmp_path):
    """Selection scores validation with the labeling rule the report scores
    the test split with: thresholded base probabilities, corrected labels."""
    # Large enough that the base scores above 0 and that the corrected
    # labels depend on the correction seed.
    cfg = tiny_config(n=1000, noise_rates=(0.0, 0.2), clean_epochs=3)
    cfg = override(cfg, base=dataclasses.replace(cfg.base, epochs=20),
                   lsnpc=dataclasses.replace(cfg.lsnpc, epochs=4))
    art = run_experiment(cfg, out_dir=tmp_path, quiet=True)
    ds = load_dataset(art.out_dir / "data" / "ds_s1.bin")
    checked = 0
    for nr in cfg.noise_rates:
        T = build_transition_matrix("sym", ds.k, nr) if nr > 0 else None
        val = split_dataset(ds, cfg.split_spec(1), T).splits["validation"]
        name = f"sym_{int(round(100 * nr))}_s1"
        h = load_base(art.out_dir / "base" / f"{name}.ckpt")
        assert micro_f1(val.Y, binarize(predict_probs(h, val.X), 0.5)) == \
            h.metadata["val_micro_f1"]
        corr = dataclasses.replace(cfg.correction, seed=1)
        for arm in ("unsup", "semi"):
            model = load_model(art.out_dir / "lsnpc" / f"{name}_{arm}.ckpt")
            assert micro_f1(val.Y, correct(model, h, val.X, corr).labels) == \
                model.metadata["best_val_micro_f1"]
            checked += 1
    assert checked == 4


def test_early_stage_skips_training(tmp_path):
    cfg = tiny_config()
    art = run_experiment(cfg, out_dir=tmp_path, stage="corrupt", quiet=True)
    assert art.rows == [] and art.report is None
    assert not (tmp_path / "base").exists()
    assert not (tmp_path / "lsnpc").exists()
    assert any(name.startswith("data/") for name in art.manifest)


def test_rerun_into_same_directory_keeps_the_full_manifest(tmp_path):
    cfg = tiny_config(seeds=(1, 2))
    first = run_experiment(cfg, out_dir=tmp_path, stage="corrupt", quiet=True)
    manifest = (tmp_path / "manifest.txt").read_bytes()
    second = run_experiment(cfg, out_dir=tmp_path, stage="corrupt", quiet=True)
    assert "noise/T_sym_40.csv" in first.manifest
    assert second.manifest == first.manifest
    assert (tmp_path / "manifest.txt").read_bytes() == manifest


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_experiment(tiny_config(), out_dir=tmp_path, stage="deploy")


def test_zero_rate_runs_one_kind_only(tmp_path):
    cfg = tiny_config(noise_kinds=("sym", "pair"), noise_rates=(0.0,),
                      paradigm="unsupervised")
    art = run_experiment(cfg, out_dir=tmp_path, quiet=True)
    assert {(r.setting, r.nr) for r in art.rows} == {("sym", 0.0)}


def test_stage_error_names_failing_stage(tmp_path):
    cfg = tiny_config(source=str(tmp_path / "missing.bin"))
    with pytest.raises(StageError, match="gen-data"):
        run_experiment(cfg, out_dir=tmp_path, quiet=True)
    # partial manifest still written for post-mortem
    assert (tmp_path / "manifest.txt").exists()


def test_late_failure_keeps_the_earlier_artifacts(tmp_path, monkeypatch):
    import lsnpc.experiment as exp

    def broken(*args, **kwargs):
        raise RuntimeError("lsnpc training broke")

    monkeypatch.setattr(exp, "train_semi_supervised", broken)
    cfg = tiny_config(noise_rates=(0.4,), paradigm="unsupervised")
    with pytest.raises(StageError, match="train-lsnpc") as info:
        run_experiment(cfg, out_dir=tmp_path, quiet=True)
    assert info.value.stage == "train-lsnpc"
    listed = {line.split()[0] for line in
              (tmp_path / "manifest.txt").read_text().splitlines()}
    assert listed == {"data/ds_s1.bin", "noise/T_sym_40.csv", "base/sym_40_s1.ckpt"}


def test_dataset_file_source_is_written_back_byte_identical(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=240, d=6, k=3, rank=3, seed=1))
    ds.metadata.update(scale=np.float64(0.25), missing=float("nan"))
    source = tmp_path / "source.bin"
    save_dataset(ds, source)
    art = run_experiment(tiny_config(source=str(source)), out_dir=tmp_path / "run",
                         stage="corrupt", quiet=True)
    assert art.manifest["data/ds_s1.bin"] == file_digest(source)


def test_correction_never_sees_test_truth(tmp_path, monkeypatch):
    """Flipping the held-back true test labels must not change correction bytes."""
    import lsnpc.experiment as exp
    import lsnpc.noise as noise_mod

    cfg = tiny_config(paradigm="unsupervised")
    honest = run_experiment(cfg, out_dir=tmp_path / "honest", quiet=True)

    real_split = noise_mod.split_dataset

    def scrambled(ds, spec, T=None):
        sp = real_split(ds, spec, T)
        sp.true_labels["test"] = 1 - sp.true_labels["test"]
        return sp

    monkeypatch.setattr(exp, "split_dataset", scrambled)
    tampered = run_experiment(cfg, out_dir=tmp_path / "tampered", quiet=True)

    corr = {k: v for k, v in honest.manifest.items() if k.startswith("correction/")}
    assert corr and {k: tampered.manifest[k] for k in corr} == corr
    # sanity: the scramble reached the scorer, so reported F1 moved
    assert tampered.manifest["report.csv"] != honest.manifest["report.csv"]


def test_ablation_pairs_arms_on_identical_inputs(tmp_path):
    cfg = tiny_config(noise_rates=(0.4,), paradigm="unsupervised")
    report = run_ablation(cfg, out_dir=tmp_path, quiet=True)
    methods = {row[2] for row in report.rows}
    assert {"LSNPC", "GAUSS", "baseline", "knn"} == methods
    # the Normal arm recomputes the Student arm's data and base model bytes
    for rel in ("data/ds_s1.bin", "base/sym_40_s1.ckpt"):
        assert file_digest(tmp_path / "LSNPC" / rel) == \
            file_digest(tmp_path / "GAUSS" / rel)
    assert (tmp_path / "ablation.csv").exists()
    assert (tmp_path / "ablation.txt").exists()


def test_sweep_covers_grid_and_learned_mode(tmp_path):
    cfg = tiny_config(noise_rates=(0.4,), paradigm="unsupervised",
                      sweep_nu0=(3.0,), sweep_nu=(4.0, "learned"))
    report = sweep_sensitivity(cfg, out_dir=tmp_path, quiet=True)
    settings = {row[0] for row in report.rows}
    assert settings == {"nu0=3 nu=4|sym", "nu0=3 nu=learned|sym"}
    report.lookup("nu0=3 nu=learned|sym", 0.4, "lsnpc", "micro_f1")
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_bad_values():
    # the sweep reads its grid from the config, which rejects a bad value
    cfg = tiny_config()
    with pytest.raises(ValueError, match="nu0"):
        override(cfg, sweep_nu0=(1.0,), sweep_nu=(4.0,))
    with pytest.raises(ValueError, match="nu value"):
        override(cfg, sweep_nu0=(3.0,), sweep_nu=("psychic",))


THEORY_TINY = TheoryConfig(instances=3, pairs=6, n_mc=2000, train_n=120,
                           train_epochs=1, base_epochs=2, m=2, nu=4.0,
                           noise_rate=0.3, seed=1)


@pytest.fixture(scope="module")
def theory_run(tmp_path_factory):
    """verify_all run from an empty working directory, which it must not touch."""
    out = tmp_path_factory.mktemp("theory_run")
    cwd = tmp_path_factory.mktemp("theory_cwd")
    cfg = tiny_config(theory=THEORY_TINY)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        report = verify_all(cfg, out_dir=out, quiet=True)
    return cfg, report, out, cwd


def test_verify_all_reports_five_sections(theory_run):
    _, report, out, cwd = theory_run
    names = [row[0] for row in report.rows]
    assert names == [
        "expected-vs-joint-kl",
        "encoder-constants",
        "student-affine-bound",
        "normal-quadratic-bound",
        "bernoulli-amortization",
    ]
    for name, instances, passes, margin in report.rows:
        assert 0 <= passes <= instances and np.isfinite(margin)
    # the amortization identity is exact regardless of scale
    amort = report.rows[-1]
    assert amort[2] == amort[1]
    # the trained models stay in memory: only the report is written
    assert list(cwd.iterdir()) == []
    assert sorted(p.name for p in out.iterdir()) == ["theory_report.csv", "theory_report.txt"]


def test_verify_all_is_deterministic(theory_run, tmp_path):
    cfg, report, *_ = theory_run
    again = verify_all(cfg, out_dir=tmp_path, quiet=True)
    assert again.to_csv() == report.to_csv()


def test_verify_all_draws_label_pairs_for_the_dataset_file_k(tmp_path):
    # The file has 4 labels while [data] k says 3: the pairs follow the file.
    ds, _ = generate_synthetic(GeneratorConfig(n=120, d=6, k=4, rank=3, seed=1))
    source = tmp_path / "k4.bin"
    save_dataset(ds, source)
    cfg = tiny_config(source=str(source), theory=THEORY_TINY)
    report = verify_all(cfg, out_dir=tmp_path / "out", quiet=True)
    rows = {row[0]: row for row in report.rows}
    for name in ("encoder-constants", "student-affine-bound", "normal-quadratic-bound"):
        assert rows[name][1] == THEORY_TINY.pairs


def test_verify_all_runs_on_two_labels(tmp_path):
    # the pair distances cycle through 1..min(3, k), so k = 2 can supply them
    cfg = tiny_config(k=2, rank=2, theory=THEORY_TINY)
    report = verify_all(cfg, out_dir=tmp_path, quiet=True)
    assert len(report.rows) == 5
    for name, instances, passes, margin in report.rows:
        assert 0 <= passes <= instances and np.isfinite(margin)


ONE_LABEL = dict(k=1, noise_rates=(0.0,),
                 theory=dataclasses.replace(THEORY_TINY, noise_rate=0.0))


def test_verify_all_rejects_one_label_before_the_quadrature(tmp_path, monkeypatch):
    # k = 1 puts every label pair at distance 1, and the normal-quadratic
    # slope needs two distances: fail before any instance or training runs.
    import lsnpc.experiment as exp

    def never(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(rngs, "cores", lambda: 1)  # a pool could not pickle ``never``
    monkeypatch.setattr(exp, "_theorem1_instance", never)
    monkeypatch.setattr(exp, "_train_base", never)
    with pytest.raises(ValueError, match="k = 1 labels"):
        verify_all(tiny_config(**ONE_LABEL), out_dir=tmp_path, quiet=True)
    assert list(tmp_path.iterdir()) == []


def test_theory_model_rejects_a_one_label_dataset_file_before_training(tmp_path,
                                                                       monkeypatch):
    import lsnpc.experiment as exp

    ds, _ = generate_synthetic(GeneratorConfig(n=240, d=6, k=1, rank=3, seed=1))
    source = tmp_path / "k1.bin"
    save_dataset(ds, source)
    monkeypatch.setattr(exp, "_train_base",
                        lambda *args: pytest.fail("the base classifier trained"))
    cfg = tiny_config(source=str(source), **ONE_LABEL)
    with pytest.raises(ValueError, match="k = 1 labels"):
        _trained_theory_model(cfg, "student", quiet=True)


def test_theory_model_trains_on_train_n_rows_of_a_dataset_file(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=600, d=6, k=3, rank=3, seed=1))
    source = tmp_path / "600.bin"
    save_dataset(ds, source)
    for cfg in (tiny_config(theory=THEORY_TINY),
                tiny_config(source=str(source), theory=THEORY_TINY)):
        _, X_train = _trained_theory_model(cfg, "student", quiet=True)
        assert X_train.shape[0] == 84  # 0.7 of train_n = 120


def test_theory_model_rejects_a_dataset_file_shorter_than_train_n(tmp_path):
    ds, _ = generate_synthetic(GeneratorConfig(n=100, d=6, k=3, rank=3, seed=1))
    source = tmp_path / "100.bin"
    save_dataset(ds, source)
    cfg = tiny_config(source=str(source), theory=THEORY_TINY)
    with pytest.raises(ValueError, match="100 rows, fewer than .* train_n = 120"):
        _trained_theory_model(cfg, "student", quiet=True)


# ---------------------------------------------------------------------------
# Worker pool: rngs.fan_out, patched to 1 or 2 workers through rngs.cores


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _pid(unit):
    return os.getpid()


def _unit_fails(unit):
    raise ValueError(f"unit {unit} failed")


def _blas_threads(unit):
    """Thread counts of the OpenBLAS libraries this process has mapped."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                counts.append(getter())
    return counts


def test_fan_out_workers_run_blas_on_one_thread(monkeypatch):
    before = _blas_threads(None)
    if not before:
        pytest.skip("no OpenBLAS mapped in this process")
    monkeypatch.setattr(rngs, "cores", lambda: 2)
    with rngs.fan_out(_blas_threads, range(2)) as counts:
        assert list(counts) == [[1] * len(before)] * 2
    # the parent keeps its own count
    assert _blas_threads(None) == before


def test_fan_out_runs_in_process_with_one_worker(monkeypatch):
    monkeypatch.setattr(rngs, "cores", lambda: 1)
    with rngs.fan_out(_pid, range(4)) as pids:
        assert list(pids) == [os.getpid()] * 4
        assert multiprocessing.active_children() == []


def test_fan_out_caps_the_pool_at_the_unit_count(monkeypatch):
    monkeypatch.setattr(rngs, "cores", lambda: 64)
    with rngs.fan_out(_pid, range(3)) as pids:
        pids = list(pids)
        assert len(multiprocessing.active_children()) == 3
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_fan_out_leaves_no_process_behind_on_failure(monkeypatch):
    monkeypatch.setattr(rngs, "cores", lambda: 2)
    with pytest.raises(ValueError, match="unit 0 failed"):
        with rngs.fan_out(_unit_fails, range(4)) as results:
            list(results)
    assert multiprocessing.active_children() == []
    with pytest.raises(KeyError):
        with rngs.fan_out(_pid, range(6)) as pids:
            next(pids)
            raise KeyError("the caller failed")
    assert multiprocessing.active_children() == []


def test_smoke_manifest_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = load_config(CONFIGS / "smoke.ini")
    manifests = []
    for workers in (1, 2):
        monkeypatch.setattr(rngs, "cores", lambda: workers)
        art = run_experiment(cfg, out_dir=tmp_path / str(workers), quiet=True)
        assert len({(r.setting, r.nr) for r in art.rows}) == 2
        manifests.append((art.out_dir / "manifest.txt").read_bytes())
        assert multiprocessing.active_children() == []
    assert manifests[0] == manifests[1]


def test_verify_all_report_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = tiny_config(theory=THEORY_TINY)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(rngs, "cores", lambda: workers)
        verify_all(cfg, out_dir=tmp_path / str(workers), quiet=True)
        reports.append((tmp_path / str(workers) / "theory_report.csv").read_bytes())
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]


def test_worker_failure_names_the_cell_stage(tmp_path, monkeypatch):
    import lsnpc.experiment as exp

    parent = os.getpid()

    def broken(*args, **kwargs):
        raise RuntimeError(f"base training broke in process {os.getpid()}")

    monkeypatch.setattr(exp, "train_base", broken)
    monkeypatch.setattr(rngs, "cores", lambda: 2)
    cfg = tiny_config(noise_rates=(0.4,), seeds=(1, 2))
    with pytest.raises(StageError, match="train-base") as info:
        run_experiment(cfg, out_dir=tmp_path, quiet=True)
    assert info.value.stage == "train-base"
    assert str(parent) not in str(info.value.cause)
    # the worker's traceback survives the trip to the parent
    assert "in broken" in str(info.value.cause.__cause__)
    listed = {line.split()[0] for line in
              (tmp_path / "manifest.txt").read_text().splitlines()}
    assert listed == {"data/ds_s1.bin", "data/ds_s2.bin", "noise/T_sym_40.csv"}
    assert multiprocessing.active_children() == []
