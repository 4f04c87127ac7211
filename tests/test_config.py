"""INI parsing, schema enforcement, and config validation."""

import dataclasses

import pytest

from lsnpc.baseclf import BaseTrainConfig
from lsnpc.config import (
    ConfigError,
    ExperimentConfig,
    TheoryConfig,
    load_config,
    override,
    parse_config,
)
from lsnpc.correction import CorrectionConfig
from lsnpc.model import LsnpcTrainConfig


def test_empty_text_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_full_round_trip_across_sections():
    # every accepted key, each set away from its default
    text = """
[data]
source = elsewhere/ds.bin
n = 500
d = 16
k = 6
rank = 4
noise_scale = 0.25
b_loc = -1.5
b_scale = 0.75

[split]
train = 0.6
validation = 0.15
clean = 0.05
test = 0.2

[noise]
kinds = pair
rates = 0.0, 0.3

[model]
m = 8
nu = 3.5
nu0 = 3.0
beta = 0.02
eta = 0.25
proposal = normal
nu_mode = learned
embed_hidden = 32
embed_dim = 48
encoder_hidden = 32, 32
decoder_hidden = 96
shift_hidden = 16
sigma_bias_init = -1.0

[base]
lr = 0.01
epochs = 7
batch_size = 16
optimizer = sgd
weight_decay = 0.0
hidden = 16,16

[lsnpc]
lr = 0.005
epochs = 9
clean_epochs = 2
batch_size = 64
optimizer = SGD
weight_decay = 0.001
s_y = 2
s_z = 3

[correction]
s_y = 4
s_zhat = 6
s_z = 2
tau = 0.4

[run]
paradigm = semi-supervised
seeds = 3, 7
out = elsewhere/runs
knn_k = 3

[sweep]
nu0_values = 2.5, 3
nu_values = 2.5, learned

[theory]
instances = 5
pairs = 20
n_mc = 1000
train_n = 100
train_epochs = 2
base_epochs = 3
m = 2
nu = 6.0
noise_rate = 0.2
seed = 4
"""
    cfg = parse_config(text)
    assert cfg == ExperimentConfig(
        source="elsewhere/ds.bin", n=500, d=16, k=6, rank=4, noise_scale=0.25,
        b_loc=-1.5, b_scale=0.75, split_fractions=(0.6, 0.15, 0.05, 0.2),
        noise_kinds=("pair",), noise_rates=(0.0, 0.3), m=8, nu=3.5, nu0=3.0,
        beta=0.02, eta=0.25, proposal="normal", nu_mode="learned", embed_hidden=32,
        embed_dim=48, encoder_hidden=(32, 32), decoder_hidden=(96,), shift_hidden=(16,),
        sigma_bias_init=-1.0,
        base=BaseTrainConfig(lr=0.01, epochs=7, batch_size=16, optimizer="sgd",
                             weight_decay=0.0, hidden=(16, 16)),
        lsnpc=LsnpcTrainConfig(lr=0.005, epochs=9, batch_size=64, optimizer="SGD",
                               weight_decay=0.001, s_y=2, s_z=3),
        clean_epochs=2,
        correction=CorrectionConfig(s_y=4, s_zhat=6, s_z=2, tau=0.4),
        paradigm="semi-supervised", seeds=(3, 7), out_dir="elsewhere/runs", knn_k=3,
        sweep_nu0=(2.5, 3.0), sweep_nu=(2.5, "learned"),
        theory=TheoryConfig(instances=5, pairs=20, n_mc=1000, train_n=100, train_epochs=2,
                            base_epochs=3, m=2, nu=6.0, noise_rate=0.2, seed=4),
    )
    # so every field is reachable from the INI text, except the per-cell
    # seed, which stays at its default
    default = ExperimentConfig()
    for f in dataclasses.fields(cfg):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    for section in ("base", "lsnpc", "correction", "theory"):
        sub, sub_default = getattr(cfg, section), getattr(default, section)
        for f in dataclasses.fields(sub):
            per_cell = section != "theory" and f.name == "seed"
            assert (getattr(sub, f.name) == getattr(sub_default, f.name)) == per_cell, \
                f"[{section}] {f.name}"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config("[extras]\nfoo = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown key 'momentum' in \[base\]"):
        parse_config("[base]\nmomentum = 0.9\n")
    # the pipeline sets each cell's seed
    for section, key in (("base", "seed"), ("lsnpc", "seed"), ("correction", "seed")):
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
            parse_config(f"[{section}]\n{key} = 1\n")


def test_converter_error_names_section_and_key():
    with pytest.raises(ConfigError, match=r"\[model\] m:"):
        parse_config("[model]\nm = eight\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config("key_without_section = 1\n")


def test_sub_config_validation_carries_section_name():
    with pytest.raises(ConfigError, match=r"\[lsnpc\]"):
        parse_config("[lsnpc]\ns_y = 0\n")
    with pytest.raises(ConfigError, match=r"\[correction\]"):
        parse_config("[correction]\ntau = 1.5\n")
    with pytest.raises(ConfigError, match=r"\[lsnpc\]: epochs must be >= 0"):
        parse_config("[lsnpc]\nepochs = -1\n")
    for section in ("base", "lsnpc"):
        with pytest.raises(ConfigError, match=rf"\[{section}\]: unknown optimizer 'sgdd'"):
            parse_config(f"[{section}]\noptimizer = sgdd\n")


def test_top_level_validation_applies_to_parsed_text():
    with pytest.raises(ConfigError):
        parse_config("[run]\nparadigm = oracle\n")
    with pytest.raises(ConfigError, match="noise kind"):
        parse_config("[noise]\nkinds = sym, flipflop\n")
    with pytest.raises(ConfigError, match="noise rate"):
        parse_config("[noise]\nrates = 0.3, 1.0\n")
    # model shape validation is re-checked at the experiment level
    with pytest.raises(ConfigError):
        parse_config("[model]\nm = 0\n")
    # and so are the generator and the split, before any data is made
    with pytest.raises(ConfigError, match="rank must not exceed"):
        parse_config("[data]\nrank = 40\n")
    with pytest.raises(ConfigError, match="split fractions must sum to 1"):
        parse_config("[split]\ntrain = 0.9\n")
    # n = 12 leaves the clean split without a row
    with pytest.raises(ConfigError, match="degenerate split sizes for n=12"):
        parse_config("[data]\nn = 12\nd = 4\nk = 3\nrank = 2\n")
    # verify_all's training sizes are checked before any check runs
    with pytest.raises(ConfigError, match="degenerate split sizes for n=12"):
        parse_config("[theory]\ntrain_n = 12\n")
    # for a dataset file too, whose leading train_n rows verify_all trains on
    with pytest.raises(ConfigError, match="degenerate split sizes for n=12"):
        parse_config("[data]\nsource = ds.bin\n[theory]\ntrain_n = 12\n")
    with pytest.raises(ConfigError, match="theory m"):
        parse_config("[theory]\nm = 0\n")
    with pytest.raises(ConfigError, match="theory noise rate"):
        parse_config("[theory]\nnoise_rate = 1.5\n")
    # a dataset file does not use the generator settings
    assert parse_config("[data]\nsource = ds.bin\nrank = 40\n").rank == 40
    # a repeated value would train and score its cell twice
    for section, key, body in (("run", "seeds", "1, 1"), ("noise", "rates", "0.3, 0.3"),
                               ("noise", "kinds", "sym, sym")):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} repeats"):
            parse_config(f"[{section}]\n{key} = {body}\n")


# An empty list would run nothing, a width below 1 builds no layer, and the
# encoder needs a hidden layer; each fails at parse time.
BAD_LISTS_AND_WIDTHS = {
    "empty-kinds": ("[noise]\nkinds =\n", r"\[noise\] kinds needs at least one value"),
    "empty-rates": ("[noise]\nrates =\n", r"\[noise\] rates needs at least one value"),
    "empty-nu0": ("[sweep]\nnu0_values =\n", r"\[sweep\] nu0_values needs at least one value"),
    "empty-nu": ("[sweep]\nnu_values =\n", r"\[sweep\] nu_values needs at least one value"),
    "empty-encoder": ("[model]\nencoder_hidden =\n", "encoder_hidden needs at least one layer"),
    "zero-encoder": ("[model]\nencoder_hidden = 8, 0\n",
                     r"encoder_hidden needs layer widths >= 1, got \(8, 0\)"),
    "negative-decoder": ("[model]\ndecoder_hidden = -3\n",
                         r"decoder_hidden needs layer widths >= 1, got \(-3,\)"),
    "zero-shift": ("[model]\nshift_hidden = 0\n", "shift_hidden needs layer widths >= 1"),
    "zero-embed-hidden": ("[model]\nembed_hidden = 0\n",
                          "embed_hidden needs layer widths >= 1, got 0"),
    "negative-embed-dim": ("[model]\nembed_dim = -1\n",
                           "embed_dim needs layer widths >= 1, got -1"),
    "zero-base-hidden": ("[base]\nhidden = 0\n",
                         r"\[base\]: hidden needs layer widths >= 1, got \(0,\)"),
}


@pytest.mark.parametrize("case", sorted(BAD_LISTS_AND_WIDTHS))
def test_empty_lists_and_non_positive_widths_are_rejected(case):
    text, message = BAD_LISTS_AND_WIDTHS[case]
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_empty_hidden_lists_give_linear_maps():
    cfg = parse_config("[model]\ndecoder_hidden =\nshift_hidden =\n[base]\nhidden =\n")
    assert cfg.decoder_hidden == cfg.shift_hidden == cfg.base.hidden == ()


def test_sweep_values_parse_and_validate():
    cfg = parse_config("[sweep]\nnu_values = 4.0, learned\nnu0_values = 2.5, 3.0\n")
    assert cfg.sweep_nu == (4.0, "learned")
    assert cfg.sweep_nu0 == (2.5, 3.0)
    with pytest.raises(ConfigError, match="sweep nu values"):
        parse_config("[sweep]\nnu_values = 1.5\n")
    with pytest.raises(ConfigError, match="sweep nu0 values"):
        parse_config("[sweep]\nnu0_values = 2.0\n")
    # ints are numbers too, as sweep_sensitivity's arguments
    assert ExperimentConfig(sweep_nu0=(3,), sweep_nu=(4, "learned")).sweep_nu0 == (3,)
    # a repeat, compared as a number, would re-run one sweep cell
    for key, body in (("nu0_values", "3, 3.0"), ("nu_values", "4.0, learned, 4"),
                      ("nu_values", "learned, learned")):
        with pytest.raises(ConfigError, match=rf"\[sweep\] {key} repeats"):
            parse_config(f"[sweep]\n{key} = {body}\n")
    with pytest.raises(ConfigError, match="nu0_values repeats"):
        ExperimentConfig(sweep_nu0=(3, 3.0))


def test_theory_config_validation():
    with pytest.raises(ConfigError, match="nu must exceed 2"):
        TheoryConfig(nu=2.0)
    with pytest.raises(ConfigError, match="positive"):
        TheoryConfig(pairs=0)


def test_negative_seeds_are_rejected():
    with pytest.raises(ConfigError, match="none negative"):
        parse_config("[run]\nseeds = 1, -1\n")
    with pytest.raises(ConfigError, match="theory seed must be non-negative"):
        parse_config("[theory]\nseed = -3\n")


def test_label_noise_needs_two_synthetic_labels():
    one = "[data]\nk = 1\n"
    # a positive [noise] rate, or the [theory] rate alone (0.3 by default)
    for body in ("[noise]\nrates = 0.0, 0.3\n[theory]\nnoise_rate = 0.0\n",
                 "[noise]\nrates = 0.0\n"):
        with pytest.raises(ConfigError, match="at least 2 labels, got k=1"):
            parse_config(one + body)
    assert parse_config(one + "[noise]\nrates = 0.0\n[theory]\nnoise_rate = 0.0\n").k == 1
    # a dataset file's label count is known only once the file is read
    assert parse_config("[data]\nsource = ds.bin\nk = 1\n").k == 1


def test_experiment_config_direct_validation():
    with pytest.raises(ConfigError, match="at least one seed"):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError, match="clean_epochs"):
        ExperimentConfig(clean_epochs=0)
    with pytest.raises(ConfigError, match="knn_k"):
        ExperimentConfig(knn_k=0)
    with pytest.raises(ConfigError, match="train, validation, clean, test"):
        ExperimentConfig(split_fractions=(0.8, 0.1, 0.1))


def test_generator_and_model_config_builders():
    cfg = ExperimentConfig(n=100, d=8, k=3, rank=2, noise_scale=0.1, m=4)
    gc = cfg.generator_config(seed=9)
    assert (gc.n, gc.d, gc.k, gc.rank, gc.noise_scale, gc.seed) == (100, 8, 3, 2, 0.1, 9)
    mc = cfg.model_config(8, 3)
    assert (mc.d, mc.k, mc.m) == (8, 3, 4)
    assert mc.sigma_bias_init == cfg.sigma_bias_init


def test_override_replaces_and_validates():
    cfg = ExperimentConfig()
    assert override(cfg, knn_k=7).knn_k == 7
    with pytest.raises(ConfigError):
        override(cfg, paradigm="psychic")


def test_load_config_reads_file_and_reports_missing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseeds = 42\n")
    assert load_config(path).seeds == (42,)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_shipped_configs_parse():
    import pathlib

    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    cfg = load_config(configs / "default.ini")
    # the benchmark file runs both arms but must keep the pinned hyperparameters
    assert cfg.paradigm == "semi-supervised"
    assert (cfg.m, cfg.nu, cfg.nu0, cfg.beta, cfg.eta) == (16, 2.01, 2.01, 0.01, 0.5)
    assert cfg.seeds == (1, 2, 3, 4, 5)
    assert cfg.noise_rates == (0.0, 0.3, 0.4, 0.5)
    for name in ("smoke.ini", "theory.ini"):
        load_config(configs / name)


def test_configs_are_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.m = 4
