"""INI experiment configuration: parsing, validation, defaults.

Every recognized section and key is listed in ``SCHEMA`` below; an unknown
section or key raises ConfigError rather than being silently ignored.  All
keys are optional and fall back to the defaults in ``ExperimentConfig``.

Schema (defaults in parentheses):

[data]        source (synthetic | path to a binary dataset file written by
              datagen.save_dataset), n (2000), d (32), k (10), rank (8),
              noise_scale (0.5), b_loc (-2.0), b_scale (0.5)
[split]       train (0.7), validation (0.1), clean (0.035), test (0.165)
[noise]       kinds (sym,pair), rates (0.0,0.3,0.4,0.5)
[model]       m (16), nu (2.01), nu0 (2.01), beta (0.01), eta (0.5),
              proposal (student | normal), nu_mode (fixed | learned),
              embed_hidden (64), embed_dim (128), encoder_hidden (64),
              decoder_hidden (128), shift_hidden (64), sigma_bias_init (-2.0)
[base]        lr (1e-3), epochs (50), batch_size (32), optimizer (adamw),
              weight_decay (0.01), hidden (64,64)
[lsnpc]       lr (2e-3), epochs (20), clean_epochs (5), batch_size (32),
              optimizer (adamw), weight_decay (0.01), s_y (4), s_z (1)
[correction]  s_y (8), s_zhat (4), s_z (1), tau (0.5)
[run]         paradigm (unsupervised | semi-supervised), seeds (1,2,3,4,5),
              out (runs), knn_k (5)
[sweep]       nu0_values (2.01,3.0,4.0), nu_values (2.01,4.0,learned)
[theory]      instances (50), pairs (200), n_mc (100000), train_n (400),
              train_epochs (6), base_epochs (10), m (4), nu (4.0),
              noise_rate (0.3), seed (1)
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from .baseclf import BaseTrainConfig
from .correction import CorrectionConfig
from .datagen import GeneratorConfig
from .model import NU_MODES, PROPOSALS, LsnpcTrainConfig, ModelConfig
from .noise import KINDS

__all__ = ["ConfigError", "ExperimentConfig", "TheoryConfig", "load_config", "parse_config"]

PARADIGMS = ("unsupervised", "semi-supervised")


class ConfigError(ValueError):
    """A configuration file is malformed or violates the schema."""


@dataclass(frozen=True)
class TheoryConfig:
    """Sizes for the in-place trained model behind the bound checks."""

    instances: int = 50
    pairs: int = 200
    n_mc: int = 100_000
    train_n: int = 400
    train_epochs: int = 6
    base_epochs: int = 10
    m: int = 4
    nu: float = 4.0
    noise_rate: float = 0.3
    seed: int = 1

    def __post_init__(self):
        if min(self.instances, self.pairs, self.n_mc, self.train_n) < 1:
            raise ConfigError("theory sizes must be positive")
        if not self.nu > 2:
            raise ConfigError("theory nu must exceed 2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run depends on besides the seed."""

    source: str = "synthetic"
    n: int = 2000
    d: int = 32
    k: int = 10
    rank: int = 8
    noise_scale: float = 0.5
    b_loc: float = -2.0
    b_scale: float = 0.5
    split_fractions: tuple[float, float, float, float] = (0.7, 0.1, 0.035, 0.165)
    noise_kinds: tuple[str, ...] = ("sym", "pair")
    noise_rates: tuple[float, ...] = (0.0, 0.3, 0.4, 0.5)
    m: int = 16
    nu: float = 2.01
    nu0: float = 2.01
    beta: float = 0.01
    eta: float = 0.5
    proposal: str = "student"
    nu_mode: str = "fixed"
    embed_hidden: int = 64
    embed_dim: int = 128
    encoder_hidden: tuple[int, ...] = (64,)
    decoder_hidden: tuple[int, ...] = (128,)
    shift_hidden: tuple[int, ...] = (64,)
    sigma_bias_init: float = -2.0
    base: BaseTrainConfig = field(default_factory=BaseTrainConfig)
    lsnpc: LsnpcTrainConfig = field(default_factory=LsnpcTrainConfig)
    clean_epochs: int = 5
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    paradigm: str = "unsupervised"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    out_dir: str = "runs"
    knn_k: int = 5
    sweep_nu0: tuple = (2.01, 3.0, 4.0)
    sweep_nu: tuple = (2.01, 4.0, "learned")
    theory: TheoryConfig = field(default_factory=TheoryConfig)

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("need at least one seed")
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"paradigm must be one of {PARADIGMS}")
        for kind in self.noise_kinds:
            if kind not in KINDS:
                raise ConfigError(f"unknown noise kind {kind!r}")
        for nr in self.noise_rates:
            if not 0.0 <= nr < 1.0:
                raise ConfigError(f"noise rate {nr} outside [0, 1)")
        if len(self.split_fractions) != 4:
            raise ConfigError("split needs train, validation, clean, test fractions")
        if self.clean_epochs < 1:
            raise ConfigError("clean_epochs must be >= 1")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        for v in self.sweep_nu0:
            if not (isinstance(v, float) and v > 2):
                raise ConfigError("sweep nu0 values must be numbers > 2")
        for v in self.sweep_nu:
            if v != "learned" and not (isinstance(v, float) and v > 2):
                raise ConfigError("sweep nu values must be > 2 or 'learned'")
        try:
            self.model_config(self.d, self.k)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def generator_config(self, seed: int) -> GeneratorConfig:
        return GeneratorConfig(
            n=self.n,
            d=self.d,
            k=self.k,
            rank=self.rank,
            noise_scale=self.noise_scale,
            b_loc=self.b_loc,
            b_scale=self.b_scale,
            seed=seed,
        )

    def model_config(self, d: int, k: int, **overrides) -> ModelConfig:
        kwargs = dict(
            d=d,
            k=k,
            m=self.m,
            nu=self.nu,
            nu0=self.nu0,
            beta=self.beta,
            eta=self.eta,
            proposal=self.proposal,
            nu_mode=self.nu_mode,
            embed_hidden=self.embed_hidden,
            embed_dim=self.embed_dim,
            encoder_hidden=self.encoder_hidden,
            decoder_hidden=self.decoder_hidden,
            shift_hidden=self.shift_hidden,
            sigma_bias_init=self.sigma_bias_init,
        )
        kwargs.update(overrides)
        return ModelConfig(**kwargs)


# --------------------------------------------------------------------------
# Parsing

def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _strings(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _nu_values(raw: str) -> tuple:
    out = []
    for part in _strings(raw):
        out.append("learned" if part == "learned" else float(part))
    return tuple(out)


# section -> key -> (target field path, converter)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "data": {
        "source": ("source", str),
        "n": ("n", int),
        "d": ("d", int),
        "k": ("k", int),
        "rank": ("rank", int),
        "noise_scale": ("noise_scale", float),
        "b_loc": ("b_loc", float),
        "b_scale": ("b_scale", float),
    },
    "split": {
        "train": ("split.0", float),
        "validation": ("split.1", float),
        "clean": ("split.2", float),
        "test": ("split.3", float),
    },
    "noise": {
        "kinds": ("noise_kinds", _strings),
        "rates": ("noise_rates", _floats),
    },
    "model": {
        "m": ("m", int),
        "nu": ("nu", float),
        "nu0": ("nu0", float),
        "beta": ("beta", float),
        "eta": ("eta", float),
        "proposal": ("proposal", str),
        "nu_mode": ("nu_mode", str),
        "embed_hidden": ("embed_hidden", int),
        "embed_dim": ("embed_dim", int),
        "encoder_hidden": ("encoder_hidden", _ints),
        "decoder_hidden": ("decoder_hidden", _ints),
        "shift_hidden": ("shift_hidden", _ints),
        "sigma_bias_init": ("sigma_bias_init", float),
    },
    "base": {
        "lr": ("base.lr", float),
        "epochs": ("base.epochs", int),
        "batch_size": ("base.batch_size", int),
        "optimizer": ("base.optimizer", str),
        "weight_decay": ("base.weight_decay", float),
        "hidden": ("base.hidden", _ints),
    },
    "lsnpc": {
        "lr": ("lsnpc.lr", float),
        "epochs": ("lsnpc.epochs", int),
        "clean_epochs": ("clean_epochs", int),
        "batch_size": ("lsnpc.batch_size", int),
        "optimizer": ("lsnpc.optimizer", str),
        "weight_decay": ("lsnpc.weight_decay", float),
        "s_y": ("lsnpc.s_y", int),
        "s_z": ("lsnpc.s_z", int),
    },
    "correction": {
        "s_y": ("correction.s_y", int),
        "s_zhat": ("correction.s_zhat", int),
        "s_z": ("correction.s_z", int),
        "tau": ("correction.tau", float),
    },
    "run": {
        "paradigm": ("paradigm", str),
        "seeds": ("seeds", _ints),
        "out": ("out_dir", str),
        "knn_k": ("knn_k", int),
    },
    "sweep": {
        "nu0_values": ("sweep_nu0", _floats),
        "nu_values": ("sweep_nu", _nu_values),
    },
    "theory": {
        "instances": ("theory.instances", int),
        "pairs": ("theory.pairs", int),
        "n_mc": ("theory.n_mc", int),
        "train_n": ("theory.train_n", int),
        "train_epochs": ("theory.train_epochs", int),
        "base_epochs": ("theory.base_epochs", int),
        "m": ("theory.m", int),
        "nu": ("theory.nu", float),
        "noise_rate": ("theory.noise_rate", float),
        "seed": ("theory.seed", int),
    },
}

_SUB_CONFIGS = {
    "base": (BaseTrainConfig, "base"),
    "lsnpc": (LsnpcTrainConfig, "lsnpc"),
    "correction": (CorrectionConfig, "correction"),
    "theory": (TheoryConfig, "theory"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into an ExperimentConfig; reject anything off-schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    top: dict[str, object] = {}
    sub: dict[str, dict[str, object]] = {name: {} for name in _SUB_CONFIGS}
    split = list(ExperimentConfig.__dataclass_fields__["split_fractions"].default)

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        keys = SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            target, convert = keys[key]
            try:
                value = convert(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"[{section}] {key}: {e}") from None
            if target.startswith("split."):
                split[int(target.split(".", 1)[1])] = value
            elif "." in target:
                prefix, fname = target.split(".", 1)
                sub[prefix][fname] = value
            else:
                top[target] = value

    kwargs = dict(top)
    kwargs["split_fractions"] = tuple(split)
    for prefix, (cls, fname) in _SUB_CONFIGS.items():
        if sub[prefix]:
            try:
                kwargs[fname] = cls(**sub[prefix])
            except (ValueError, TypeError) as e:
                raise ConfigError(f"[{prefix}]: {e}") from None
    try:
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def override(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """dataclasses.replace that keeps ConfigError semantics."""
    try:
        return dataclasses.replace(cfg, **changes)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None
