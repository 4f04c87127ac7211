"""INI experiment configuration: parsing, validation, defaults.

[base], [lsnpc], [correction] and [theory] take the fields of their
sub-config, less the ``seed`` that the pipeline sets per cell; ``SCHEMA`` and
``SPLIT_KEYS`` name every other key.  Each value is converted by its field's
type hint.  An unknown section or key, or a value that the config
dataclasses reject, raises ConfigError when the text is parsed.  All keys
are optional and fall back to the defaults in ``ExperimentConfig``.

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
[base]        lr (1e-3), epochs (50), batch_size (32), optimizer (adamw | sgd),
              weight_decay (0.01), hidden (64,64)
[lsnpc]       lr (2e-3), epochs (20), clean_epochs (5), batch_size (32),
              optimizer (adamw | sgd), weight_decay (0.01), s_y (4), s_z (1)
[correction]  s_y (8), s_zhat (4), s_z (1), tau (0.5)
[run]         paradigm (unsupervised | semi-supervised), seeds (1,2,3,4,5),
              out (runs), knn_k (5)
[sweep]       nu0_values (2.01,3.0,4.0), nu_values (2.01,4.0,learned)
[theory]      instances (50), pairs (200), n_mc (100000), train_n (400),
              train_epochs (6), base_epochs (10), m (4), nu (4.0),
              noise_rate (0.3), seed (1)

Seeds are non-negative, and a synthetic k must be >= 2 when any [noise] or
[theory] noise rate is positive.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from .baseclf import BaseTrainConfig
from .correction import CorrectionConfig
from .datagen import GeneratorConfig
from .model import LsnpcTrainConfig, ModelConfig
from .noise import KINDS, SplitSpec

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
        if self.m < 1:
            raise ConfigError("theory m must be >= 1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"theory noise rate {self.noise_rate} outside [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"theory seed must be non-negative, got {self.seed}")


# The GeneratorConfig and ModelConfig fields that [data] and [model] set.
DATA_FIELDS = ("n", "d", "k", "rank", "noise_scale", "b_loc", "b_scale")
MODEL_FIELDS = ("m", "nu", "nu0", "beta", "eta", "proposal", "nu_mode", "embed_hidden",
                "embed_dim", "encoder_hidden", "decoder_hidden", "shift_hidden",
                "sigma_bias_init")


def _above_2(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run depends on besides the seed."""

    source: str = "synthetic"
    n: int = GeneratorConfig.n
    d: int = GeneratorConfig.d
    k: int = GeneratorConfig.k
    rank: int = GeneratorConfig.rank
    noise_scale: float = GeneratorConfig.noise_scale
    b_loc: float = GeneratorConfig.b_loc
    b_scale: float = GeneratorConfig.b_scale
    split_fractions: tuple[float, float, float, float] = (0.7, 0.1, 0.035, 0.165)
    noise_kinds: tuple[str, ...] = ("sym", "pair")
    noise_rates: tuple[float, ...] = (0.0, 0.3, 0.4, 0.5)
    m: int = ModelConfig.m
    nu: float = ModelConfig.nu
    nu0: float = ModelConfig.nu0
    beta: float = ModelConfig.beta
    eta: float = ModelConfig.eta
    proposal: str = ModelConfig.proposal
    nu_mode: str = ModelConfig.nu_mode
    embed_hidden: int = ModelConfig.embed_hidden
    embed_dim: int = ModelConfig.embed_dim
    encoder_hidden: tuple[int, ...] = ModelConfig.encoder_hidden
    decoder_hidden: tuple[int, ...] = ModelConfig.decoder_hidden
    shift_hidden: tuple[int, ...] = ModelConfig.shift_hidden
    sigma_bias_init: float = ModelConfig.sigma_bias_init
    base: BaseTrainConfig = field(default_factory=BaseTrainConfig)
    lsnpc: LsnpcTrainConfig = field(default_factory=LsnpcTrainConfig)
    clean_epochs: int = 5
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    paradigm: str = "unsupervised"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    out_dir: str = "runs"
    knn_k: int = 5
    sweep_nu0: tuple[float, ...] = (2.01, 3.0, 4.0)
    sweep_nu: tuple = (2.01, 4.0, "learned")
    theory: TheoryConfig = field(default_factory=TheoryConfig)

    def __post_init__(self):
        if len(self.seeds) < 1 or min(self.seeds) < 0:
            raise ConfigError(f"need at least one seed, none negative; got {self.seeds}")
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
        if not all(map(_above_2, self.sweep_nu0)):
            raise ConfigError("sweep nu0 values must be numbers > 2")
        if not all(v == "learned" or _above_2(v) for v in self.sweep_nu):
            raise ConfigError("sweep nu values must be > 2 or 'learned'")
        # An empty list runs nothing, and a repeat would train and score a
        # cell twice; numbers compare by value, so 3 and 3.0 are one sweep value.
        for key, values in (("[run] seeds", self.seeds), ("[noise] kinds", self.noise_kinds),
                            ("[noise] rates", self.noise_rates),
                            ("[sweep] nu0_values", self.sweep_nu0),
                            ("[sweep] nu_values", self.sweep_nu)):
            if not values:
                raise ConfigError(f"{key} needs at least one value")
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats a value: {values}")
        try:
            self.model_config(self.d, self.k)
            spec = self.split_spec(0)
            if self.source == "synthetic":
                self.generator_config(0)
                spec.sizes(self.n)
                if self.k < 2 and max((*self.noise_rates, self.theory.noise_rate)) > 0:
                    raise ConfigError(f"label noise needs at least 2 labels, got k={self.k}")
            spec.sizes(self.theory.train_n)  # verify_all's training split
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def generator_config(self, seed: int) -> GeneratorConfig:
        return GeneratorConfig(seed=seed, **{name: getattr(self, name) for name in DATA_FIELDS})

    def model_config(self, d: int, k: int) -> ModelConfig:
        return ModelConfig(d=d, k=k, **{name: getattr(self, name) for name in MODEL_FIELDS})

    def split_spec(self, seed: int) -> SplitSpec:
        train, validation, clean, test = self.split_fractions
        return SplitSpec(train=train, validation=validation, test=test, clean=clean, seed=seed)


# --------------------------------------------------------------------------
# Parsing


def _converter(hint):
    """Parses an INI value into a field typed ``hint``: ``tuple[T, ...]``
    splits on commas and converts each part with T; any other type converts
    the whole text, so ``int`` rejects ``2.5``."""
    if get_origin(hint) is not tuple:
        return hint
    item = get_args(hint)[0]
    return lambda raw: tuple(item(part.strip()) for part in raw.split(",") if part.strip())


def _nu_values(raw: str) -> tuple:
    return tuple(v if v == "learned" else float(v) for v in _converter(tuple[str, ...])(raw))


# Keys that set an ExperimentConfig field: section -> key -> field.
SCHEMA: dict[str, dict[str, str]] = {
    "data": {name: name for name in ("source", *DATA_FIELDS)},
    "noise": {"kinds": "noise_kinds", "rates": "noise_rates"},
    "model": {name: name for name in MODEL_FIELDS},
    "lsnpc": {"clean_epochs": "clean_epochs"},
    "run": {"paradigm": "paradigm", "seeds": "seeds", "out": "out_dir", "knn_k": "knn_k"},
    "sweep": {"nu0_values": "sweep_nu0", "nu_values": "sweep_nu"},
}
# [split] keys, in the order of ExperimentConfig.split_fractions.
SPLIT_KEYS = ("train", "validation", "clean", "test")
# Sections that also take the fields of a sub-config, less the seed that the
# pipeline sets per cell.
SUB_SECTIONS = {
    "base": (BaseTrainConfig, ("seed",)),
    "lsnpc": (LsnpcTrainConfig, ("seed",)),
    "correction": (CorrectionConfig, ("seed",)),
    "theory": (TheoryConfig, ()),
}


def _keys() -> dict[str, dict[str, tuple]]:
    """section -> key -> (owner, field or split index, converter); the owner
    is "" for an ExperimentConfig field, "split", or a SUB_SECTIONS name."""
    top = get_type_hints(ExperimentConfig)
    keys = {section: {key: ("", name, _nu_values if name == "sweep_nu" else _converter(top[name]))
                      for key, name in table.items()} for section, table in SCHEMA.items()}
    keys["split"] = {key: ("split", i, float) for i, key in enumerate(SPLIT_KEYS)}
    for section, (cls, skipped) in SUB_SECTIONS.items():
        hints = get_type_hints(cls)
        keys.setdefault(section, {}).update({name: (section, name, _converter(hints[name]))
                                             for name in hints if name not in skipped})
    return keys


KEYS = _keys()


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into an ExperimentConfig; reject anything off-schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    values = {"": {}, "split": dict(enumerate(ExperimentConfig.split_fractions)),
              **{section: {} for section in SUB_SECTIONS}}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            owner, name, convert = KEYS[section][key]
            try:
                values[owner][name] = convert(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"[{section}] {key}: {e}") from None

    kwargs = {**values[""], "split_fractions": tuple(values["split"].values())}
    for section, (cls, _) in SUB_SECTIONS.items():
        if values[section]:
            try:
                kwargs[section] = cls(**values[section])
            except (ValueError, TypeError) as e:
                raise ConfigError(f"[{section}]: {e}") from None
    return ExperimentConfig(**kwargs)  # its checks raise ConfigError


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
