"""The latent-shift variational model and its training losses.

Generative story: a clean latent z ~ Normal(0, I) explains the true labels
through a shared sigmoid decoder on (x, z); a shifted latent zhat follows a
heavy-tailed Student centered on a decoded shift of z and explains the noisy
labels through the SAME decoder on (x, zhat).  Inference runs backwards with
two encoders: q(zhat | x, yhat) (Student, or Normal under the Gaussian
ablation) and q(z | zhat) (Normal).

The forward maps of :class:`LsnpcModel` take plain arrays or Tensors: arrays
in give arrays out and build no tape (inference), and a Tensor in gives tape
nodes out (training).  The losses lift their batch to a Tensor.

A loss step reads everything that changes from step to step (the batch, its
sampled labels, every noise draw and the branch masks) from one dict of
named arrays, drawn in a fixed order from the caller's stream, with any
array that ``noise=`` injects taking its name's place.  The trainer's sweeps
hand :func:`layers.fit` that dict and the ELBO that reads it, so ``fit``
records the step once per batch shape and replays the record on later
batches (see :mod:`lsnpc.autodiff`).

Losses are negative single-sample ELBOs.  All latent-distribution terms are
weighted by beta; reconstruction terms are not.  The supervised loss draws z
from a two-branch mixture: with probability eta from a Normal encoded from
(x, true y), otherwise from q(z | zhat).

The trainer alternates, within every epoch, a full sweep of noisy-set batches
minimizing the unsupervised loss with a full sweep of clean-set batches
minimizing the supervised loss, and keeps the epoch checkpoint that the
caller's score rates best (the pipeline scores corrected validation
predictions by micro-F1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_type_hints

import numpy as np
from scipy.special import expit, gammaincinv

from . import rngs
from .autodiff import NonFiniteLoss, Tensor, concat, data_of, detached
from .baseclf import BaseClassifier, predict_probs, sample_predictions
from .distributions import (
    EPS_P,
    logpdf_diag_normal,
    logpdf_diag_student,
    logpmf_bernoulli,
    rsample_diag_normal,
    rsample_diag_student,
)
from .layers import Mlp, TrainConfig, check_widths, fit
from . import checkpoint

__all__ = [
    "ModelConfig",
    "LsnpcModel",
    "LsnpcTrainConfig",
    "NonFiniteLoss",
    "unsupervised_loss",
    "supervised_loss",
    "train_semi_supervised",
    "learned_nu",
    "save_model",
    "load_model",
]

PROPOSALS = ("student", "normal")
NU_MODES = ("fixed", "learned")


@dataclass(frozen=True)
class ModelConfig:
    d: int
    k: int
    m: int = 16
    nu: float = 2.01
    nu0: float = 2.01
    beta: float = 0.01
    eta: float = 0.5
    lambda_floor: float = 1e-3
    proposal: str = "student"
    nu_mode: str = "fixed"
    embed_hidden: int = 64
    embed_dim: int = 128
    encoder_hidden: tuple[int, ...] = (64,)
    decoder_hidden: tuple[int, ...] = (128,)
    shift_hidden: tuple[int, ...] = (64,)
    # Initial bias of the scale heads.  softplus(-2) starts both posteriors
    # near-deterministic so early reconstruction gradients are not drowned
    # by latent noise; the heads are free to widen during training.
    sigma_bias_init: float = -2.0

    def __post_init__(self):
        if min(self.d, self.k, self.m) < 1:
            raise ValueError("d, k, m must all be positive")
        if self.proposal not in PROPOSALS:
            raise ValueError(f"proposal must be one of {PROPOSALS}")
        if self.nu_mode not in NU_MODES:
            raise ValueError(f"nu mode must be one of {NU_MODES}")
        if not self.nu0 > 2.0:
            raise ValueError("generative degrees of freedom nu0 must exceed 2")
        if self.proposal == "student" and self.nu_mode == "fixed" and not self.nu > 2.0:
            raise ValueError("fixed proposal degrees of freedom nu must exceed 2")
        # beta = 0 is allowed: it degenerates the loss to reconstruction only.
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.lambda_floor <= 0:
            raise ValueError("scale floor must be positive")
        if not np.isfinite(self.sigma_bias_init):
            raise ValueError("scale head bias must be finite")
        if not self.encoder_hidden:
            raise ValueError("encoder_hidden needs at least one layer")
        for name in ("embed_hidden", "embed_dim", "encoder_hidden", "decoder_hidden",
                     "shift_hidden"):
            check_widths(name, getattr(self, name))


class LsnpcModel:
    """Parameter container plus the forward maps of the generative/inference nets.

    Construction order of the subnetworks is fixed so a given seed always
    produces the same initialization.  ``params`` is the flat name->Tensor
    dict shared by the optimizer and the checkpoint writer.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.metadata: dict = {}
        self.history: dict = {}
        rng = rngs.stream(seed, "model", "init")
        enc_in = cfg.d + cfg.embed_dim
        emb_hidden = (cfg.embed_hidden,) * 3
        self.emb = Mlp("emb", cfg.k, emb_hidden, cfg.embed_dim, rng, zero_init_head=False)
        self.theta_trunk = Mlp(
            "theta.trunk",
            enc_in,
            cfg.encoder_hidden[:-1],
            cfg.encoder_hidden[-1],
            rng,
            zero_init_head=False,
        )
        self.theta_mu = Mlp("theta.mu", cfg.encoder_hidden[-1], (), cfg.m, rng)
        self.theta_sigma = Mlp("theta.sigma", cfg.encoder_hidden[-1], (), cfg.m, rng)
        self.kappa_trunk = Mlp(
            "kappa.trunk",
            cfg.m,
            cfg.encoder_hidden[:-1],
            cfg.encoder_hidden[-1],
            rng,
            zero_init_head=False,
        )
        self.kappa_mu = Mlp("kappa.mu", cfg.encoder_hidden[-1], (), cfg.m, rng)
        self.kappa_sigma = Mlp("kappa.sigma", cfg.encoder_hidden[-1], (), cfg.m, rng)
        for head in (self.theta_sigma, self.kappa_sigma):
            head.params[f"{head.prefix}.b0"].data[:] = cfg.sigma_bias_init
        self.psi = Mlp("psi", cfg.m, cfg.shift_hidden, cfg.m, rng, zero_init_head=True)
        self.phi = Mlp("phi", cfg.d + cfg.m, cfg.decoder_hidden, cfg.k, rng, zero_init_head=True)
        nets = [
            self.emb,
            self.theta_trunk,
            self.theta_mu,
            self.theta_sigma,
            self.kappa_trunk,
            self.kappa_mu,
            self.kappa_sigma,
            self.psi,
            self.phi,
        ]
        self.nu_net = None
        if cfg.proposal == "student" and cfg.nu_mode == "learned":
            self.nu_net = Mlp("nu", enc_in, (cfg.embed_hidden,), 1, rng, zero_init_head=True)
            nets.append(self.nu_net)
        self.params: dict[str, Tensor] = {}
        for net in nets:
            self.params.update(net.params)

    # -- forward maps -------------------------------------------------------
    #
    # Each map has one body and two modes.  Given plain arrays it returns
    # arrays and builds no Tensor: inference (``correction.correct``, the
    # theory checks) never runs a backward pass.  Given a Tensor operand it
    # lifts the others and returns tape nodes, as the training losses need.
    # Both modes give the same bits, and both read the parameters' current
    # arrays at each call.

    def embed_labels(self, y):
        if np.shape(y)[-1] != self.cfg.k:
            raise ValueError(f"expected {self.cfg.k} labels, got {np.shape(y)[-1]}")
        return self.emb(y)

    def _joined(self, x, y):
        """Features and the embedding of ``y``, side by side."""
        if np.shape(x)[-1] != self.cfg.d:
            raise ValueError(f"expected {self.cfg.d} features, got {np.shape(x)[-1]}")
        if isinstance(x, Tensor) and not isinstance(y, Tensor):
            y = Tensor(y)  # so the embedding joins x on the tape
        return concat([x, self.embed_labels(y)], axis=-1)

    def _heads(self, trunk, mu_head, sigma_head, h_in):
        h = trunk(h_in, gelu_out=True)
        mu = mu_head(h)
        sigma = _softplus(sigma_head(h)) + self.cfg.lambda_floor
        return mu, sigma

    def encode_xy(self, x, y):
        """Latent location/scale from features and a (possibly noisy) label vector."""
        return self._heads(self.theta_trunk, self.theta_mu, self.theta_sigma,
                           self._joined(x, y))

    def encode_zhat_to_z(self, zhat):
        if np.shape(zhat)[-1] != self.cfg.m:
            raise ValueError(f"expected latent dim {self.cfg.m}, got {np.shape(zhat)[-1]}")
        return self._heads(self.kappa_trunk, self.kappa_mu, self.kappa_sigma, zhat)

    def decode_shift(self, z):
        return self.psi(z)

    def decode_labels(self, x, z):
        """Per-label probabilities; one parameter set serves clean and shifted latents."""
        logits = self.phi(concat([x, z], axis=-1))
        if isinstance(logits, Tensor):
            return logits.sigmoid().clamp(EPS_P, 1.0 - EPS_P)
        return np.clip(expit(logits, out=logits), EPS_P, 1.0 - EPS_P, out=logits)

    def proposal(self, x, yhat):
        """Location, scale and degrees of freedom of q(zhat | x, yhat).

        The degrees of freedom are :func:`learned_nu` for a Student proposal
        in learned mode and ``cfg.nu`` otherwise; a Normal proposal ignores them.
        """
        mu, sigma = self.encode_xy(x, yhat)
        if self.nu_net is None:
            return mu, sigma, self.cfg.nu
        return mu, sigma, learned_nu(self, x, yhat)


def learned_nu(model: LsnpcModel, x, yhat):
    """2 + softplus(net(x, yhat)), keeping nu > 2; only for a Student
    proposal in learned mode.

    The zero-initialized head starts nu at 2 + ln 2, where softplus has a
    non-zero slope, so the net receives a gradient from its first step.
    """
    if model.nu_net is None:
        raise RuntimeError("model carries a fixed nu; no learned-nu network exists")
    return _softplus(model.nu_net(model._joined(x, yhat))) + 2.0


def _softplus(a):
    """softplus as a tape node, or in place in the array ``a``.  Like the
    tape, the array mode does not warn on a non-finite value."""
    if isinstance(a, Tensor):
        return a.softplus()
    with np.errstate(all="ignore"):
        return np.logaddexp(0.0, a, out=a)


# --------------------------------------------------------------------------
# Losses


def chi2_from_uniform(nu, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF chi-square(nu) transform of uniforms; nu detached if a Tensor.

    Elementwise, so a block of uniforms transforms to the bits of its parts.
    """
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return 2.0 * gammaincinv(data_of(nu) / 2.0, u)


def _check_terms(loss: Tensor, terms: dict) -> None:
    if loss.nonfinite_op is None and np.all(np.isfinite(loss.data)):
        return
    lines = []
    for name, t in terms.items():
        values = data_of(t)
        bad = int(np.sum(~np.isfinite(values)))
        lines.append(f"{name}: {bad} non-finite of {values.size}")
    raise NonFiniteLoss(
        f"non-finite loss (first bad op: {loss.nonfinite_op}); " + "; ".join(lines)
    )


def chain(model: LsnpcModel, mu_t, sig_t, nu, eps_zhat, chi2):
    """One draw of zhat from q(zhat | x, yhat) and the q(z | zhat) it encodes.

    Student proposals take ``chi2``, the chi-square(nu) mixing draw that
    :func:`chi2_from_uniform` makes of the caller's uniforms; the Normal
    proposal ignores it.  The training losses transform their uniforms at
    every step, and ``correction.correct`` transforms those of a fixed nu
    once for all calls with the same draws.  Returns (zhat, mu_k, sig_k).
    """
    if model.cfg.proposal == "student":
        zhat = rsample_diag_student(mu_t, sig_t, nu, eps_zhat, chi2)
    else:
        zhat = rsample_diag_normal(mu_t, sig_t, eps_zhat)
    mu_k, sig_k = model.encode_zhat_to_z(zhat)
    return zhat, mu_k, sig_k


def _step_inputs(model: LsnpcModel, x, y, yhat, rng, s_z, noise) -> dict:
    """The named float64 arrays of one loss step, the noisy path's (``y``
    None) or the clean path's.

    ``x``, ``yhat`` and on the clean path ``y``; then per draw s, under the
    key (name, s), the noise in draw order: eps_zhat, eps_z, on the clean
    path eps_za and the branch uniforms, and for a Student proposal the chi2
    uniforms last.  Each noise array is drawn from ``rng`` as one (s_z, rows,
    width) block unless ``noise`` supplies it by name.  On the clean path the
    branch masks follow: ``branch`` (1 where the draw takes the encoded
    branch, rows x 1), ``not_branch`` (1 - branch) and their per-row
    columns ``branch_row`` and ``not_branch_row``.
    """
    cfg = model.cfg
    x = np.asarray(x, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y is None:
        if x.shape[0] != yhat.shape[0]:
            raise ValueError(f"row mismatch: {x.shape[0]} features vs {yhat.shape[0]} labels")
    else:
        y = np.asarray(y, dtype=np.float64)
        if not x.shape[0] == y.shape[0] == yhat.shape[0]:
            raise ValueError("feature, label, and sampled-label row counts differ")
    if s_z < 1:
        raise ValueError("need at least one latent sample")
    B, m = x.shape[0], cfg.m
    inputs = {"x": x, "yhat": yhat}
    draws = [("eps_zhat", m, False), ("eps_z", m, False)]
    if y is not None:
        inputs["y"] = y
        draws += [("eps_za", m, False), ("branch_u", 1, True)]
    if cfg.proposal == "student":
        draws.append(("chi2_u", 1, True))
    for key, width, uniform in draws:
        shape = (s_z, B, width)
        if noise is not None and key in noise:
            arr = np.asarray(noise[key], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"injected noise {key!r} has shape {arr.shape}, expected {shape}")
        elif rng is None:
            raise ValueError(f"no rng given and noise lacks {key!r}")
        else:
            arr = rng.random(shape) if uniform else rng.standard_normal(shape)
        for s in range(s_z):
            inputs[key, s] = arr[s]
    if y is not None:
        for s in range(s_z):
            b = (inputs["branch_u", s] < cfg.eta).astype(np.float64)
            inputs["branch", s], inputs["not_branch", s] = b, 1.0 - b
            inputs["branch_row", s], inputs["not_branch_row", s] = b[:, 0], 1.0 - b[:, 0]
    return inputs


def _branch_count(inputs: dict, s_z: int) -> int:
    """Draws of the step that take the encoded branch, over rows and draws."""
    return sum(int(inputs["branch", s].sum()) for s in range(s_z))


def _elbo(model: LsnpcModel, inputs: dict, s_z: int):
    """Negative ELBO of one step's inputs (:func:`_step_inputs`): the noisy
    path without ``y``, the clean path with it.

    Reads every per-step value from ``inputs`` or through ``detached``, so a
    recorded step replays on other inputs.  Returns the loss and a detail
    dict: the per-draw ``terms`` (a list of arrays per name), ``nu`` and, on
    the clean path, ``n_branch_encoded`` of ``n_rows``."""
    cfg = model.cfg
    yhat, y = inputs["yhat"], inputs.get("y")
    # A Tensor operand puts the maps on the tape; the batch stays one leaf.
    x = Tensor(inputs["x"])
    mu_t, sig_t, nu = model.proposal(x, yhat)
    detail: dict = {"terms": {}, "nu": nu}
    if y is not None:
        mu_s, sig_s = model.encode_xy(x, y)
        detail.update(n_branch_encoded=_branch_count(inputs, s_z), n_rows=s_z * x.shape[0])
    total = None
    for s in range(s_z):
        chi2 = None
        if cfg.proposal == "student":
            chi2 = detached(chi2_from_uniform, nu, inputs["chi2_u", s])
        zhat, mu_k, sig_k = chain(model, mu_t, sig_t, nu, inputs["eps_zhat", s], chi2)
        if cfg.proposal == "student":
            lq_zhat = logpdf_diag_student(zhat, mu_t, sig_t, nu)
        else:
            lq_zhat = logpdf_diag_normal(zhat, mu_t, sig_t)
        rec_hat = logpmf_bernoulli(yhat, model.decode_labels(x, zhat))
        if y is None:
            z = rsample_diag_normal(mu_k, sig_k, inputs["eps_z", s])
            lq_z = logpdf_diag_normal(z, mu_k, sig_k)
            rec, recs = rec_hat, {"rec": rec_hat}
        else:
            z_a = rsample_diag_normal(mu_s, sig_s, inputs["eps_za", s])
            z_b = rsample_diag_normal(mu_k, sig_k, inputs["eps_z", s])
            z = z_a * inputs["branch", s] + z_b * inputs["not_branch", s]
            lq_z = (logpdf_diag_normal(z, mu_s, sig_s) * inputs["branch_row", s]
                    + logpdf_diag_normal(z, mu_k, sig_k) * inputs["not_branch_row", s])
            rec_y = logpmf_bernoulli(y, model.decode_labels(x, z))
            rec, recs = rec_hat + rec_y, {"rec_hat": rec_hat, "rec_y": rec_y}
        lp_shift = logpdf_diag_student(zhat, model.decode_shift(z), 1.0, cfg.nu0)
        lp_z = logpdf_diag_normal(z, 0.0, 1.0)
        elbo_rows = rec + (lp_shift + lp_z - lq_zhat - lq_z) * cfg.beta
        sample_loss = -elbo_rows.mean()
        total = sample_loss if total is None else total + sample_loss
        terms = {**recs, "lp_shift": lp_shift, "lp_z": lp_z, "lq_zhat": lq_zhat, "lq_z": lq_z}
        # Node values are never written to, and np.stack copies, so the
        # per-draw arrays are kept as they are.
        for name, t in terms.items():
            detail["terms"].setdefault(name, []).append(t.data)
    loss = total * (1.0 / s_z)
    _check_terms(loss, detail["terms"])
    return loss, detail


def _collected(loss, detail, collect: bool):
    """The loss, with ``collect`` also the detail with its terms stacked per draw."""
    if not collect:
        return loss
    detail["terms"] = {k: np.stack(v) for k, v in detail["terms"].items()}
    return loss, detail


def unsupervised_loss(
    model: LsnpcModel,
    x,
    yhat,
    rng: np.random.Generator | None = None,
    s_z: int = 1,
    noise: dict | None = None,
    collect: bool = False,
):
    """Negative ELBO of the noisy-label path, averaged over rows and s_z draws.

    ``x`` rows must already be aligned with their sampled label vectors
    ``yhat`` (callers tile x when several samples share a row).  Noise draw
    order is eps_zhat, eps_z, then chi2 uniforms last, so a Normal-proposal
    run consumes a prefix of the Student run's stream; ``noise`` may inject
    any of the arrays by name for replay.
    """
    inputs = _step_inputs(model, x, None, yhat, rng, s_z, noise)
    return _collected(*_elbo(model, inputs, s_z), collect)


def supervised_loss(
    model: LsnpcModel,
    x,
    y,
    yhat,
    rng: np.random.Generator | None = None,
    s_z: int = 1,
    noise: dict | None = None,
    collect: bool = False,
):
    """Negative ELBO of the clean-label path with the eta-mixture over z.

    z comes, per row and per draw, from Normal(mu(x, y), sigma(x, y)) with
    probability eta and from q(z | zhat) otherwise; the z entropy term is the
    log density of the branch that produced the draw.  Noise draw order:
    eps_zhat, eps_z, eps_za, branch uniforms, chi2 uniforms last.
    """
    if y is None:
        raise ValueError("the supervised loss needs clean labels y")
    inputs = _step_inputs(model, x, y, yhat, rng, s_z, noise)
    return _collected(*_elbo(model, inputs, s_z), collect)


# --------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class LsnpcTrainConfig(TrainConfig):
    lr: float = 2e-3
    epochs: int = 20
    s_y: int = 4
    s_z: int = 1

    def __post_init__(self):
        super().__post_init__()
        if min(self.s_y, self.s_z) < 1:
            raise ValueError("sample counts must be >= 1")


def train_semi_supervised(
    model: LsnpcModel,
    h: BaseClassifier,
    X_noisy,
    clean,
    cfg: LsnpcTrainConfig,
    score=None,
) -> LsnpcModel:
    """Alternating-sweep training; returns the model at its best epoch.

    Per epoch: every noisy batch takes one unsupervised step, then every
    clean batch takes one supervised step.  ``clean`` is an (X, Y) pair or
    None; an empty clean set consumes no clean-side randomness, so the run
    is the unsupervised trainer exactly.  ``score(model) -> float`` rates
    each epoch's parameters (the pipeline scores corrected predictions on
    the corrupted validation split), and the best-rated epoch is restored
    at the end; without it the final epoch is kept.
    """
    X_noisy = np.asarray(X_noisy, dtype=np.float64)
    P_noisy = predict_probs(h, X_noisy)
    yhat_rng = rngs.stream(cfg.seed, "lsnpc", "yhat")
    noise_rng = rngs.stream(cfg.seed, "lsnpc", "noise")
    clean_noise_rng = rngs.stream(cfg.seed, "lsnpc", "clean_noise")
    branch_encoded = 0

    def tiled(xb, P):
        """Each feature row repeated for its s_y sampled label vectors."""
        yhat_s = sample_predictions(P, cfg.s_y, yhat_rng)
        return np.tile(xb, (cfg.s_y, 1)), yhat_s.reshape(cfg.s_y * len(xb), -1)

    def noisy_inputs(idx):
        x_rep, yhat_rep = tiled(X_noisy[idx], P_noisy[idx])
        return _step_inputs(model, x_rep, None, yhat_rep, noise_rng, cfg.s_z, None)

    def clean_inputs(idx):
        nonlocal branch_encoded
        xb = X_clean[idx]
        x_rep, yhat_rep = tiled(xb, predict_probs(h, xb))
        inputs = _step_inputs(model, x_rep, np.tile(Y_clean[idx], (cfg.s_y, 1)), yhat_rep,
                              clean_noise_rng, cfg.s_z, None)
        branch_encoded += _branch_count(inputs, cfg.s_z)
        return inputs

    def loss(inputs):
        return _elbo(model, inputs, cfg.s_z)[0]

    sweeps = [("noisy", len(X_noisy), rngs.stream(cfg.seed, "lsnpc", "shuffle"),
               noisy_inputs, loss)]
    if clean is not None:
        X_clean, Y_clean = (np.asarray(a, dtype=np.float64) for a in clean)
        if len(X_clean):
            sweeps.append(("clean", len(X_clean),
                           rngs.stream(cfg.seed, "lsnpc", "clean_shuffle"), clean_inputs, loss))
    losses, scores, best_epoch, best = fit(model.params, cfg, sweeps,
                                           None if score is None else lambda: score(model))
    model.history = {
        "unsup_losses": losses["noisy"],
        "sup_losses": losses.get("clean", []),
        "val_scores": scores,
        "best_epoch": best_epoch,
        "branch_encoded": branch_encoded,
    }
    model.metadata.update({"epochs": cfg.epochs, "seed": cfg.seed, "best_val_micro_f1": best})
    return model


# --------------------------------------------------------------------------
# Checkpointing


def save_model(model: LsnpcModel, path) -> None:
    checkpoint.save(path, "lsnpc", checkpoint.snapshot(model.params), vars(model.cfg),
                    model.metadata)


def load_model(path) -> LsnpcModel:
    arrays, cfg, metadata = checkpoint.load(path, "lsnpc", get_type_hints(ModelConfig))
    model = LsnpcModel(ModelConfig(**cfg), seed=0)
    checkpoint.restore(model.params, arrays)
    model.metadata = metadata
    return model
