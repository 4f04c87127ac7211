"""Replay of default-size LSNPC training steps, timed call by call.

Each step tiles a 32-row batch four times (128 rows, as the trainer does),
times the unsupervised loss forward pass, the tape's backward pass and the
AdamW update, then the supervised loss forward pass and one forward pass of
every subnetwork on the inputs it sees in a step.  Runs uninstrumented, so
the numbers carry no span overhead.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from lsnpc import autodiff, config, datagen, layers, model, rngs

UNITS = {
    "autodiff.nodes_per_step": "count",
    "autodiff.backward_ms_p50": "ms",
    **{f"layers.mlp_fwd_ms_p50.{net}": "ms" for net in ("emb", "theta", "kappa", "psi", "phi")},
    "layers.adamw_step_ms_p50": "ms",
    "model.unsup_loss_fwd_ms_p50": "ms",
    "model.sup_loss_fwd_ms_p50": "ms",
}


def _timed(samples: dict, key: str, fn):
    t0 = time.perf_counter()
    out = fn()
    samples.setdefault(key, []).append(1e3 * (time.perf_counter() - t0))
    return out


def replay(root: Path, seed: int, steps: int) -> dict[str, float]:
    cfg = config.load_config(root / "configs" / "default.ini")
    tc = cfg.lsnpc
    ds, _ = datagen.generate_synthetic(cfg.generator_config(seed))
    net = model.LsnpcModel(cfg.model_config(ds.d, ds.k), seed=seed)
    opt = layers.make_optimizer(tc.optimizer, net.params, tc.lr, tc.weight_decay)
    rng = rngs.stream(seed, "bench", "replay")
    samples: dict[str, list[float]] = {}
    nodes = 0
    for _ in range(steps):
        idx = rng.choice(ds.n, tc.batch_size, replace=False)
        x = np.tile(ds.X[idx].astype(np.float64), (tc.s_y, 1))
        y = np.tile(ds.Y[idx].astype(np.float64), (tc.s_y, 1))
        yhat = np.abs(y - (rng.random(y.shape) < 0.1))

        loss = _timed(samples, "model.unsup_loss_fwd_ms_p50",
                      lambda: model.unsupervised_loss(net, x, yhat, rng=rng, s_z=tc.s_z))
        graph = autodiff.ComputeGraph(lambda bound: loss, net.params)
        graph.eval({})
        nodes = len(graph.nodes())
        opt.zero_grad()
        _timed(samples, "autodiff.backward_ms_p50", graph.backward)
        _timed(samples, "layers.adamw_step_ms_p50", opt.step)
        _timed(samples, "model.sup_loss_fwd_ms_p50",
               lambda: model.supervised_loss(net, x, y, yhat, rng=rng, s_z=tc.s_z))

        xt = autodiff.Tensor(x)
        emb = _timed(samples, "layers.mlp_fwd_ms_p50.emb",
                     lambda: net.emb(autodiff.Tensor(yhat)))
        joined = autodiff.concat([xt, emb], axis=-1)
        zhat = autodiff.Tensor(rng.standard_normal((len(x), net.cfg.m)))
        _timed(samples, "layers.mlp_fwd_ms_p50.theta", lambda: _heads(
            net.theta_trunk, net.theta_mu, net.theta_sigma, joined))
        _timed(samples, "layers.mlp_fwd_ms_p50.kappa", lambda: _heads(
            net.kappa_trunk, net.kappa_mu, net.kappa_sigma, zhat))
        _timed(samples, "layers.mlp_fwd_ms_p50.psi", lambda: net.psi(zhat))
        _timed(samples, "layers.mlp_fwd_ms_p50.phi",
               lambda: net.phi(autodiff.concat([xt, zhat], axis=-1)))
    out = {key: float(np.percentile(values, 50)) for key, values in samples.items()}
    out["autodiff.nodes_per_step"] = float(nodes)
    return out


def _heads(trunk, mu_head, sigma_head, h_in):
    h = trunk(h_in).gelu()
    return mu_head(h), sigma_head(h)
