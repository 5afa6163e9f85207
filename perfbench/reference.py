"""Plaintext reference for one constant-slope refining round.

``lhecnn.oracle`` differentiates the square activation exactly
(``2 * preactivation * g``).  The refining presets run with
``exact_activation_grad=False``, whose encrypted backward pass multiplies by
the constant 2 instead, so the benchmark checks each round against this
plaintext step.
"""

from __future__ import annotations

import numpy as np
from lhecnn.geometry import CnnConfig
from lhecnn.oracle import PlainParams, plain_forward, softmax_cross_entropy


def constant_slope_step(cfg: CnnConfig, params: PlainParams, images: np.ndarray,
                        labels: np.ndarray, lr: float) -> tuple[PlainParams, float]:
    """One SGD step on the batch mean with slope 2 at every activation;
    returns (new params, loss before the step)."""
    trace = plain_forward(cfg, params, images)
    loss, g = softmax_cross_entropy(trace.logits, labels)
    n = images.shape[0]
    new = params.copy()
    flat = trace.conv_act[-1].reshape(n, -1)
    for k in reversed(range(cfg.f)):
        if k < cfg.f - 1:
            g = 2.0 * g
        inputs = trace.fc_act[k - 1] if k > 0 else flat
        new.weights[k] -= (lr / n) * (g.T @ inputs)
        g = g @ params.weights[k]
    g = g.reshape(trace.conv_act[-1].shape)
    for l in reversed(range(cfg.c)):
        stride, side = cfg.conv[l].stride, cfg.conv[l].filter_side
        g = 2.0 * g
        a_in = images if l == 0 else trace.conv_act[l - 1]
        kernel_grad = np.zeros_like(params.filters[l])
        g_prev = np.zeros_like(a_in)
        for u in range(g.shape[2]):
            for v in range(g.shape[3]):
                rows = slice(u * stride, u * stride + side)
                cols = slice(v * stride, v * stride + side)
                kernel_grad += np.tensordot(g[:, :, u, v], a_in[:, :, rows, cols],
                                            axes=([0], [0]))
                if l > 0:
                    g_prev[:, :, rows, cols] += np.einsum(
                        "nk,kcxy->ncxy", g[:, :, u, v], params.filters[l])
        new.filters[l] -= (lr / n) * kernel_grad
        g = g_prev
    return new, float(loss)
