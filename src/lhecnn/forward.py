"""Forward propagation over packed ciphertexts.

Layer functions return pre-activations; :func:`square_activation` is applied
separately so pipelines can meter it under its own stage label, cache the
pre-activation ciphertexts for the backward pass, and skip it after the final
layer.
"""

from __future__ import annotations

from dataclasses import replace

from .lhe import SimulatorBackend
from .packing import (
    CONV_CROSS_CHANNEL,
    CONV_CROSS_FILTER,
    FL_TYPE1,
    FL_TYPE2,
    PackedFilters,
    PackedTensor,
    PackedWeights,
    conv_cell_counts,
    conv_output_layout,
    fold_rotate_sum,
)


def conv_forward(backend: SimulatorBackend, inputs: PackedTensor,
                 filters: PackedFilters, out_grid: int, stride: int) -> PackedTensor:
    """Convolution in the filters' layout: every output cell (a, u, v)
    accumulates the products of its kernel window's input cells with filter
    cell a, over every channel cell b.

    A cross-filter layer multiplies r filters at once; a cross-channel layer
    folds its r channel segments together with log2(r) rotate-adds.  The
    output layout is :func:`~lhecnn.packing.conv_output_layout`'s (where only
    segment 0 is valid, later stages zero-mask the rest).
    """
    layout, r = filters.layout, filters.group_size
    if inputs.layout != layout:
        raise ValueError(f"expected {layout} input, got {inputs.layout}")
    if layout == CONV_CROSS_FILTER and inputs.group_size < r:
        raise ValueError(f"input carries {inputs.group_size} replicas, need {r}")
    gamma = filters.filter_side
    filter_cells, channel_cells = conv_cell_counts(layout, r, filters.filter_count,
                                                   filters.channel_count)
    seg = inputs.seg_slots
    fold = layout == CONV_CROSS_CHANNEL and r > 1
    window = [(x, y, b) for x in range(gamma) for y in range(gamma)
              for b in range(channel_cells)]
    cells = {}
    for a in range(filter_cells):
        for u in range(out_grid):
            for v in range(out_grid):
                acc = backend.mul_sum(
                    (inputs.ct(b, stride * u + x, stride * v + y),
                     filters.cells[(a, b, x, y)]) for x, y, b in window)
                cells[(a, u, v)] = fold_rotate_sum(backend, acc, seg, r) if fold else acc
    out_layout, group = conv_output_layout(layout, r, r * seg == inputs.slot_count)
    return PackedTensor(cells, out_layout, inputs.n, inputs.grid_side, seg,
                        group_size=group)


def fl_forward_type1(backend: SimulatorBackend, inputs: PackedTensor,
                     weights: PackedWeights) -> PackedTensor:
    """Type I fully-connected layer: products against per-output-row weight
    ciphertexts, then a doubling rotate-sum folds all pi-set blocks so every
    output ciphertext holds S/n replicas of its n per-image dot products."""
    if inputs.layout != FL_TYPE1:
        raise ValueError(f"expected {FL_TYPE1} input, got {inputs.layout}")
    if weights.kind != "type1":
        raise ValueError("type I propagation needs type1 weights")
    n = inputs.n
    slot_count = inputs.slot_count
    cells = {}
    for i in range(weights.out_neurons):
        acc = backend.mul_sum((inputs.ct(j), weights.cells[(i, j)])
                              for j in range(weights.in_cts))
        cells[(i,)] = fold_rotate_sum(backend, acc, n, slot_count // n)
    return PackedTensor(cells, FL_TYPE2, n, pi_sets=1, neurons=weights.out_neurons)


def fl_forward_type2(backend: SimulatorBackend, inputs: PackedTensor,
                     weights: PackedWeights) -> PackedTensor:
    """Type II fully-connected layer: each replicated input ciphertext meets
    its per-input-column weight ciphertext; no rotations are needed.  The
    output packs the o output neurons as consecutive pi-sets (a type I input
    for the next layer)."""
    if inputs.layout != FL_TYPE2:
        raise ValueError(f"expected {FL_TYPE2} input, got {inputs.layout}")
    if weights.kind != "type2":
        raise ValueError("type II propagation needs type2 weights")
    n = inputs.n
    slot_count = inputs.slot_count
    cells = {}
    for j in range(weights.out_cts):
        cells[(j,)] = backend.mul_sum((inputs.ct(i), weights.cells[(i, j)])
                                      for i in range(weights.in_cts))
    return PackedTensor(cells, FL_TYPE1, n, pi_sets=slot_count // n,
                        neurons=weights.out_neurons)


def square_activation(backend: SimulatorBackend, tensor: PackedTensor) -> PackedTensor:
    """Square every slot (one ciphertext-ciphertext product per cell)."""
    cells = {key: backend.mul(ct, ct) for key, ct in tensor.cells.items()}
    return replace(tensor, cells=cells)
