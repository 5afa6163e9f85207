"""Forward propagation over packed ciphertexts.

Each layer function reads its form from its parameters (the filters' layout
and r, the weights' kind) and checks that its input is in that form.

Layer functions return pre-activations; :func:`square_activation` is applied
separately so pipelines can meter it under its own stage label and skip it
after the final layer.  It takes ownership of the pre-activation tensor and
frees each cell as it squares it: a pipeline whose backward pass reads the
pre-activations caches its own dict of the same cells first.
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
    # each operand list is read from the cells once: an input window per
    # output position, shared by every filter cell, and a window per filter
    grid = [(u, v) for u in range(out_grid) for v in range(out_grid)]
    in_cells, kernel_cells = inputs.cells, filters.cells
    in_windows = [[in_cells[(b, stride * u + x, stride * v + y)] for x, y, b in window]
                  for u, v in grid]
    cells = {}
    for a in range(filter_cells):
        filter_window = [kernel_cells[(a, b, x, y)] for x, y, b in window]
        for (u, v), in_window in zip(grid, in_windows):
            acc = backend.mul_sum(zip(in_window, filter_window))
            cells[(a, u, v)] = fold_rotate_sum(backend, acc, seg, r) if fold else acc
    out_layout, group = conv_output_layout(layout, r, seg, inputs.slot_count)
    return PackedTensor(cells, out_layout, inputs.n, inputs.grid_side, seg,
                        group_size=group)


def fl_forward(backend: SimulatorBackend, inputs: PackedTensor,
               weights: PackedWeights) -> PackedTensor:
    """Fully-connected layer in the weights' form: output cell j sums the
    products of every input ciphertext i with weight cell
    ``weights.weight_key(j, i)``.

    Type I weights take a many-pi-set input; a doubling rotate-sum then folds
    the pi-set blocks, so each output ciphertext holds S/n replicas of its n
    per-image dot products (a type II input).  Each replica sums the blocks
    in its own order, so the replicas agree up to rounding, not bit for bit.
    Type II weights take one replicated pi-set per input neuron and need no
    rotation; each output ciphertext packs S/n output neurons as consecutive
    pi-sets (a type I input).
    """
    type1 = weights.kind == "type1"
    expected = FL_TYPE1 if type1 else FL_TYPE2
    if inputs.layout != expected:
        raise ValueError(f"{weights.kind} weights expect {expected} input, "
                         f"got {inputs.layout}")
    n = inputs.n
    blocks = inputs.slot_count // n
    in_cts = [inputs.cells[(i,)] for i in range(weights.in_cts)]
    cells = {}
    for j in range(weights.out_cts):
        acc = backend.mul_sum(zip(in_cts, weights.row(j)))
        cells[(j,)] = fold_rotate_sum(backend, acc, n, blocks) if type1 else acc
    if type1:
        return PackedTensor(cells, FL_TYPE2, n, pi_sets=1)
    return PackedTensor(cells, FL_TYPE1, n, pi_sets=blocks)


def square_activation(backend: SimulatorBackend, tensor: PackedTensor) -> PackedTensor:
    """Square every slot (one ciphertext-ciphertext product per cell).

    Consumes ``tensor``: each cell is popped from ``tensor.cells`` as it is
    squared, so a pre-activation nobody else holds is freed before the next
    square is made, and ``tensor`` is left with no cells.
    """
    pre, cells = tensor.cells, {}
    for key in list(pre):
        ct = pre.pop(key)
        cells[key] = backend.mul(ct, ct)
    return replace(tensor, cells=cells)
