"""Forward propagation over packed ciphertexts.

Each layer function reads its form from its parameters (the filters' layout
and r, the weights' kind) and checks that its input is in that form.

Layer functions return pre-activations; :func:`square_activation` is applied
separately so pipelines can meter it under its own stage label and skip it
after the final layer.  It takes ownership of the pre-activation tensor and
frees each cell as it squares it: a pipeline whose backward pass reads the
pre-activations caches its own dict of the same cells first.

The layer functions consume their input tensors too: they pop each input
cell from the tensor's cells, so one that nobody else holds is freed once
the layer is done with it, and a pipeline that keeps a layer's input holds
its own dict of the cells before the layer runs.  Cells may be made on
first read (a :class:`~lhecnn.packing.LazyCells`, as
:func:`~lhecnn.packing.encode_inputs` gives): :func:`conv_forward` then
makes each input at its first window and drops it after its last, and
:func:`fl_forward` with one output cell makes, reads and drops its inputs
one at a time.  :func:`fl_squares` is :func:`fl_forward` and the square
after it, made so: it makes each output as the next layer first reads it,
metered under the labels it is given, as the work runs inside the next
layer's sums.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from functools import partial

from .lhe import Ciphertext, SimulatorBackend
from .packing import (
    CONV_CROSS_CHANNEL,
    CONV_CROSS_FILTER,
    FL_TYPE1,
    FL_TYPE2,
    LazyCells,
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

    The windows run in turn, each read once by every filter cell, and
    ``inputs`` is consumed: the last window that reads an input cell pops
    it from ``inputs.cells``, so each input is dropped after its last
    window (a cell no window reads is left in place).  With cells made on
    first read (:func:`~lhecnn.packing.encode_inputs`), a layer whose
    windows do not overlap holds one window's inputs at a time, and one
    input at a time if its filters fit one cell.
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
    grid = [(u, v) for u in range(out_grid) for v in range(out_grid)]
    in_keys = [[(b, stride * u + x, stride * v + y) for x, y, b in window]
               for u, v in grid]
    last = {key: w for w, keys in enumerate(in_keys) for key in keys}
    in_cells, kernel_cells = inputs.cells, filters.cells
    filter_windows = [[kernel_cells[(a, b, x, y)] for x, y, b in window]
                      for a in range(filter_cells)]
    cells = {}
    for w, ((u, v), keys) in enumerate(zip(grid, in_keys)):
        operands = (in_cells.pop(key) if last[key] == w else in_cells[key] for key in keys)
        if filter_cells > 1:  # every filter cell reads the window
            operands = list(operands)
        for a, filter_window in enumerate(filter_windows):
            acc = backend.mul_sum(zip(operands, filter_window))
            cells[(a, u, v)] = fold_rotate_sum(backend, acc, seg, r) if fold else acc
    out_layout, group = conv_output_layout(layout, r, seg, acc.slot_count)
    return PackedTensor(cells, out_layout, inputs.n, inputs.grid_side, seg,
                        group_size=group)


def _fl_layout(inputs: PackedTensor, weights: PackedWeights) -> None:
    """Raises unless ``inputs`` is in the form ``weights`` take."""
    expected = FL_TYPE1 if weights.kind == "type1" else FL_TYPE2
    if inputs.layout != expected:
        raise ValueError(f"{weights.kind} weights expect {expected} input, "
                         f"got {inputs.layout}")


def _fl_output(cells: dict | LazyCells, weights: PackedWeights, n: int,
               slot_count: int) -> PackedTensor:
    """The output tensor of an fc layer over ``cells``."""
    if weights.kind == "type1":
        return PackedTensor(cells, FL_TYPE2, n, pi_sets=1)
    return PackedTensor(cells, FL_TYPE1, n, pi_sets=slot_count // n)


def fl_cell(backend: SimulatorBackend, cts: Iterable[Ciphertext],
            weights: PackedWeights, j: int) -> Ciphertext:
    """Output cell j of an fc layer, from its input cells ``cts`` in order,
    read in one pass: the sum of their products with the weight cells of
    ``weights.row(j)``, folded over the pi-set blocks for type I weights."""
    acc = backend.mul_sum(zip(cts, weights.row(j)))
    if weights.kind == "type1":
        n = weights.n
        return fold_rotate_sum(backend, acc, n, acc.slot_count // n)
    return acc


def fl_forward(backend: SimulatorBackend, inputs: PackedTensor,
               weights: PackedWeights) -> PackedTensor:
    """Fully-connected layer in the weights' form: output cell j sums the
    products of every input ciphertext i with weight cell
    ``weights.weight_key(j, i)`` (:func:`fl_cell`).

    Type I weights take a many-pi-set input; a doubling rotate-sum then folds
    the pi-set blocks, so each output ciphertext holds S/n replicas of its n
    per-image dot products (a type II input).  Each replica sums the blocks
    in its own order, so the replicas agree up to rounding, not bit for bit.
    Type II weights take one replicated pi-set per input neuron and need no
    rotation; each output ciphertext packs S/n output neurons as consecutive
    pi-sets (a type I input).

    Consumes ``inputs``: they are popped from ``inputs.cells`` and dropped
    when the layer is done.  A layer with one output cell reads each input
    once, so it pops, reads and drops them in turn, and holds one at a time
    when they are made on first read (:func:`fl_squares`).
    """
    _fl_layout(inputs, weights)
    in_cells, keys = inputs.cells, [(i,) for i in range(weights.in_cts)]
    if weights.out_cts == 1:
        cells = {(0,): fl_cell(backend, map(in_cells.pop, keys), weights, 0)}
    else:
        in_cts = [in_cells.pop(key) for key in keys]
        cells = {(j,): fl_cell(backend, in_cts, weights, j) for j in range(weights.out_cts)}
    return _fl_output(cells, weights, inputs.n, cells[(0,)].slot_count)


def fl_squares(backend: SimulatorBackend, inputs: PackedTensor, weights: PackedWeights,
               label: str, square_label: str) -> PackedTensor:
    """The squared output of an fc layer, each cell made on first read (a
    :class:`~lhecnn.packing.LazyCells`): output j is made by :func:`fl_cell`
    in meter scope ``label``, then squared in scope ``square_label``, so
    the next layer reads each one as it is made and can drop it before the
    next.

    Consumes ``inputs`` at once; they are held until the last output is
    made.  A scope is entered and left around each cell's work, so a
    reader's own scope is open again when it gets the cell.
    """
    _fl_layout(inputs, weights)
    in_cells, scope = inputs.cells, backend.meter.scope
    in_cts = [in_cells.pop((i,)) for i in range(weights.in_cts)]

    def make(j: int) -> Ciphertext:
        with scope(label):
            ct = fl_cell(backend, in_cts, weights, j)
        with scope(square_label):
            return backend.mul(ct, ct)

    cells = LazyCells({(j,): partial(make, j) for j in range(weights.out_cts)})
    return _fl_output(cells, weights, inputs.n, in_cts[0].slot_count)


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
