"""Forward propagation over packed ciphertexts.

Layer functions return pre-activations; :func:`square_activation` is applied
separately so pipelines can meter it under its own stage label, cache the
pre-activation ciphertexts for the backward pass, and skip it after the final
layer.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

from .lhe import Ciphertext, SimulatorBackend
from .packing import (
    CONV_BASIC,
    CONV_CROSS_CHANNEL,
    CONV_CROSS_FILTER,
    FL_TYPE1,
    FL_TYPE2,
    PackedFilters,
    PackedTensor,
    PackedWeights,
    fold_rotate_sum,
)


def _accumulate(backend: SimulatorBackend, acc: Ciphertext | None,
                term: Ciphertext) -> Ciphertext:
    # Accumulators start from the first term: k terms cost k-1 additions.
    return term if acc is None else backend.add(acc, term)


def _map_keys(fn, keys, threads: int):
    if threads > 1:
        # Each worker call runs in a copy of the caller's context, which holds
        # the caller's meter scopes, so its primitives count under them.
        caller = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return dict(zip(keys, pool.map(lambda key: caller.copy().run(fn, key), keys)))
    return {key: fn(key) for key in keys}


def conv_forward(backend: SimulatorBackend, inputs: PackedTensor,
                 filters: PackedFilters, out_grid: int, stride: int,
                 threads: int = 1) -> PackedTensor:
    """Basic-layout convolution: every output cell (k, u, v) accumulates the
    products of its kernel window's input ciphertexts with filter k."""
    if inputs.layout != CONV_BASIC:
        raise ValueError(f"expected {CONV_BASIC} input, got {inputs.layout}")
    gamma = filters.filter_side

    def one(key):
        k, u, v = key
        acc = None
        for x in range(gamma):
            for y in range(gamma):
                for i in range(filters.channel_count):
                    term = backend.mul(
                        inputs.ct(i, stride * u + x, stride * v + y),
                        filters.cells[(k, i, x, y)],
                    )
                    acc = _accumulate(backend, acc, term)
        return acc

    keys = [(k, u, v) for k in range(filters.filter_count)
            for u in range(out_grid) for v in range(out_grid)]
    cells = _map_keys(one, keys, threads)
    return PackedTensor(cells, CONV_BASIC, inputs.n, inputs.grid_side,
                        inputs.seg_slots)


def conv_forward_cross_channel(backend: SimulatorBackend, inputs: PackedTensor,
                               filters: PackedFilters, out_grid: int, stride: int,
                               r: int, threads: int = 1) -> PackedTensor:
    """Cross-channel convolution: the channel loop shrinks to channel groups,
    then log2(r) rotate-adds fold the per-channel segments together.

    When the r segments tile the ciphertext exactly the folded output holds r
    replicas of the result and is directly cross-filter packed; otherwise only
    segment 0 is valid and downstream consumers must mask the rest.
    """
    if inputs.layout != CONV_CROSS_CHANNEL:
        raise ValueError(f"expected {CONV_CROSS_CHANNEL} input, got {inputs.layout}")
    gamma = filters.filter_side
    groups = -(-filters.channel_count // r)
    seg = inputs.seg_slots
    slot_count = next(iter(inputs.cells.values())).slot_count
    replicated = r * seg == slot_count

    def one(key):
        k, u, v = key
        acc = None
        for x in range(gamma):
            for y in range(gamma):
                for g in range(groups):
                    term = backend.mul(
                        inputs.ct(g, stride * u + x, stride * v + y),
                        filters.cells[(k, g, x, y)],
                    )
                    acc = _accumulate(backend, acc, term)
        return fold_rotate_sum(backend, acc, seg, r)

    keys = [(k, u, v) for k in range(filters.filter_count)
            for u in range(out_grid) for v in range(out_grid)]
    cells = _map_keys(one, keys, threads)
    # Without exact tiling the fold leaves valid data in segment 0 only, so
    # the output degrades to the basic layout (zero-masked by later stages).
    layout = CONV_CROSS_FILTER if replicated else CONV_BASIC
    return PackedTensor(cells, layout, inputs.n, inputs.grid_side, seg,
                        group_size=r if replicated else 1)


def conv_forward_cross_filter(backend: SimulatorBackend, inputs: PackedTensor,
                              filters: PackedFilters, out_grid: int, stride: int,
                              r: int, threads: int = 1) -> PackedTensor:
    """Cross-filter convolution: inputs carry r replicas, each filter-group
    ciphertext multiplies r filters at once.  The output holds one filter per
    segment, i.e. it is cross-channel packed for the next layer."""
    if inputs.layout != CONV_CROSS_FILTER:
        raise ValueError(f"expected {CONV_CROSS_FILTER} input, got {inputs.layout}")
    if inputs.group_size < r:
        raise ValueError(f"input carries {inputs.group_size} replicas, need {r}")
    gamma = filters.filter_side
    groups = -(-filters.filter_count // r)

    def one(key):
        kg, u, v = key
        acc = None
        for x in range(gamma):
            for y in range(gamma):
                for i in range(filters.channel_count):
                    term = backend.mul(
                        inputs.ct(i, stride * u + x, stride * v + y),
                        filters.cells[(kg, i, x, y)],
                    )
                    acc = _accumulate(backend, acc, term)
        return acc

    keys = [(kg, u, v) for kg in range(groups)
            for u in range(out_grid) for v in range(out_grid)]
    cells = _map_keys(one, keys, threads)
    return PackedTensor(cells, CONV_CROSS_CHANNEL, inputs.n, inputs.grid_side,
                        inputs.seg_slots, group_size=r)


def fl_forward_type1(backend: SimulatorBackend, inputs: PackedTensor,
                     weights: PackedWeights, threads: int = 1) -> PackedTensor:
    """Type I fully-connected layer: products against per-output-row weight
    ciphertexts, then a doubling rotate-sum folds all pi-set blocks so every
    output ciphertext holds S/n replicas of its n per-image dot products."""
    if inputs.layout != FL_TYPE1:
        raise ValueError(f"expected {FL_TYPE1} input, got {inputs.layout}")
    if weights.kind != "type1":
        raise ValueError("type I propagation needs type1 weights")
    n = inputs.n
    slot_count = next(iter(inputs.cells.values())).slot_count

    def one(i):
        acc = None
        for j in range(weights.in_cts):
            acc = _accumulate(backend, acc,
                              backend.mul(inputs.ct(j), weights.cells[(i, j)]))
        return fold_rotate_sum(backend, acc, n, slot_count // n)

    cells = {(i,): ct for i, ct in _map_keys(one, range(weights.out_neurons),
                                             threads).items()}
    return PackedTensor(cells, FL_TYPE2, n, pi_sets=1, neurons=weights.out_neurons)


def fl_forward_type2(backend: SimulatorBackend, inputs: PackedTensor,
                     weights: PackedWeights, threads: int = 1) -> PackedTensor:
    """Type II fully-connected layer: each replicated input ciphertext meets
    its per-input-column weight ciphertext; no rotations are needed.  The
    output packs the o output neurons as consecutive pi-sets (a type I input
    for the next layer)."""
    if inputs.layout != FL_TYPE2:
        raise ValueError(f"expected {FL_TYPE2} input, got {inputs.layout}")
    if weights.kind != "type2":
        raise ValueError("type II propagation needs type2 weights")
    n = inputs.n
    slot_count = next(iter(inputs.cells.values())).slot_count

    def one(j):
        acc = None
        for i in range(weights.in_cts):
            acc = _accumulate(backend, acc,
                              backend.mul(inputs.ct(i), weights.cells[(i, j)]))
        return acc

    cells = {(j,): ct for j, ct in _map_keys(one, range(weights.out_cts),
                                             threads).items()}
    return PackedTensor(cells, FL_TYPE1, n, pi_sets=slot_count // n,
                        neurons=weights.out_neurons)


def square_activation(backend: SimulatorBackend, tensor: PackedTensor,
                      threads: int = 1) -> PackedTensor:
    """Square every slot (one ciphertext-ciphertext product per cell)."""
    cells = _map_keys(lambda key: backend.mul(tensor.cells[key], tensor.cells[key]),
                      list(tensor.cells), threads)
    return PackedTensor(cells, tensor.layout, tensor.n, tensor.grid_side,
                        tensor.seg_slots, tensor.group_size, tensor.pi_sets,
                        tensor.neurons)
