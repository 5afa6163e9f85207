"""Backward propagation and TEE-assisted parameter updates.

Gradients flow in the mirror layouts of their forward counterparts.  Per-image
weight gradients are summed over the n parallel inputs with a signed rotation
plan that parks each sum at a per-weight slot offset, so many gradients can be
masked into few ciphertexts before the trusted service re-encrypts them; the
reverse rotations then spread each refreshed gradient back over its blocks and
the parameters are updated with a plain homomorphic addition.

The descent sign and learning-rate scaling ride in the packing selector
(value -lr/n at the masked slots), so the additive update performs SGD on the
batch mean.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lhe import Ciphertext, SimulatorBackend
from .packing import (
    CONV_BASIC,
    FL_TYPE1,
    FL_TYPE2,
    PackedFilters,
    PackedTensor,
    PackedWeights,
    compute_rotation_plan,
    fold_rotate_sum,
    make_selector,
    signed_rotate_spread,
    signed_rotate_sum,
)


def activation_gradient(backend: SimulatorBackend, grads: PackedTensor,
                        preacts: PackedTensor | None,
                        exact: bool = True) -> PackedTensor:
    """Chain rule through the square activation: g <- 2 * g * preactivation.

    ``exact=False`` drops the cached pre-activation factor and applies only
    the constant 2, which saves two levels per layer (one multiplication and
    the cached operand's level cap) at the cost of a distorted gradient.
    """
    slot_count = grads.slot_count
    two = np.full(slot_count, 2.0)
    cells = {}
    for key, ct in grads.cells.items():
        g = backend.cmul(ct, two)
        if exact:
            if preacts is None:
                raise ValueError("exact activation gradient needs cached pre-activations")
            g = backend.mul(g, preacts.cells[key])
        cells[key] = g
    return replace(grads, cells=cells)


# ---------------------------------------------------------------------------
# Fully-connected layers
# ---------------------------------------------------------------------------


def fl_backward_type1(backend: SimulatorBackend, out_grads: PackedTensor,
                      weights: PackedWeights) -> PackedTensor:
    """Input gradients of a type-I layer: for each input ciphertext i,
    sum the products of every output gradient with its weight ciphertext.
    The result is in the layer's (multi-pi-set) input layout."""
    if weights.kind != "type1":
        raise ValueError("type I backward needs type1 weights")
    cells = {}
    for i in range(weights.in_cts):
        cells[(i,)] = backend.mul_sum((out_grads.ct(j), weights.cells[(j, i)])
                                      for j in range(weights.out_neurons))
    return PackedTensor(cells, FL_TYPE1, out_grads.n,
                        pi_sets=weights.pi_per_ct, neurons=weights.in_neurons)


def fl_backward_type2(backend: SimulatorBackend, out_grads: PackedTensor,
                      weights: PackedWeights) -> PackedTensor:
    """Input gradients of a type-II layer; the closing rotate-sum folds the
    pi-set blocks so each input gradient is replicated (type-II layout)."""
    if weights.kind != "type2":
        raise ValueError("type II backward needs type2 weights")
    slot_count = out_grads.slot_count
    n = out_grads.n
    cells = {}
    for i in range(weights.in_cts):
        acc = backend.mul_sum((out_grads.ct(j), weights.cells[(i, j)])
                              for j in range(weights.out_cts))
        cells[(i,)] = fold_rotate_sum(backend, acc, n, slot_count // n)
    return PackedTensor(cells, FL_TYPE2, n, pi_sets=1, neurons=weights.in_neurons)


def fl_weight_gradients(backend: SimulatorBackend, out_grads: PackedTensor,
                        cached_inputs: PackedTensor,
                        weights: PackedWeights) -> dict[tuple[int, int], Ciphertext]:
    """Raw weight-gradient ciphertexts: product of output gradient j with
    cached forward input i, then a signed rotate-sum that parks the sum over
    the n parallel images at in-block offset (j * in_cts + i) mod n of every
    pi-set block."""
    n = out_grads.n
    raw: dict[tuple[int, int], Ciphertext] = {}
    for j in range(weights.out_cts):
        for i in range(weights.in_cts):
            prod = backend.mul(out_grads.ct(j), cached_inputs.ct(i))
            plan = compute_rotation_plan((j * weights.in_cts + i) % n, n)
            raw[(j, i)] = signed_rotate_sum(backend, prod, plan)
    return raw


# ---------------------------------------------------------------------------
# Convolutional layers
# ---------------------------------------------------------------------------


def conv_backward(backend: SimulatorBackend, out_grads: PackedTensor,
                  filters: PackedFilters, out_grid: int, stride: int,
                  in_grid: int) -> PackedTensor:
    """Input gradients of a conv layer: each output-gradient cell multiplies
    every filter element and accumulates into the input grid position it read
    in the forward pass.  Grid positions the kernel never visits get a zero
    gradient."""
    if filters.layout != CONV_BASIC:
        raise ValueError("backward propagation supports the basic conv layout")
    gamma = filters.filter_side
    cells: dict[tuple, Ciphertext] = {}
    for i in range(filters.channel_count):
        for u in range(out_grid):
            for v in range(out_grid):
                for x in range(gamma):
                    for y in range(gamma):
                        target = (i, stride * u + x, stride * v + y)
                        cells[target] = backend.mul_sum(
                            ((out_grads.ct(k, u, v), filters.cells[(k, i, x, y)])
                             for k in range(filters.filter_count)),
                            cells.get(target))
    # Never-visited positions carry an exact zero; represent it directly
    # (the additive identity needs no encryption).
    sample = next(iter(cells.values()))
    zero = Ciphertext(np.zeros(sample.slot_count), sample.level, sample.key_id,
                      sample.pending_rescale)
    for i in range(filters.channel_count):
        for a in range(in_grid):
            for b in range(in_grid):
                cells.setdefault((i, a, b), zero)
    return PackedTensor(cells, CONV_BASIC, out_grads.n, out_grads.grid_side,
                        out_grads.seg_slots)


def conv_kernel_gradients(backend: SimulatorBackend, cached_inputs: PackedTensor,
                          out_grads: PackedTensor, filters: PackedFilters,
                          out_grid: int, stride: int,
                          ) -> dict[tuple[int, int, int, int], Ciphertext]:
    """Raw kernel-gradient ciphertexts for one conv layer.

    Each kernel element correlates the cached inputs it touched with the
    output gradients.  Every pi-set block then holds a partial sum restricted
    to its grid position, so a full rotate-sum folds all blocks before the
    signed plan parks the batch-and-position total at in-block offset
    (flat kernel index) mod n of every block.
    """
    gamma = filters.filter_side
    alpha = filters.channel_count
    n = out_grads.n
    slot_count = out_grads.slot_count
    grid = [(u, v) for u in range(out_grid) for v in range(out_grid)]
    raw: dict[tuple[int, int, int, int], Ciphertext] = {}
    for k in range(filters.filter_count):
        for i in range(alpha):
            for x in range(gamma):
                for y in range(gamma):
                    acc = backend.mul_sum(
                        (cached_inputs.ct(i, stride * u + x, stride * v + y),
                         out_grads.ct(k, u, v)) for u, v in grid)
                    acc = fold_rotate_sum(backend, acc, n, slot_count // n)
                    idx = k * alpha * gamma**2 + i * gamma**2 + x * gamma + y
                    raw[(k, i, x, y)] = signed_rotate_sum(
                        backend, acc, compute_rotation_plan(idx % n, n))
    return raw


# ---------------------------------------------------------------------------
# Noise removal and parameter update
# ---------------------------------------------------------------------------


def pack_count(gradient_count: int, n: int) -> int:
    """Packed ciphertexts sent for re-encryption: ceil(count / n)."""
    return -(-gradient_count // n)


def noise_removal_update(backend: SimulatorBackend, reencrypt,
                         raw_grads: dict[tuple, Ciphertext],
                         target_cells: dict[tuple, Ciphertext],
                         target_key, lr: float, n: int) -> int:
    """Pack raw gradients, refresh them through ``reencrypt``, unpack/spread,
    and add them into the parameter ciphertexts.

    Gradient ``idx`` (in sorted key order) is masked by a selector with value
    -lr/n at slots congruent to idx mod n and accumulated into packed
    ciphertext idx // n, so the parameter receives the spread SGD step
    additively.  Each gradient is popped from ``raw_grads`` once masked, so it
    is freed before the re-encryption unless the caller holds it elsewhere.
    After re-encryption the mask is reapplied and the signed rotations
    replicate each value over its block.  Returns the number of packed
    ciphertexts re-encrypted.

    Both passes walk the gradients offset by offset, so each selector is
    built once and only one is alive at a time; every packed ciphertext still
    sums its gradients in index order.
    """
    order = sorted(raw_grads)
    if not order:
        return 0
    slot_count = raw_grads[order[0]].slot_count
    offsets = range(min(n, len(order)))
    packed: dict[int, Ciphertext] = {}
    for p in offsets:
        selector = make_selector(p, n, slot_count, -lr / n)
        for idx in range(p, len(order), n):
            masked = backend.cmul(raw_grads.pop(order[idx]), selector)
            k = idx // n
            packed[k] = masked if p == 0 else backend.add(packed[k], masked)

    fresh = reencrypt([packed[k] for k in sorted(packed)])

    for p in offsets:
        selector = make_selector(p, n, slot_count, 1.0)
        plan = compute_rotation_plan(p, n)
        for idx in range(p, len(order), n):
            ct = backend.cmul(fresh[idx // n], selector)
            ct = signed_rotate_spread(backend, ct, plan)
            tkey = target_key(order[idx])
            target_cells[tkey] = backend.add(target_cells[tkey], ct)
    return len(packed)
