"""Backward propagation and TEE-assisted parameter updates.

Gradients flow in the mirror layouts of their forward counterparts, and, as
there, each layer function reads its form from its parameters
(:func:`fl_backward` from the weights' kind).  The layer functions return a
layer's raw per-image weight gradients as a plain dict keyed by the
parameter cell each updates.  Each value is a zero-argument
``functools.partial`` that makes its gradient (conv kernel gradients come
out folded over their grid positions), so nothing is computed until
:func:`refresh_gradients` calls it as the gradient's pack takes it, and each
gradient is packed while it is fresh.  A stage packs its weight gradients
before it makes its input gradients (:func:`fl_backward`,
:func:`conv_backward`): the makers are the last readers of the cached layer
input, so it is freed before the input gradients are allocated.  Like the
forward square, :func:`activation_gradient` consumes the tensor it is given,
so each of the previous stage's input gradients is freed as its replacement
is made.

The update has two halves, so a caller can run every layer's first half
before any parameter changes.  :func:`refresh_gradients` packs: a signed
rotation plan sums each gradient over the n parallel inputs into a
per-weight slot offset ``p`` of every n-slot block, and the mask that keeps
those slots rides in the same call, one
:func:`~lhecnn.packing.signed_rotate_sum` per packed ciphertext of n
gradients for the trusted service to re-encrypt.  It reads no parameter
cell.  :func:`apply_refreshed` then runs one
:func:`~lhecnn.packing.signed_rotate_spread` per gradient of a refreshed
pack, which keeps its slot ``p`` again and spreads it back over its blocks,
added straight into the parameter cell under its key, and replaces that cell
at once, handing the old one to the backend's ``retire``: the update is a
plain homomorphic addition.

The descent sign and learning-rate scaling ride in the packing mask (scale
-lr/n at the kept slots), so the additive update performs SGD on the batch
mean.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import replace
from functools import partial

import numpy as np

from .lhe import Ciphertext, SimulatorBackend
from .packing import (
    CONV_BASIC,
    FL_TYPE1,
    FL_TYPE2,
    PackedFilters,
    PackedTensor,
    PackedWeights,
    fold_rotate_sum,
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

    Consumes ``grads``, as :func:`~lhecnn.forward.square_activation` does its
    tensor: each cell is popped from ``grads.cells`` once its product is
    made, so an output gradient nobody else holds is freed as its
    replacement is made, and ``grads`` is left with no cells.  ``preacts``
    may be ``grads`` itself.
    """
    if exact and preacts is None:
        raise ValueError("exact activation gradient needs cached pre-activations")
    two = np.full(grads.slot_count, 2.0)
    src, cells = grads.cells, {}
    for key in list(src):
        g = backend.cmul(src[key], two)
        if exact:
            g = backend.mul(g, preacts.cells[key])
        cells[key] = g
        del src[key]
    return replace(grads, cells=cells)


# ---------------------------------------------------------------------------
# Fully-connected layers
# ---------------------------------------------------------------------------


def fl_backward(backend: SimulatorBackend, out_grads: PackedTensor,
                weights: PackedWeights) -> PackedTensor:
    """Input gradients of a fully-connected layer, in its input layout: input
    cell i sums the products of every output gradient j with weight cell
    ``weights.weight_key(j, i)``.  A type II layer then folds the pi-set
    blocks, so each input gradient is replicated (type II layout); a type I
    layer's gradients keep its many-pi-set input layout."""
    type2 = weights.kind == "type2"
    n = out_grads.n
    blocks = out_grads.slot_count // n
    grads = [out_grads.cells[(j,)] for j in range(weights.out_cts)]
    cells = {}
    for i in range(weights.in_cts):
        acc = backend.mul_sum(zip(grads, weights.column(i)))
        cells[(i,)] = fold_rotate_sum(backend, acc, n, blocks) if type2 else acc
    if type2:
        return PackedTensor(cells, FL_TYPE2, n, pi_sets=1)
    return PackedTensor(cells, FL_TYPE1, n, pi_sets=weights.pi_per_ct)


def fl_weight_gradients(backend: SimulatorBackend, out_grads: PackedTensor,
                        cached_inputs: PackedTensor,
                        weights: PackedWeights) -> dict[tuple, Callable[[], Ciphertext]]:
    """Raw weight gradients, keyed by the weight cell each updates: under
    ``weights.weight_key(j, i)``, the maker of the product of output gradient
    j with cached forward input i, one image per slot of each pi-set block.
    :func:`refresh_gradients` sums it over the n images."""
    grads = [out_grads.cells[(j,)] for j in range(weights.out_cts)]
    inputs = [cached_inputs.cells[(i,)] for i in range(weights.in_cts)]
    return {weights.weight_key(j, i): partial(backend.mul, grad, inp)
            for j, grad in enumerate(grads) for i, inp in enumerate(inputs)}


# ---------------------------------------------------------------------------
# Convolutional layers
# ---------------------------------------------------------------------------


def conv_backward(backend: SimulatorBackend, out_grads: PackedTensor,
                  filters: PackedFilters, out_grid: int, stride: int,
                  in_grid: int) -> PackedTensor:
    """Input gradients of a conv layer: each output-gradient cell multiplies
    every filter element and accumulates into the input grid position it read
    in the forward pass, one :meth:`~lhecnn.lhe.SimulatorBackend.mul_sum`
    per position over all its terms.  Grid positions the kernel never visits
    get a zero gradient."""
    if filters.layout != CONV_BASIC:
        raise ValueError("backward propagation supports the basic conv layout")
    gamma = filters.filter_side
    terms: dict[tuple, list] = {}
    for i in range(filters.channel_count):
        for u in range(out_grid):
            for v in range(out_grid):
                for x in range(gamma):
                    for y in range(gamma):
                        terms.setdefault((i, stride * u + x, stride * v + y), []).extend(
                            (out_grads.ct(k, u, v), filters.cells[(k, i, x, y)])
                            for k in range(filters.filter_count))
    cells = {target: backend.mul_sum(pairs) for target, pairs in terms.items()}
    zero = backend.zero_like(next(iter(cells.values())))
    for i in range(filters.channel_count):
        for a in range(in_grid):
            for b in range(in_grid):
                cells.setdefault((i, a, b), zero)
    return PackedTensor(cells, CONV_BASIC, out_grads.n, out_grads.grid_side,
                        out_grads.seg_slots)


def conv_kernel_gradients(backend: SimulatorBackend, cached_inputs: PackedTensor,
                          out_grads: PackedTensor, filters: PackedFilters,
                          out_grid: int,
                          stride: int) -> dict[tuple, Callable[[], Ciphertext]]:
    """Raw kernel gradients for one conv layer: the maker of each, keyed by
    kernel element ``(k, i, x, y)``.

    Each kernel element correlates the cached inputs it touched with the
    output gradients.  Every pi-set block then holds a partial sum restricted
    to its grid position, so a full rotate-sum folds all blocks: each block
    holds the position total, one image per slot.
    :func:`refresh_gradients` sums it over the n images.
    """
    gamma = filters.filter_side
    n = out_grads.n
    blocks = out_grads.slot_count // n
    grid = [(u, v) for u in range(out_grid) for v in range(out_grid)]
    in_cells, grad_cells = cached_inputs.cells, out_grads.cells
    grads = [[grad_cells[(k, u, v)] for u, v in grid] for k in range(filters.filter_count)]
    windows = {(i, x, y): [in_cells[(i, stride * u + x, stride * v + y)] for u, v in grid]
               for i in range(filters.channel_count)
               for x in range(gamma) for y in range(gamma)}

    def kernel_gradient(window, grads_k):
        return fold_rotate_sum(backend, backend.mul_sum(zip(window, grads_k)), n, blocks)

    return {(k, *cell): partial(kernel_gradient, window, grads_k)
            for k, grads_k in enumerate(grads) for cell, window in windows.items()}


# ---------------------------------------------------------------------------
# Noise removal and parameter update
# ---------------------------------------------------------------------------


class _Popped:
    """The gradients under ``keys``, each maker popped from ``grads`` and
    called as it is iterated: a sized iterable that a pack reads once."""

    __slots__ = ("grads", "keys")

    def __init__(self, grads, keys: list[tuple]):
        self.grads, self.keys = grads, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Ciphertext]:
        return (self.grads.pop(key)() for key in self.keys)


def pack_count(gradient_count: int, n: int) -> int:
    """Packed ciphertexts sent for re-encryption: ceil(count / n)."""
    return -(-gradient_count // n)


def refresh_gradients(backend: SimulatorBackend, reencrypt,
                      raw_grads: dict[tuple, Callable[[], Ciphertext]], lr: float,
                      n: int) -> deque[tuple[tuple, Ciphertext, int]]:
    """Pack raw gradients and refresh the packs through ``reencrypt``: the
    first half of the update, which reads and changes no parameter cell.

    The gradients go, in the iteration order of ``raw_grads``, n to a packed
    ciphertext: gradient ``idx`` is summed over the n images into slot offset
    ``p = idx mod n`` of every block and masked there with scale -lr/n, one
    :func:`signed_rotate_sum` per packed ciphertext, so the parameter receives
    the spread SGD step additively.  The pack pops each gradient's maker
    from ``raw_grads`` and calls it as it takes the gradient, so it is packed
    while it is fresh, and neither it nor its operands are alive at the
    re-encryption unless the caller holds them elsewhere.  All the packs go
    to ``reencrypt`` in one call.  Returns the queue :func:`apply_refreshed`
    takes: one entry ``(key, pack, g)`` per gradient, in order, naming its
    refreshed pack and its offset in it.

    The reply is checked here, so that its spread cannot refuse it once
    parameter cells have begun to change: raises ValueError, naming both
    counts, unless it holds one ciphertext per pack sent, and naming the
    pack, unless each ciphertext has its pack's key and slot count and a
    level of at least 1 for the spread's mask.
    """
    order = list(raw_grads)
    packed = [signed_rotate_sum(backend, _Popped(raw_grads, order[start:start + n]), n, -lr / n)
              for start in range(0, len(order), n)]
    if not packed:
        return deque()
    fresh = reencrypt(packed)
    if len(fresh) != len(packed):
        raise ValueError(f"re-encryption returned {len(fresh)} ciphertexts "
                         f"for {len(packed)} packs sent")
    for idx, (ct, pack) in enumerate(zip(fresh, packed)):
        if (ct.key_id, ct.slot_count) != (pack.key_id, pack.slot_count) or ct.level < 1:
            raise ValueError(f"re-encrypted pack {idx} of {len(packed)} has key "
                             f"{ct.key_id!r}, {ct.slot_count} slots and level {ct.level}; "
                             f"its pack has key {pack.key_id!r} and {pack.slot_count} "
                             f"slots, and the spread needs a level of at least 1")
    return deque((key, fresh[idx // n], idx % n) for idx, key in enumerate(order))


def apply_refreshed(backend: SimulatorBackend,
                    refreshed: deque[tuple[tuple, Ciphertext, int | None]],
                    target_cells: dict[tuple, Ciphertext], n: int) -> None:
    """Add each refreshed gradient of :func:`refresh_gradients` into the
    parameter cell under its key in ``target_cells``: the second half of the
    update, one :func:`signed_rotate_spread` per gradient.

    The new cell takes its entry's place at the front of ``refreshed``
    (offset ``None``), replaces the old cell, which goes to the backend's
    :meth:`~lhecnn.lhe.SimulatorBackend.retire`, and leaves the queue: each
    old cell dies as its new one is made, and a pack once its last gradient
    is spread.

    Called again with the queue an exception left, it applies each gradient
    exactly once.  An exception before a new cell is queued leaves the old
    cell and the entry in place, so that one gradient is spread again (and
    its ops metered again); one after that assigns the queued cell again,
    which changes nothing.
    """
    while refreshed:
        key, ct, g = refreshed[0]
        if g is not None:  # the pack, not yet spread
            ct = signed_rotate_spread(backend, ct, n, g, target_cells[key])
            refreshed[0] = key, ct, None
        backend.retire(target_cells[key])
        target_cells[key] = ct
        refreshed.popleft()
