"""Ciphertext layouts: image/filter/weight encoders, rotation plans.

Slot layout conventions (S slots, n parallel inputs, grid side b):

* A *pi-set* is a run of ``n`` consecutive slots holding the same logical
  value from the ``n`` parallel inputs.
* Conv layouts place the pi-set for grid position ``(s, t)`` at slot offset
  ``(s*b + t) * n`` (row-major), one ciphertext per (channel, kernel cell).
  One channel's grid occupies ``seg = n*b*b`` slots; cross-channel packing
  stacks ``r`` channels' segments in one ciphertext, cross-filter packing
  stacks ``r`` replicas of the same segment so ``r`` filters can multiply it
  at once.
* Fully-connected type I input: each ciphertext carries several pi-sets
  (neurons) without replication.  Type II input: one pi-set replicated S/n
  times.  The two alternate layer to layer; a layer's form is the kind of its
  :class:`PackedWeights`.  A tensor holds no neuron count: the weights on
  either side of it say how many of its pi-sets are neurons.

:func:`conv_segments` is the slot map of each conv layout: which filter and
channel each segment of a cell holds.  Each parameter container,
:class:`PackedFilters` and :class:`PackedWeights`, turns it (or the fc rule)
into its own ``slot_map``: which slot ranges of a cell hold which parameter.
:func:`encode_params` and the session's decoder both read that map.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .geometry import CombinedGeometry
from .lhe import Ciphertext, KeyContext, SimulatorBackend

CONV_BASIC = "conv-basic"
CONV_CROSS_CHANNEL = "conv-cross-channel"
CONV_CROSS_FILTER = "conv-cross-filter"
FL_TYPE1 = "fl-type1"
FL_TYPE2 = "fl-type2"

LAYOUTS = (CONV_BASIC, CONV_CROSS_CHANNEL, CONV_CROSS_FILTER, FL_TYPE1, FL_TYPE2)


class LazyCells(Mapping):
    """Cells made on first read: each key holds a zero-argument maker until
    its first ``[]`` (or ``pop``) calls it, and then the cell it made.  Keys
    iterate in the makers' order, and ``len`` and ``in`` make nothing, so a
    reader of a plain dict of cells reads this the same way; a maker that
    raises leaves its key unmade."""

    __slots__ = ("_cells", "_unmade")

    def __init__(self, makers: dict[tuple, Callable[[], Ciphertext]]):
        self._cells = dict(makers)
        self._unmade = set(makers)

    def __getitem__(self, key: tuple) -> Ciphertext:
        cell = self._cells[key]
        if key in self._unmade:
            cell = self._cells[key] = cell()
            self._unmade.remove(key)
        return cell

    def pop(self, key: tuple) -> Ciphertext:
        """The cell under ``key``, made if it was not, and removed."""
        cell = self._cells[key]
        if key in self._unmade:
            cell = cell()
            self._unmade.remove(key)
        del self._cells[key]
        return cell

    def __contains__(self, key) -> bool:
        return key in self._cells

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


@dataclass
class PackedTensor:
    """An indexed grid of ciphertexts carrying one layer's packed values.

    Conv layouts key cells by ``(channel_or_group, u, v)``; fully-connected
    layouts key by ``(j,)``.  ``cells`` is a dict, or a :class:`LazyCells`
    whose cells are made as they are first read.  ``group_size`` is the
    cross-packing factor r (channels per ciphertext, or replicas available
    to cross-filter multiplication); ``pi_sets`` is the per-ciphertext pi-set
    count for fully-connected layouts.
    """

    cells: dict[tuple, Ciphertext] | LazyCells
    layout: str
    n: int
    grid_side: int = 0
    seg_slots: int = 0
    group_size: int = 1
    pi_sets: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")

    def ct(self, *key) -> Ciphertext:
        return self.cells[key]

    def cts(self) -> list[Ciphertext]:
        return [self.cells[k] for k in sorted(self.cells)]

    @property
    def slot_count(self) -> int:
        return next(iter(self.cells.values())).slot_count

    def level(self) -> int:
        levels = {ct.level for ct in self.cells.values()}
        if len(levels) != 1:
            raise ValueError(f"mixed levels in tensor: {sorted(levels)}")
        return levels.pop()


@dataclass
class PackedFilters:
    """Encrypted filter elements for one conv layer.

    Cells are keyed ``(a, b, x, y)``: filter (group) ``a``, channel (group)
    ``b`` and kernel element ``(x, y)``; :func:`conv_segments` says which
    filter and channel each ``seg_slots``-slot segment of a cell holds.
    """

    cells: dict[tuple[int, int, int, int], Ciphertext]
    layout: str
    filter_count: int
    channel_count: int
    filter_side: int
    seg_slots: int
    group_size: int = 1

    @property
    def shape(self) -> tuple[int, int, int, int]:
        side = self.filter_side
        return self.filter_count, self.channel_count, side, side

    def cell_keys(self) -> list[tuple[int, int, int, int]]:
        """Every cell key the layout calls for, in encryption order."""
        filter_cells, channel_cells = conv_cell_counts(
            self.layout, self.group_size, self.filter_count, self.channel_count)
        side = range(self.filter_side)
        return [(a, b, x, y) for a in range(filter_cells) for b in range(channel_cells)
                for x in side for y in side]

    def slot_map(self, key: tuple[int, int, int, int]) -> list[tuple[int, int, tuple]]:
        """``(start, stop, index)`` per segment of cell ``key``: slots
        ``start:stop`` hold filter element ``index`` = (filter, channel, x, y).
        Padding segments are left out."""
        a, b, x, y = key
        seg = self.seg_slots
        return [(q * seg, (q + 1) * seg, (k, i, x, y))
                for q, k, i in conv_segments(self.layout, self.group_size, a, b)
                if k < self.filter_count and i < self.channel_count]


@dataclass
class PackedWeights:
    """Encrypted fully-connected weight matrix; build an empty one with
    :func:`empty_weights`.

    Type I ("many pi-sets in" layers): cell ``(i, j)`` holds row ``i`` of the
    weight matrix restricted to input-ciphertext ``j``'s neurons, each value
    replicated n times.  Type II ("replicated pi-set in" layers): cell
    ``(i, j)`` holds column ``i`` for the output rows of output-ciphertext
    ``j``, each value replicated n times, zero beyond the last output.
    """

    cells: dict[tuple[int, int], Ciphertext]
    kind: str  # "type1" | "type2"
    out_neurons: int   # o
    in_neurons: int    # logical input neuron count
    in_cts: int        # input ciphertext count the layout expects
    out_cts: int       # forward output ciphertext count
    pi_per_ct: int     # pi-sets per cell: input neurons (type I), output rows (type II)
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.out_neurons, self.in_neurons

    def weight_key(self, j: int, i: int) -> tuple[int, int]:
        """Cell connecting output-ct index ``j`` and input-ct index ``i``."""
        return (j, i) if self.kind == "type1" else (i, j)

    def row(self, j: int) -> list[Ciphertext]:
        """The cells output-ct ``j`` reads, by input-ct index ``i``: the cell
        under ``weight_key(j, i)`` for each i."""
        cells, inputs = self.cells, range(self.in_cts)
        if self.kind == "type1":
            return [cells[(j, i)] for i in inputs]
        return [cells[(i, j)] for i in inputs]

    def column(self, i: int) -> list[Ciphertext]:
        """The cells input-ct ``i`` feeds, by output-ct index ``j``: the cell
        under ``weight_key(j, i)`` for each j."""
        cells, outputs = self.cells, range(self.out_cts)
        if self.kind == "type1":
            return [cells[(j, i)] for j in outputs]
        return [cells[(i, j)] for j in outputs]

    def cell_keys(self) -> list[tuple[int, int]]:
        """Every cell key the layout calls for, in encryption order: sorted,
        so the key's first index is the outer loop."""
        outer, inner = ((self.out_cts, self.in_cts) if self.kind == "type1"
                        else (self.in_cts, self.out_cts))
        return [(a, b) for a in range(outer) for b in range(inner)]

    def slot_map(self, key: tuple[int, int]) -> list[tuple[int, int, tuple[int, int]]]:
        """``(start, stop, (row, col))`` per pi-set of cell ``key`` = ``(a, b)``:
        slots ``start:stop`` hold ``matrix[row, col]``.  Pi-set ``w`` holds
        row ``a`` and column ``b * pi_per_ct + w`` (type I), or row
        ``b * pi_per_ct + w`` and column ``a`` (type II).  Padding past the
        matrix is left out."""
        a, b = key
        n, first = self.n, b * self.pi_per_ct
        indices = [(a, first + w) if self.kind == "type1" else (first + w, a)
                   for w in range(self.pi_per_ct)]
        return [(w * n, (w + 1) * n, (row, col)) for w, (row, col) in enumerate(indices)
                if row < self.out_neurons and col < self.in_neurons]


def empty_weights(kind: str, shape: tuple[int, int], n: int, slot_count: int,
                  in_cts: int = 0, pi_per_ct: int = 0) -> PackedWeights:
    """An empty weight container for an ``(outputs, inputs)`` matrix.

    Type I takes its input layout, ``in_cts`` ciphertexts of ``pi_per_ct``
    neurons each, and has one cell row per output neuron.  Type II has one
    input ciphertext per input neuron and packs ``S/n`` output rows per cell;
    it ignores ``in_cts`` and ``pi_per_ct``.
    """
    out_n, in_n = shape
    if kind == "type1":
        if in_cts * pi_per_ct < in_n:
            raise ValueError(f"{in_cts} cts x {pi_per_ct} pi-sets cannot hold {in_n} inputs")
        if pi_per_ct * n > slot_count:
            raise ValueError("pi-sets do not fit in one ciphertext")
        return PackedWeights({}, kind, out_n, in_n, in_cts, out_n, pi_per_ct, n)
    if kind == "type2":
        block = slot_count // n
        return PackedWeights({}, kind, out_n, in_n, in_n, -(-out_n // block), block, n)
    raise ValueError(f"not a weight kind: {kind!r}")


def conv_segments(layout: str, r: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """Slot map of conv cell ``(a, b, x, y)`` as ``(q, filter, channel)``:
    segment ``q`` (slots ``q*seg`` to ``(q+1)*seg``) holds that filter and
    channel.  Basic cells hold filter ``a`` and channel ``b``; cross-channel
    cells hold channels ``b*r + q``; cross-filter cells hold filters
    ``a*r + q``.  Indices past the layer's size are padding."""
    if layout == CONV_BASIC:
        return [(0, a, b)]
    if layout == CONV_CROSS_CHANNEL:
        return [(q, a, b * r + q) for q in range(r)]
    if layout == CONV_CROSS_FILTER:
        return [(q, a * r + q, b) for q in range(r)]
    raise ValueError(f"not a conv layout: {layout!r}")


def conv_cell_counts(layout: str, r: int, filters: int, channels: int) -> tuple[int, int]:
    """Cell counts along the filter axis ``a`` and the channel axis ``b``."""
    if layout == CONV_BASIC:
        return filters, channels
    if layout == CONV_CROSS_CHANNEL:
        return filters, -(-channels // r)
    if layout == CONV_CROSS_FILTER:
        return -(-filters // r), channels
    raise ValueError(f"not a conv layout: {layout!r}")


def conv_output_layout(layout: str, r: int, seg_slots: int,
                       slot_count: int) -> tuple[str, int]:
    """Layout and group size of a conv layer's output, i.e. the next layer's
    input.  Cross-filter outputs hold one filter per segment (cross-channel
    packed); cross-channel outputs, folded over their r segments, hold r
    replicas (cross-filter packed) when those segments tile the ciphertext
    (``r * seg_slots == slot_count``), and only segment 0 (basic)
    otherwise."""
    if layout == CONV_CROSS_FILTER:
        return CONV_CROSS_CHANNEL, r
    if layout == CONV_CROSS_CHANNEL and r * seg_slots == slot_count:
        return CONV_CROSS_FILTER, r
    return CONV_BASIC, 1


def conv_output_pi_sets(layout: str, group: int, grid_side: int) -> int:
    """Pi-sets (fc input neurons) per ciphertext of a conv output with a 1x1
    cell grid: every grid position of every channel segment it holds.
    Cross-filter replicas repeat one channel, so they add none."""
    if layout in (CONV_BASIC, CONV_CROSS_FILTER):
        return grid_side**2
    if layout == CONV_CROSS_CHANNEL:
        return group * grid_side**2
    raise ValueError(f"not a conv output layout: {layout!r}")


@dataclass(frozen=True)
class RotationPlan:
    """Signed power-of-two rotation schedule targeting in-block offset ``p``.

    ``directions[k]`` is -1 when bit ``k`` of ``p`` is set, else +1.  Applying
    ``v += rot(v, 2**k * directions[k])`` for all k sums each n-block into its
    slot ``p``; the reversed signs spread a value at slot ``p`` over its block.
    """

    offset: int
    n: int
    directions: tuple[int, ...]


@lru_cache(maxsize=4096)
def compute_rotation_plan(p: int, n: int) -> RotationPlan:
    """The plan for offset ``p`` of n-slot blocks; built once per (p, n) and
    shared, as a plan is immutable."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    if not 0 <= p < n:
        raise ValueError(f"offset {p} outside [0, {n})")
    bits = n.bit_length() - 1
    return RotationPlan(p, n, tuple(-1 if (p >> k) & 1 else 1 for k in range(bits)))


# ---------------------------------------------------------------------------
# Rotate-and-sum helpers
# ---------------------------------------------------------------------------


def fold_rotate_sum(backend: SimulatorBackend, ct: Ciphertext, block_slots: int,
                    count: int) -> Ciphertext:
    """Sum ``count`` consecutive blocks of ``block_slots`` slots with doubling
    rotations.  When the blocks tile the ciphertext exactly, every block ends
    up holding the block-wise total, each summed in its own order, so the
    replicas agree up to rounding, not bit for bit (of 64 blocks of random
    values at S=4096, 2 matched block 0 exactly); otherwise only block 0 is
    guaranteed valid."""
    if count & (count - 1):
        raise ValueError(f"block count must be a power of two, got {count}")
    return backend.rotate_add(
        ct, [block_slots << k for k in range(count.bit_length() - 1)])


def signed_rotate_sum(backend: SimulatorBackend, cts: Sequence[Ciphertext],
                      n: int, scale: float) -> Ciphertext:
    """Pack 1 to n ciphertexts into one: each n-block of ``cts[g]``
    aggregated into its slot g by the plan ``compute_rotation_plan(g, n)``,
    and only those slots kept, times ``scale``."""
    return backend.pack_sums(cts, n, scale)


def signed_rotate_spread(backend: SimulatorBackend, ct: Ciphertext, n: int, g: int,
                         acc: Ciphertext) -> Ciphertext:
    """Inverse of :func:`signed_rotate_sum` for gradient g: keep each
    n-block's slot g of ``ct``, replicate it over the whole block and add
    it to ``acc``."""
    return backend.unpack_spread(ct, n, g, acc)


# ---------------------------------------------------------------------------
# Input encoding
# ---------------------------------------------------------------------------


def _checked_span(layout: str, r: int, geo: CombinedGeometry) -> int:
    """Segments per ciphertext of ``layout``; raises if they overflow it."""
    span = len(conv_segments(layout, r, 0, 0))
    if span * geo.seg_slots > geo.slot_count:
        raise ValueError(f"{span} segments of {geo.seg_slots} slots exceed {geo.slot_count}")
    return span


def encode_inputs(backend: SimulatorBackend, ctx: KeyContext, images: np.ndarray,
                  geo: CombinedGeometry, layout: str = CONV_BASIC,
                  r: int = 1, lazy: bool = True) -> PackedTensor:
    """Pack n images into a conv input layout: one ciphertext per channel
    cell ``b`` and combined-kernel cell ``(u, v)``, whose segments hold the
    channels :func:`conv_segments` places there.  Cross-channel cells stack
    ``r`` channels; cross-filter cells repeat one channel ``r`` times to feed
    ``r`` filters at once.

    The segment of channel c for cell (u, v) holds, at pi-set ``s*b + t``,
    pixel ``(u + stride*s, v + stride*t)`` of every image: one gather from
    the flat images, whose indices are those of channel 0 and cell (0, 0)
    offset by ``(c*side + u)*side + v``.

    The images are checked here, but each cell is gathered from them and
    encrypted only when it is first read (the tensor's cells are a
    :class:`LazyCells`), under the meter scope that was open when this was
    called; so ``images`` must not change until every cell is read.  A
    reader that drops each cell after its last read, as
    :func:`~lhecnn.forward.conv_forward` does, holds only the cells between
    their first and last readers, and noise is drawn in read order.  With
    ``lazy=False`` every cell is made here, in key order, in a plain dict."""
    n, channels, side, _ = images.shape
    if n != geo.n:
        raise ValueError(f"expected {geo.n} images, got {n}")
    seg = geo.seg_slots
    span = _checked_span(layout, r, geo)
    gamma0 = geo.kernel_sides[0]
    grid, stride = geo.grid_side, geo.strides[0]
    if gamma0 + (grid - 1) * stride > side:
        raise ValueError("image side too small for the combined kernel grid")

    flat = np.ascontiguousarray(images, dtype=np.float64).reshape(-1)
    steps = stride * np.arange(grid)
    gather = (steps[:, None, None] * side + steps[None, :, None]
              + np.arange(n) * (channels * side * side)).reshape(-1)
    vec = np.zeros(geo.slot_count)  # one scratch vector: encrypt copies it
    _, groups = conv_cell_counts(layout, r, 0, channels)
    segments_of = [[(q, c) for q, _, c in conv_segments(layout, r, 0, b) if c < channels]
                   for b in range(groups)]

    def make(b: int, u: int, v: int) -> Ciphertext:
        segments = segments_of[b]
        if len(segments) * seg != geo.slot_count:
            vec.fill(0.0)
        gathered = {}  # cross-filter segments repeat one channel: gather it once
        for q, c in segments:
            out = vec[q * seg:(q + 1) * seg]
            if c in gathered:
                out[:] = gathered[c]
                continue
            # every index is in range (checked above): "clip" clips
            # nothing, and unlike "raise" it writes straight into out
            flat[(c * side + u) * side + v:].take(gather, out=out, mode="clip")
            gathered[c] = out
        return backend.encrypt(ctx, vec)

    keys = [(b, u, v) for b in range(groups) for u in range(gamma0) for v in range(gamma0)]
    if not lazy:
        cells = {key: make(*key) for key in keys}
    else:
        scope, label = backend.meter.scope, backend.meter.current_scope

        def made(key: tuple) -> Ciphertext:
            with scope(label):
                return make(*key)

        cells = LazyCells({key: partial(made, key) for key in keys})
    return PackedTensor(cells, layout, geo.n, geo.grid_side, seg, group_size=span)


# ---------------------------------------------------------------------------
# Parameter encoding
# ---------------------------------------------------------------------------


def encode_params(backend: SimulatorBackend, ctx: KeyContext, values: np.ndarray,
                  packed: PackedFilters | PackedWeights) -> PackedFilters | PackedWeights:
    """Encrypt every cell of the empty container ``packed`` from the plaintext
    filters or weight matrix ``values``, as its ``slot_map`` lays them out.
    Each value fills its slot range; padding stays zero, so stray data in the
    operand it multiplies is masked away."""
    vec = np.zeros(ctx.params.slot_count)  # one scratch vector: encrypt copies it
    for key in packed.cell_keys():
        vec.fill(0.0)
        for start, stop, index in packed.slot_map(key):
            vec[start:stop] = values[index]
        packed.cells[key] = backend.encrypt(ctx, vec)
    return packed


# ---------------------------------------------------------------------------
# Layout transitions
# ---------------------------------------------------------------------------


def as_fl_input(tensor: PackedTensor) -> PackedTensor:
    """View the final conv output (grid collapsed to 1x1) as a type I
    fully-connected input.

    Neuron order is (filter-major, then grid row-major), matching the plain
    flattening ``filter * grid^2 + s * grid + t``.  Cross-filter outputs carry
    several filters per ciphertext as consecutive segments, which preserves
    the same global order (see :func:`conv_output_pi_sets`).
    """
    pi = conv_output_pi_sets(tensor.layout, tensor.group_size, tensor.grid_side)
    cells = {}
    for key in sorted(tensor.cells):
        if key[1:] != (0, 0):
            raise ValueError("conv output grid must be 1x1 to feed an fc layer")
        cells[(key[0],)] = tensor.cells[key]
    return PackedTensor(cells, FL_TYPE1, tensor.n, pi_sets=pi)
