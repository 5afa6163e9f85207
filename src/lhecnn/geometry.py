"""Combined-layer packing geometry for CNN stacks over packed ciphertexts.

The convolutional stack is virtually fused into one combined layer so inputs
are packed exactly once: layer ``l`` sees a combined kernel of side
``kernel_sides[l]`` applied with combined stride ``strides[l]``.  The number
of kernel positions per axis, ``grid_side``, is constant through the stack
and fixes how many parallel-input sets one ciphertext carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lhe import LheParams, check_ints


class GeometryError(ValueError):
    """Configuration cannot be packed (kernel does not fit, or slots overflow)."""


@dataclass(frozen=True)
class ConvLayer:
    """One convolutional layer: channels, input side, filter count/side, stride."""

    channels: int
    input_side: int
    filters: int
    filter_side: int
    stride: int

    def __post_init__(self):
        check_ints(self, "channels", "input_side", "filters", "filter_side", "stride")
        if min(self.channels, self.input_side, self.filters, self.filter_side) < 1:
            raise GeometryError("conv layer dimensions must be positive")
        if self.stride < 1:
            raise GeometryError("stride must be >= 1")
        if self.filter_side > self.input_side:
            raise GeometryError(
                f"filter side {self.filter_side} exceeds input side {self.input_side}"
            )

    @property
    def output_side(self) -> int:
        return 1 + (self.input_side - self.filter_side) // self.stride


@dataclass(frozen=True)
class FcLayer:
    """One fully-connected layer: input and output neuron counts."""

    inputs: int
    outputs: int

    def __post_init__(self):
        check_ints(self, "inputs", "outputs")
        if self.inputs < 1 or self.outputs < 1:
            raise GeometryError("fc layer dimensions must be positive")


@dataclass(frozen=True)
class CnnConfig:
    """A square-activation CNN: conv stack, fully-connected stack, and the
    parallel-input count ``n`` processed per packed batch."""

    conv: tuple[ConvLayer, ...]
    fc: tuple[FcLayer, ...]
    n: int

    def __post_init__(self):
        if not self.conv or not self.fc:
            raise GeometryError("need at least one conv and one fc layer")
        check_ints(self, "n")
        if self.n < 1 or self.n & (self.n - 1):
            raise GeometryError(f"n must be a power of two, got {self.n}")
        for a, b in zip(self.conv, self.conv[1:]):
            if b.channels != a.filters:
                raise GeometryError(
                    f"channel chaining broken: {a.filters} filters feed {b.channels} channels"
                )
            if b.input_side != a.output_side:
                raise GeometryError(
                    f"side chaining broken: conv output {a.output_side} feeds input {b.input_side}"
                )
        last = self.conv[-1]
        flat = last.filters * last.output_side**2
        if self.fc[0].inputs != flat:
            raise GeometryError(
                f"fc input {self.fc[0].inputs} != conv output neuron count {flat}"
            )
        for a, b in zip(self.fc, self.fc[1:]):
            if b.inputs != a.outputs:
                raise GeometryError(f"fc chaining broken: {a.outputs} -> {b.inputs}")

    @property
    def c(self) -> int:
        return len(self.conv)

    @property
    def f(self) -> int:
        return len(self.fc)


@dataclass(frozen=True)
class CombinedGeometry:
    """Packing geometry for one config under given LHE parameters."""

    kernel_sides: tuple[int, ...]  # combined kernel side per conv layer
    strides: tuple[int, ...]       # combined stride per conv layer
    grid_side: int                 # kernel positions per axis (pi-set grid side)
    packing_factor: int            # largest usable power-of-two replication r
    slot_count: int
    n: int

    def kernel_side_after(self, l: int) -> int:
        """Ciphertext-grid side of layer ``l``'s output (1 past the last layer)."""
        if l + 1 < len(self.kernel_sides):
            return self.kernel_sides[l + 1]
        return 1

    @property
    def seg_slots(self) -> int:
        """Slots holding one channel's grid: n pi-sets per position."""
        return self.n * self.grid_side**2


def packing_factor(slot_count: int, n: int, grid_side: int) -> int:
    """Largest power of two r with r * n * grid_side^2 <= slot_count."""
    base = n * grid_side**2
    if base > slot_count:
        raise GeometryError(f"{base} packed values exceed {slot_count} slots")
    return 1 << ((slot_count // base).bit_length() - 1)


def combined_geometry(cfg: CnnConfig, params: LheParams) -> CombinedGeometry:
    """Derive combined kernel sides, strides and the pi-set grid; validate fit.

    Closed forms, with the stride product anchored at the combining layer::

        kernel_sides[l] = 1 + sum_{i=l}^{c-1} (filter_side_i - 1) * prod_{j=l}^{i-1} stride_j
        strides[l]      = prod_{i=l}^{c-1} stride_i

    These satisfy the output-side recurrence
    ``kernel_sides[l+1] = 1 + (kernel_sides[l] - filter_side_l) // stride_l``
    exactly, with ``kernel_sides[c-1]`` equal to the last filter side.
    """
    c = cfg.c
    gammas = [layer.filter_side for layer in cfg.conv]
    deltas = [layer.stride for layer in cfg.conv]

    strides = [math.prod(deltas[l:]) for l in range(c)]
    kernel_sides = []
    for l in range(c):
        side = 1
        for i in range(l, c):
            side += (gammas[i] - 1) * math.prod(deltas[l:i])
        kernel_sides.append(side)

    beta0 = cfg.conv[0].input_side
    if kernel_sides[0] > beta0:
        raise GeometryError(
            f"combined kernel side {kernel_sides[0]} exceeds input side {beta0}"
        )
    grid_side = 1 + (beta0 - kernel_sides[0]) // strides[0]

    return CombinedGeometry(
        kernel_sides=tuple(kernel_sides),
        strides=tuple(strides),
        grid_side=grid_side,
        packing_factor=packing_factor(params.slot_count, cfg.n, grid_side),
        slot_count=params.slot_count,
        n=cfg.n,
    )


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named configuration: LHE parameters plus, where known, the model."""

    name: str
    lhe: LheParams
    model: CnnConfig | None = None


def _mnist_1_2() -> CnnConfig:
    # 28x28 single-channel input, 4 filters 7x7 stride 3 -> 4 x 8 x 8 = 256
    return CnnConfig(
        conv=(ConvLayer(channels=1, input_side=28, filters=4, filter_side=7, stride=3),),
        fc=(FcLayer(256, 64), FcLayer(64, 10)),
        n=64,
    )


def _refining_2_2() -> CnnConfig:
    # Two conv layers (4 filters 3x3 stride 3, then 4 filters 2x2 stride 1)
    # feeding 256 -> 32 -> 10 fully-connected layers; 128 parallel inputs.
    return CnnConfig(
        conv=(
            ConvLayer(channels=1, input_side=28, filters=4, filter_side=3, stride=3),
            ConvLayer(channels=4, input_side=9, filters=4, filter_side=2, stride=1),
        ),
        fc=(FcLayer(256, 32), FcLayer(32, 10)),
        n=128,
    )


# Reference parameter sets per model family; note the 3-2 and 4-2 level
# counts sit one below 2(c+f).
PRESETS: dict[str, Preset] = {
    "cnn-1-2": Preset("cnn-1-2", LheParams(4096, 6), _mnist_1_2()),
    "cnn-2-1": Preset("cnn-2-1", LheParams(4096, 6)),
    "cnn-2-2": Preset("cnn-2-2", LheParams(8192, 7)),
    "cnn-3-1": Preset("cnn-3-1", LheParams(8192, 8)),
    "cnn-3-2": Preset("cnn-3-2", LheParams(8192, 9)),
    "cnn-4-1": Preset("cnn-4-1", LheParams(8192, 10)),
    "cnn-4-2": Preset("cnn-4-2", LheParams(8192, 11)),
    "refining-2-2": Preset("refining-2-2", LheParams(8192, 10), _refining_2_2()),
}


def preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}") from None
