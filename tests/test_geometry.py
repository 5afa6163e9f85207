import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhecnn.geometry import (
    CnnConfig,
    ConvLayer,
    FcLayer,
    GeometryError,
    combined_geometry,
    packing_factor,
    preset,
)
from lhecnn.lhe import LheParams


def stack_config(specs, beta0, fc_out=(3,), n=2):
    """Build a chained config from (filters, gamma, delta) tuples."""
    conv, side, channels = [], beta0, 1
    for filters, gamma, delta in specs:
        conv.append(ConvLayer(channels, side, filters, gamma, delta))
        side = 1 + (side - gamma) // delta
        channels = filters
    fc, inputs = [], conv[-1].filters * side**2
    for out in fc_out:
        fc.append(FcLayer(inputs, out))
        inputs = out
    return CnnConfig(tuple(conv), tuple(fc), n)


@st.composite
def random_stacks(draw):
    beta0 = draw(st.integers(6, 20))
    c = draw(st.integers(1, 4))
    specs, side = [], beta0
    for _ in range(c):
        if side < 2:
            specs.append((1, 1, 1))
            continue
        gamma = draw(st.integers(1, min(3, side)))
        delta = draw(st.integers(1, 3))
        specs.append((draw(st.integers(1, 3)), gamma, delta))
        side = 1 + (side - gamma) // delta
    return stack_config(specs, beta0)


class TestCombinedGeometry:
    def test_refining_model_kernel_sides(self):
        p = preset("refining-2-2")
        geo = combined_geometry(p.model, p.lhe)
        assert geo.kernel_sides == (6, 2)
        assert geo.strides == (3, 1)

    def test_single_layer_collapses_to_filter_side(self):
        p = preset("cnn-1-2")
        geo = combined_geometry(p.model, p.lhe)
        assert geo.kernel_sides == (7,)
        assert geo.strides == (3,)
        assert geo.kernel_sides[0] ** 2 == 49  # input ciphertexts per channel
        assert geo.kernel_side_after(0) == 1

    def test_worked_example_model(self):
        # 8x8 inputs through two 2x2 stride-2 layers
        cfg = stack_config([(2, 2, 2), (1, 2, 2)], beta0=8, fc_out=(2, 2), n=2)
        geo = combined_geometry(cfg, LheParams(8, 6))
        assert geo.kernel_sides == (4, 2)
        assert geo.strides == (4, 2)
        assert geo.grid_side == 2
        assert geo.kernel_sides[0] ** 2 == 16      # ciphertexts per channel
        assert cfg.n * geo.grid_side**2 == 8       # slots per ciphertext

    def test_refining_grid_fills_all_slots(self):
        p = preset("refining-2-2")
        geo = combined_geometry(p.model, p.lhe)
        assert geo.grid_side == 1 + (28 - 6) // 3 == 8
        assert p.model.n * geo.grid_side**2 == 8192 == p.lhe.slot_count

    def test_kernel_too_large_rejected(self):
        cfg = stack_config([(1, 4, 1), (1, 4, 1)], beta0=7)
        # combined kernel side 7 fits exactly; shrink the input to break it
        with pytest.raises(GeometryError):
            stack_config([(1, 4, 1), (1, 4, 1)], beta0=6)
        combined_geometry(cfg, LheParams(64, 8))

    def test_slot_overflow_rejected(self):
        cfg = stack_config([(1, 2, 1)], beta0=10, n=8)  # grid 9 -> 648 slots
        with pytest.raises(GeometryError):
            combined_geometry(cfg, LheParams(512, 8))

    @settings(max_examples=200, deadline=None)
    @given(random_stacks())
    def test_recurrence_and_telescoping(self, cfg):
        geo = combined_geometry(cfg, LheParams(4096, 8))
        gammas = [layer.filter_side for layer in cfg.conv]
        deltas = [layer.stride for layer in cfg.conv]
        c = len(gammas)
        assert geo.kernel_sides[c - 1] == gammas[c - 1]
        assert geo.strides[c - 1] == deltas[c - 1]
        for l in range(c - 1):
            assert geo.kernel_sides[l + 1] == 1 + (geo.kernel_sides[l] - gammas[l]) // deltas[l]
            assert geo.strides[l] == deltas[l] * geo.strides[l + 1]

    @settings(max_examples=100, deadline=None)
    @given(random_stacks())
    def test_packed_reads_cover_exactly_the_consumed_inputs(self, cfg):
        # 1-D index sets: every encoded index lies inside the image, and the
        # grid cells the propagation actually reads, offset by the pi-set
        # stride, are exactly the input indices the plain conv stack consumes.
        geo = combined_geometry(cfg, LheParams(4096, 8))
        encoded = {u + s * geo.strides[0]
                   for u in range(geo.kernel_sides[0])
                   for s in range(geo.grid_side)}
        assert all(0 <= idx for idx in encoded)
        assert max(encoded) < cfg.conv[0].input_side

        needed = {0}  # grid index of the collapsed final layer
        for layer in reversed(cfg.conv):
            needed = {layer.stride * u + x
                      for u in needed for x in range(layer.filter_side)}
        reads = {w + s * geo.strides[0] for w in needed for s in range(geo.grid_side)}
        assert reads <= encoded

        side = cfg.conv[0].input_side
        for layer in cfg.conv:
            side = 1 + (side - layer.filter_side) // layer.stride
        consumed = set(range(side))  # indices in the final output map
        for layer in reversed(cfg.conv):
            consumed = {w * layer.stride + x
                        for w in consumed for x in range(layer.filter_side)}
        assert reads == consumed


class TestPackingFactor:
    def test_reference_scaling_table(self):
        # (n, r) pairs for grid side 4 at 8192 slots
        pairs = [(16, 32), (32, 16), (64, 8), (128, 4), (256, 2), (512, 1)]
        for n, r in pairs:
            assert packing_factor(8192, n, 4) == r

    def test_exact_fill_gives_one(self):
        assert packing_factor(8192, 128, 8) == 1

    def test_non_power_of_two_quotient_rounds_down(self):
        assert packing_factor(64, 2, 3) == 2  # 64 / 18 = 3.55...

    def test_overflow_rejected(self):
        with pytest.raises(GeometryError):
            packing_factor(64, 8, 4)


class TestLevelBudget:
    def test_presets_carry_reference_levels(self):
        # two of the reference level counts deviate from 2(c+f) by one;
        # presets carry the reference values
        reference = {"cnn-1-2": 6, "cnn-2-1": 6, "cnn-2-2": 7, "cnn-3-1": 8,
                     "cnn-3-2": 9, "cnn-4-1": 10, "cnn-4-2": 11,
                     "refining-2-2": 10}
        for name, levels in reference.items():
            assert preset(name).lhe.max_level == levels

    def test_preset_slot_counts(self):
        assert preset("cnn-1-2").lhe.slot_count == 4096   # N = 8192
        assert preset("cnn-3-2").lhe.slot_count == 8192   # N = 16384
        assert preset("refining-2-2").lhe.slot_count == 8192


class TestConfigValidation:
    def test_channel_chaining_enforced(self):
        with pytest.raises(GeometryError):
            CnnConfig((ConvLayer(1, 8, 2, 2, 2), ConvLayer(3, 4, 1, 2, 2)),
                      (FcLayer(4, 2),), 2)

    def test_fc_chaining_enforced(self):
        with pytest.raises(GeometryError):
            stack_config([(1, 2, 2)], beta0=8, fc_out=())
        with pytest.raises(GeometryError):
            CnnConfig((ConvLayer(1, 8, 1, 2, 2),),
                      (FcLayer(16, 4), FcLayer(5, 2)), 2)

    def test_fc_input_must_match_conv_output(self):
        with pytest.raises(GeometryError):
            CnnConfig((ConvLayer(1, 8, 1, 2, 2),), (FcLayer(99, 2),), 2)

    def test_n_power_of_two(self):
        with pytest.raises(GeometryError):
            stack_config([(1, 2, 2)], beta0=8, n=3)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("cnn-9-9")
