import numpy as np
import pytest

from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer, combined_geometry, preset
from lhecnn.lhe import LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.packing import (
    CONV_BASIC,
    CONV_CROSS_CHANNEL,
    CONV_CROSS_FILTER,
    compute_rotation_plan,
    conv_cell_counts,
    conv_segments,
    empty_weights,
    encode_inputs,
    fold_rotate_sum,
    signed_rotate_spread,
    signed_rotate_sum,
)

from conftest import (
    encode_filters,
    encode_weights,
    make_selector,
    per_op_pack_sums,
    per_op_unpack_spread,
)


def example_geometry(slots=8, levels=6):
    cfg = CnnConfig((ConvLayer(1, 8, 2, 2, 2), ConvLayer(2, 4, 1, 2, 2)),
                    (FcLayer(4, 2), FcLayer(2, 2)), 2)
    return cfg, combined_geometry(cfg, LheParams(slots, levels))


def plain_aggregate(v: np.ndarray, plan) -> np.ndarray:
    out = v.copy()
    for k, d in enumerate(plan.directions):
        out = out + np.roll(out, -d * (1 << k))
    return out


def plain_spread(v: np.ndarray, plan) -> np.ndarray:
    out = v.copy()
    for k, d in enumerate(plan.directions):
        out = out + np.roll(out, d * (1 << k))
    return out


class TestRotationPlan:
    def test_directions_follow_offset_bits(self):
        assert compute_rotation_plan(0, 2).directions == (1,)
        assert compute_rotation_plan(1, 2).directions == (-1,)
        assert compute_rotation_plan(2, 4).directions == (1, -1)
        assert compute_rotation_plan(5, 8).directions == (-1, 1, -1)

    def test_plans_are_built_once(self):
        # a plan is immutable, so every caller shares the one built first
        plan = compute_rotation_plan(5, 8)
        assert compute_rotation_plan(5, 8) is plan
        assert compute_rotation_plan(p=5, n=8) == plan
        assert compute_rotation_plan(3, 8) is not plan

    def test_n_one_is_empty(self):
        assert compute_rotation_plan(0, 1).directions == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_rotation_plan(2, 2)
        with pytest.raises(ValueError):
            compute_rotation_plan(0, 3)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_aggregation_sums_each_block_into_its_offset(self, n):
        rng = np.random.default_rng(n)
        S = 8 * n
        for p in range(n):
            plan = compute_rotation_plan(p, n)
            for _ in range(25):
                v = rng.normal(size=S)
                out = plain_aggregate(v, plan)
                sums = v.reshape(-1, n).sum(axis=1)
                assert np.allclose(out[p::n], sums, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_spreading_replicates_offset_over_block(self, n):
        rng = np.random.default_rng(100 + n)
        S = 8 * n
        for p in range(n):
            plan = compute_rotation_plan(p, n)
            for _ in range(25):
                g = rng.normal(size=S // n)
                v = np.zeros(S)
                v[p::n] = g
                out = plain_spread(v, plan)
                assert np.allclose(out, np.repeat(g, n), rtol=0, atol=0)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_aggregate_mask_spread_round_trip(self, n):
        rng = np.random.default_rng(200 + n)
        S = 4 * n
        for p in range(n):
            plan = compute_rotation_plan(p, n)
            v = rng.normal(size=S)
            agg = plain_aggregate(v, plan)
            masked = np.where(np.arange(S) % n == p, agg, 0.0)
            out = plain_spread(masked, plan)
            want = np.repeat(v.reshape(-1, n).sum(axis=1), n)
            assert np.allclose(out, want, atol=1e-12)

    def test_encrypted_helpers_match_plain_reference(self, backend):
        # the helpers mask as they sum or spread: compare with the masked
        # plain chains
        ctx = backend.keygen(LheParams(16, 8), seed=3)
        rng = np.random.default_rng(5)
        v = rng.normal(size=16)
        zero = backend.encrypt(ctx, np.zeros(16))
        for p in range(4):
            # ``ct`` is gradient p of its pack, after p zero gradients
            plan = compute_rotation_plan(p, 4)
            keep = np.arange(16) % 4 == p
            ct = backend.encrypt(ctx, v)
            agg = backend.decrypt(ctx, signed_rotate_sum(backend, [zero] * p + [ct], 4, 1.0))
            assert np.allclose(agg, np.where(keep, plain_aggregate(v, plan), 0.0), atol=0)
            spread = signed_rotate_spread(backend, ct, 4, p, zero)
            assert np.allclose(backend.decrypt(ctx, spread),
                               plain_spread(np.where(keep, v, 0.0), plan), atol=0)


def per_step_chain(backend, ct, shifts):
    for s in shifts:
        ct = backend.add(ct, backend.rot(ct, s))
    return ct


class TestRotateAddHelpers:
    """The rotate-and-sum helpers are one backend call each: the same slots,
    levels and counts as the per-step ``rot`` + ``add`` loop (the fold) and
    as the chains, selector ``cmul`` and ``add`` of each gradient (the batch
    sum of a full pack, and the spread into ``acc``).  A full pack keeps
    every slot and ``acc`` is nonzero in every slot, so no slot is a masked
    zero and all are byte-identical."""

    @pytest.mark.parametrize("helper, reference", [
        (lambda b, ct, acc: fold_rotate_sum(b, ct, 4, 8),
         lambda b, ct, acc: per_step_chain(b, ct, [4, 8, 16])),
        (lambda b, ct, acc: fold_rotate_sum(b, ct, 3, 1),
         lambda b, ct, acc: per_step_chain(b, ct, [])),
        (lambda b, ct, acc: signed_rotate_sum(b, [ct, acc] * 4, 8, 0.5),
         lambda b, ct, acc: per_op_pack_sums(b, [ct, acc] * 4, 8, 0.5)),
        (lambda b, ct, acc: signed_rotate_spread(b, ct, 8, 5, acc),
         lambda b, ct, acc: per_op_unpack_spread(b, ct, 8, 5, acc)),
        (lambda b, ct, acc: signed_rotate_spread(b, ct, 1, 0, acc),
         lambda b, ct, acc: per_op_unpack_spread(b, ct, 1, 0, acc)),
    ], ids=["fold", "fold-one-block", "sum", "spread", "spread-n1"])
    def test_matches_per_step_loop(self, helper, reference):
        results = []
        for run in (helper, reference):
            meter = OpMeter()
            backend = SimulatorBackend(meter)
            ctx = backend.keygen(LheParams(32, 8), seed=4)
            rng = np.random.default_rng(4)
            ct = backend.encrypt(ctx, rng.normal(size=32))
            ct = backend.rot(backend.cmul(ct, np.full(32, 0.5)), 7)  # shifted, pending
            acc = backend.rot(backend.encrypt(ctx, rng.normal(size=32)), 3)
            mark = meter.checkpoint()
            out = run(backend, ct, acc)
            results.append((out.slots.tobytes(), out.level, out.pending_rescale,
                            meter.since(mark)))
        assert results[0] == results[1]


class TestSelector:
    def test_examples(self):
        assert np.array_equal(make_selector(0, 2, 4, 1.0), [1, 0, 1, 0])
        assert np.array_equal(make_selector(1, 2, 8, 0.5),
                              [0, .5, 0, .5, 0, .5, 0, .5])

    def test_nonzero_count(self):
        for S in (8, 16, 64):
            for n in (2, 4, 8):
                for p in range(n):
                    sel = make_selector(p, n, S, 3.0)
                    assert np.count_nonzero(sel) == (S - p - 1) // n + 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_selector(2, 2, 8, 1.0)
        with pytest.raises(ValueError):
            make_selector(0, 16, 8, 1.0)


class TestFold:
    def test_tiling_fold_replicates_block_sums(self, backend):
        ctx = backend.keygen(LheParams(16, 8), seed=1)
        v = np.arange(16.0)
        out = backend.decrypt(ctx, fold_rotate_sum(backend, backend.encrypt(ctx, v),
                                                   4, 4))
        want = np.tile(v.reshape(4, 4).sum(axis=0), 4)
        assert np.array_equal(out, want)

    def test_non_tiling_fold_valid_in_block_zero(self, backend):
        ctx = backend.keygen(LheParams(16, 8), seed=1)
        v = np.zeros(16)
        v[:6] = [1, 2, 3, 4, 5, 6]  # two 3-slot blocks, rest zero
        out = backend.decrypt(ctx, fold_rotate_sum(backend, backend.encrypt(ctx, v),
                                                   3, 2))
        assert np.array_equal(out[:3], [5, 7, 9])


def segment_by_transpose(images, channel, u, v, geo):
    """The n*b*b slot segment for kernel cell (u, v) of one channel, gathered
    as an (n, b, b) block and transposed into pi-set order."""
    b, stride = geo.grid_side, geo.strides[0]
    rows = u + stride * np.arange(b)
    cols = v + stride * np.arange(b)
    return np.transpose(images[:, channel, rows[:, None], cols], (1, 2, 0)).reshape(-1)


def encoding_by_transpose(images, geo, layout, r):
    """Every input cell's slots, each segment gathered by
    :func:`segment_by_transpose` into a zeroed vector."""
    channels, seg, gamma0 = images.shape[1], geo.seg_slots, geo.kernel_sides[0]
    _, groups = conv_cell_counts(layout, r, 0, channels)
    cells = {}
    for b in range(groups):
        for u in range(gamma0):
            for v in range(gamma0):
                vec = np.zeros(geo.slot_count)
                for q, _, c in conv_segments(layout, r, 0, b):
                    if c < channels:
                        vec[q * seg:(q + 1) * seg] = segment_by_transpose(images, c, u, v, geo)
                cells[(b, u, v)] = vec
    return cells


class TestInputEncoding:
    @pytest.mark.parametrize("layout, r, channels, slots", [
        (CONV_BASIC, 1, 2, 64),
        (CONV_BASIC, 1, 2, 128),
        (CONV_CROSS_CHANNEL, 2, 3, 128),
        (CONV_CROSS_CHANNEL, 4, 4, 256),
        (CONV_CROSS_FILTER, 2, 2, 128),
        (CONV_CROSS_FILTER, 4, 1, 512),
    ], ids=["basic", "basic-part", "cross-channel-padded", "cross-channel",
            "cross-filter", "cross-filter-part"])
    def test_slots_match_the_transposed_gather(self, backend, layout, r, channels, slots):
        # a 3x3 kernel grid at stride 2 on 9x9 images, n = 4: 64-slot segments
        # that fill the ciphertext, or leave part of it (or a padding
        # segment) zero; the images are a non-contiguous view
        cfg = CnnConfig((ConvLayer(channels, 9, 2, 3, 2),), (FcLayer(32, 2),), 4)
        params = LheParams(slots, 6)
        geo = combined_geometry(cfg, params)
        assert (geo.grid_side, geo.strides[0], geo.seg_slots) == (4, 2, 64)
        ctx = backend.keygen(params, seed=1)
        images = np.random.default_rng(4).normal(size=(9, 9, channels, 4)).transpose(3, 2, 0, 1)
        packed = encode_inputs(backend, ctx, images, geo, layout, r)
        want = encoding_by_transpose(images, geo, layout, r)
        assert packed.cells.keys() == want.keys()
        for key, vec in want.items():
            assert packed.cells[key].slots.tobytes() == vec.tobytes(), key

    def test_eager_cells_are_made_at_once_and_match_the_lazy_ones(self, backend):
        cfg, geo = example_geometry()
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        images = np.arange(2 * 64, dtype=float).reshape(2, 1, 8, 8)
        lazy = encode_inputs(backend, ctx, images, geo)
        assert backend.meter.totals()["encrypt"] == 0
        with backend.meter.scope("enc.inputs"):
            eager = encode_inputs(backend, ctx, images, geo, lazy=False)
        assert type(eager.cells) is dict and list(eager.cells) == list(lazy.cells)
        assert backend.meter.scope_totals()["enc.inputs"]["encrypt"] == 16
        for key, ct in eager.cells.items():
            assert ct.slots.tobytes() == lazy.cells[key].slots.tobytes(), key

    def test_worked_example_shape(self, backend):
        cfg, geo = example_geometry()
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        images = np.arange(2 * 64, dtype=float).reshape(2, 1, 8, 8)
        packed = encode_inputs(backend, ctx, images, geo)
        assert len(packed.cells) == 16
        assert packed.layout == CONV_BASIC
        assert all(ct.slot_count == 8 for ct in packed.cells.values())

    def test_bijective_slot_layout(self, backend):
        # every image value appears exactly once at its defined slot when the
        # kernel tiles the image; unused slots are zero
        cfg = CnnConfig((ConvLayer(2, 6, 1, 3, 3),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(8, 6))
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 2, 6, 6))
        packed = encode_inputs(backend, ctx, images, geo)
        seen = {}
        for (i, u, v), ct in packed.cells.items():
            slots = backend.decrypt(ctx, ct)
            for s in range(geo.grid_side):
                for t in range(geo.grid_side):
                    for j in range(2):
                        slot = (s * geo.grid_side + t) * 2 + j
                        key = (j, i, u + 3 * s, v + 3 * t)
                        assert key not in seen
                        seen[key] = slots[slot]
        assert len(seen) == images.size
        for (j, i, x, y), value in seen.items():
            assert value == images[j, i, x, y]

    def test_trailing_slots_zero(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        packed = encode_inputs(backend, ctx, np.ones((2, 1, 4, 4)), geo)
        slots = backend.decrypt(ctx, packed.cells[(0, 0, 0)])
        assert np.array_equal(slots[geo.seg_slots:], np.zeros(32 - geo.seg_slots))

    def test_single_pixel_degenerate_case(self, backend):
        cfg = CnnConfig((ConvLayer(1, 1, 1, 1, 1),), (FcLayer(1, 2),), 2)
        geo = combined_geometry(cfg, LheParams(8, 6))
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        packed = encode_inputs(backend, ctx, np.array([[[[3.0]]], [[[4.0]]]]), geo)
        assert len(packed.cells) == 1
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(0, 0, 0)])[:2], [3, 4])

    def test_replicated_encoding_for_cross_filter(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        packed = encode_inputs(backend, ctx, np.ones((2, 1, 4, 4)), geo, CONV_CROSS_FILTER, r=2)
        assert packed.layout == CONV_CROSS_FILTER and packed.group_size == 2
        slots = backend.decrypt(ctx, packed.cells[(0, 0, 0)])
        assert np.array_equal(slots[:geo.seg_slots], slots[geo.seg_slots:2 * geo.seg_slots])

    def test_cross_channel_groups_and_padding(self, backend):
        cfg = CnnConfig((ConvLayer(4, 4, 2, 2, 2),), (FcLayer(8, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        rng = np.random.default_rng(1)
        images = rng.normal(size=(2, 4, 4, 4))
        by_two = encode_inputs(backend, ctx, images, geo, CONV_CROSS_CHANNEL, r=2)
        assert len(by_two.cells) == 2 * geo.kernel_sides[0] ** 2
        by_four = encode_inputs(backend, ctx, images, geo, CONV_CROSS_CHANNEL, r=4)
        assert len(by_four.cells) == geo.kernel_sides[0] ** 2
        # group ciphertext concatenates the per-channel basic encodings
        basic = encode_inputs(backend, ctx, images, geo)
        seg = geo.seg_slots
        got = backend.decrypt(ctx, by_two.cells[(1, 0, 0)])
        assert np.array_equal(got[:seg], backend.decrypt(ctx, basic.cells[(2, 0, 0)])[:seg])
        assert np.array_equal(got[seg:2 * seg],
                              backend.decrypt(ctx, basic.cells[(3, 0, 0)])[:seg])

    def test_padding_segments_are_zero_in_every_cell(self, backend):
        # 3 channels in groups of 2: group 1 holds channel 2 and a padding
        # segment, encoded after group 0 has filled both segments
        cfg = CnnConfig((ConvLayer(3, 4, 2, 2, 2),), (FcLayer(8, 2),), 2)
        geo = combined_geometry(cfg, LheParams(16, 6))
        ctx = backend.keygen(LheParams(16, 6), seed=1)
        images = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        packed = encode_inputs(backend, ctx, images, geo, CONV_CROSS_CHANNEL, r=2)
        basic = encode_inputs(backend, ctx, images, geo)
        seg = geo.seg_slots
        for (b, u, v), ct in packed.cells.items():
            want = np.zeros(16)
            for q in range(2):
                if 2 * b + q < 3:
                    want[q * seg:(q + 1) * seg] = basic.cells[(2 * b + q, u, v)].slots[:seg]
            assert np.array_equal(backend.decrypt(ctx, ct), want), (b, u, v)

    def test_cross_channel_r1_reduces_to_basic(self, backend):
        cfg = CnnConfig((ConvLayer(2, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(16, 6))
        ctx = backend.keygen(LheParams(16, 6), seed=1)
        rng = np.random.default_rng(2)
        images = rng.normal(size=(2, 2, 4, 4))
        basic = encode_inputs(backend, ctx, images, geo)
        cross = encode_inputs(backend, ctx, images, geo, CONV_CROSS_CHANNEL, r=1)
        for key, ct in basic.cells.items():
            assert np.array_equal(ct.slots, cross.cells[key].slots)


class TestFilterEncoding:
    def test_counts_basic(self, backend):
        p = preset("cnn-1-2")
        geo = combined_geometry(p.model, p.lhe)
        ctx = backend.keygen(p.lhe, seed=1)
        filters = np.zeros((4, 1, 7, 7))
        packed = encode_filters(backend, ctx, filters, geo)
        assert len(packed.cells) == 196

    def test_refining_counts(self, backend):
        p = preset("refining-2-2")
        geo = combined_geometry(p.model, p.lhe)
        ctx = backend.keygen(p.lhe, seed=1)
        cl1 = encode_filters(backend, ctx, np.zeros((4, 1, 3, 3)), geo)
        cl2 = encode_filters(backend, ctx, np.zeros((4, 4, 2, 2)), geo)
        assert len(cl1.cells) == 36 and len(cl2.cells) == 64

    def test_element_replicated_over_segment_zero_elsewhere(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        packed = encode_filters(backend, ctx, np.full((1, 1, 2, 2), 2.5), geo)
        slots = backend.decrypt(ctx, packed.cells[(0, 0, 1, 1)])
        assert np.array_equal(slots[:geo.seg_slots], np.full(geo.seg_slots, 2.5))
        assert np.array_equal(slots[geo.seg_slots:], np.zeros(32 - geo.seg_slots))

    def test_zero_filter_element_is_zero_ciphertext(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(8, 6))
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        packed = encode_filters(backend, ctx, np.zeros((1, 1, 2, 2)), geo)
        assert all(np.array_equal(ct.slots, np.zeros(8)) for ct in packed.cells.values())

    def test_cross_filter_grouping(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 4, 2, 2),), (FcLayer(16, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        filters = np.arange(16, dtype=float).reshape(4, 1, 2, 2)
        whole = encode_filters(backend, ctx, filters, geo, CONV_CROSS_FILTER, r=4)
        assert len(whole.cells) == 4  # one group, gamma^2 elements
        halves = encode_filters(backend, ctx, filters, geo, CONV_CROSS_FILTER, r=2)
        assert len(halves.cells) == 8  # two groups of two filters
        seg = geo.seg_slots
        slots = backend.decrypt(ctx, whole.cells[(0, 0, 1, 0)])
        for q in range(4):
            assert np.array_equal(slots[q * seg:(q + 1) * seg],
                                  np.full(seg, filters[q, 0, 1, 0]))

    def test_rejects_segments_past_the_ciphertext(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 4, 2, 2),), (FcLayer(16, 2),), 2)
        geo = combined_geometry(cfg, LheParams(8, 6))
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        assert geo.seg_slots == 8
        # four filter segments of 8 slots cannot share one 8-slot ciphertext
        with pytest.raises(ValueError, match="4 segments of 8 slots exceed 8"):
            encode_filters(backend, ctx, np.ones((4, 1, 2, 2)), geo, CONV_CROSS_FILTER, r=4)

    def test_cross_channel_collapses_channel_loop(self, backend):
        cfg = CnnConfig((ConvLayer(4, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        geo = combined_geometry(cfg, LheParams(32, 6))
        ctx = backend.keygen(LheParams(32, 6), seed=1)
        packed = encode_filters(backend, ctx, np.ones((1, 4, 2, 2)), geo,
                                CONV_CROSS_CHANNEL, r=4)
        assert len(packed.cells) == 4  # one channel group


class TestWeightEncoding:
    def test_type1_worked_example_row(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        packed = encode_weights(backend, ctx, np.array([[1.0, 0.0, 0.0, 1.0]]),
                                "type1", n=2, in_cts=1, pi_per_ct=4)
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(0, 0)]),
                              [1, 1, 0, 0, 0, 0, 1, 1])

    def test_type1_count_for_mnist_model(self, backend):
        p = preset("cnn-1-2")
        ctx = backend.keygen(p.lhe, seed=1)
        packed = encode_weights(backend, ctx, np.zeros((64, 256)),
                                "type1", n=64, in_cts=4, pi_per_ct=64)
        assert len(packed.cells) == 256

    def test_type1_single_weight(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        packed = encode_weights(backend, ctx, np.array([[3.0]]),
                                "type1", n=2, in_cts=1, pi_per_ct=1)
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(0, 0)]),
                              [3, 3, 0, 0, 0, 0, 0, 0])

    def test_type2_count_for_mnist_model(self, backend):
        p = preset("cnn-1-2")
        ctx = backend.keygen(p.lhe, seed=1)
        packed = encode_weights(backend, ctx, np.zeros((10, 64)), "type2", n=64)
        assert len(packed.cells) == 64
        assert packed.out_cts == 1

    def test_type2_refining_count(self, backend):
        p = preset("refining-2-2")
        ctx = backend.keygen(p.lhe, seed=1)
        packed = encode_weights(backend, ctx, np.zeros((10, 32)), "type2", n=128)
        assert len(packed.cells) == 32

    def test_type2_column_layout_with_padding(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])  # o=2, S/n=4 rows per ct
        packed = encode_weights(backend, ctx, m, "type2", n=2)
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(0, 0)]),
                              [1, 1, 3, 3, 0, 0, 0, 0])
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(1, 0)]),
                              [2, 2, 4, 4, 0, 0, 0, 0])

    def test_type2_exact_fill_no_padding(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        m = np.arange(1.0, 5.0).reshape(4, 1)  # o = S/n exactly
        packed = encode_weights(backend, ctx, m, "type2", n=2)
        assert np.array_equal(backend.decrypt(ctx, packed.cells[(0, 0)]),
                              [1, 1, 2, 2, 3, 3, 4, 4])

    @pytest.mark.parametrize("packed", [
        empty_weights("type1", (3, 8), 2, 8, in_cts=2, pi_per_ct=4),
        empty_weights("type2", (10, 3), 2, 8),
    ], ids=["type1", "type2"])
    def test_cell_keys_are_every_weight_key_sorted(self, packed):
        assert packed.out_cts > 1 and packed.in_cts > 1
        assert packed.cell_keys() == sorted(packed.weight_key(j, i)
                                            for j in range(packed.out_cts)
                                            for i in range(packed.in_cts))

    def test_type1_capacity_validation(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        with pytest.raises(ValueError, match="cannot hold 9 inputs"):
            encode_weights(backend, ctx, np.zeros((1, 9)), "type1",
                           n=2, in_cts=2, pi_per_ct=4)
        with pytest.raises(ValueError, match="do not fit"):
            encode_weights(backend, ctx, np.zeros((1, 8)), "type1",
                           n=2, in_cts=1, pi_per_ct=8)
