import gc
import tracemalloc

import numpy as np
import pytest

from lhecnn.forward import (
    conv_forward,
    fl_forward,
    square_activation,
)
from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer, combined_geometry, preset
from lhecnn.lhe import Ciphertext, LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.oracle import init_params, plain_forward
from lhecnn.packing import (
    FL_TYPE1,
    FL_TYPE2,
    PackedTensor,
    encode_inputs,
)
from lhecnn.refine import RefineSession
from lhecnn.tee import TeeService

from conftest import encode_filters, encode_weights


def session_for(cfg, params, r_mode=1, seed=0):
    backend = SimulatorBackend(OpMeter())
    tee = TeeService(backend, params, seed=seed)
    sess = RefineSession(tee, cfg, params, r_mode=r_mode)
    sess.load_base_model(init_params(cfg, seed))
    return sess


def forward_error(sess, images):
    plain = plain_forward(sess.cfg, sess.decrypted_model(), images)
    logits, _ = sess.infer(images)
    got = sess.reveal_outputs(logits)
    return np.abs(got - plain.logits).max() / max(1.0, np.abs(plain.logits).max())


class TestConvForward:
    def test_identity_filter_squares_input(self, backend):
        # single 1x1 filter of value 1 -> output slots equal squared inputs
        cfg = CnnConfig((ConvLayer(1, 2, 1, 1, 1),), (FcLayer(4, 2),), 2)
        params = LheParams(8, 6)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        images = np.arange(8.0).reshape(2, 1, 2, 2)
        inputs = encode_inputs(backend, ctx, images, geo)
        want = backend.decrypt(ctx, inputs.cells[(0, 0, 0)]) ** 2  # conv_forward drops it
        filters = encode_filters(backend, ctx, np.ones((1, 1, 1, 1)), geo)
        pre = conv_forward(backend, inputs, filters, geo.kernel_side_after(0), 1)
        out = square_activation(backend, pre)
        got = backend.decrypt(ctx, out.cells[(0, 0, 0)])
        assert np.array_equal(got, want)

    def test_level_drops_two_per_layer_with_activation(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2), ConvLayer(2, 2, 1, 2, 1)),
                        (FcLayer(1, 2),), 2)
        params = LheParams(8, 10)
        sess = session_for(cfg, params)
        rng = np.random.default_rng(0)
        enc = sess.encrypt_inputs(rng.normal(size=(2, 1, 4, 4)))
        cache = []
        sess._forward(enc, cache)
        top = params.top_level
        for l, (inputs, pre) in enumerate(cache[:2]):
            assert pre.level() == top - 2 * l - 1
            assert inputs.level() == top - 2 * l

    def test_oracle_equivalence_basic(self):
        cfg = CnnConfig((ConvLayer(2, 7, 3, 3, 2), ConvLayer(3, 3, 2, 2, 1)),
                        (FcLayer(2 * 4, 3),), 4)
        sess = session_for(cfg, LheParams(64, 12))
        rng = np.random.default_rng(3)
        assert forward_error(sess, rng.normal(size=(4, 2, 7, 7))) < 1e-9


class TestConvCrossLayouts:
    def cfg_multi_channel(self):
        return CnnConfig((ConvLayer(4, 6, 4, 2, 2), ConvLayer(4, 3, 2, 2, 1)),
                         (FcLayer(2 * 4, 3),), 4)

    def test_cross_channel_matches_basic_values(self):
        cfg = self.cfg_multi_channel()
        params = LheParams(512, 12)
        rng = np.random.default_rng(1)
        images = rng.normal(size=(4, 4, 6, 6))
        base = session_for(cfg, params, r_mode=1)
        cross = session_for(cfg, params, r_mode="auto")
        assert cross.layouts[0] == "conv-cross-channel"
        assert forward_error(base, images) < 1e-9
        assert forward_error(cross, images) < 1e-9
        lb, _ = base.infer(images)
        lc, _ = cross.infer(images)
        assert np.allclose(base.reveal_outputs(lb), cross.reveal_outputs(lc),
                           rtol=1e-12, atol=1e-12)

    def test_cross_packing_reduces_multiplications(self):
        cfg = self.cfg_multi_channel()
        params = LheParams(512, 12)
        rng = np.random.default_rng(2)
        images = rng.normal(size=(4, 4, 6, 6))
        _, rb = session_for(cfg, params, r_mode=1).infer(images)
        _, rc = session_for(cfg, params, r_mode="auto").infer(images)
        assert rc.totals["mul"] < rb.totals["mul"]
        assert rc.totals["rot"] > 0  # folding rotations appear

    def test_cross_filter_mult_count_divided_by_group(self, backend):
        # one conv layer, 4 filters, r=4: filter products shrink by 4x
        cfg = CnnConfig((ConvLayer(1, 4, 4, 2, 2),), (FcLayer(16, 2),), 2)
        params = LheParams(32, 8)
        geo = combined_geometry(cfg, params)
        meter = backend.meter
        ctx = backend.keygen(params, seed=1)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 1, 4, 4))
        filters = rng.normal(size=(4, 1, 2, 2))

        basic_in = encode_inputs(backend, ctx, images, geo)
        basic_f = encode_filters(backend, ctx, filters, geo)
        mark = meter.checkpoint()
        conv_forward(backend, basic_in, basic_f, geo.kernel_side_after(0), 2)
        basic_muls = meter.since(mark)[("(unscoped)", "mul", params.top_level)]

        rep_in = encode_inputs(backend, ctx, images, geo, "conv-cross-filter", r=4)
        group_f = encode_filters(backend, ctx, filters, geo, "conv-cross-filter", r=4)
        mark = meter.checkpoint()
        conv_forward(backend, rep_in, group_f, geo.kernel_side_after(0), 2)
        grouped_muls = meter.since(mark)[("(unscoped)", "mul", params.top_level)]
        assert grouped_muls * 4 == basic_muls

    def test_cross_channel_r1_identical_to_basic(self, backend):
        cfg = CnnConfig((ConvLayer(2, 4, 2, 2, 2),), (FcLayer(2 * 4, 3),), 2)
        params = LheParams(32, 8)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        rng = np.random.default_rng(9)
        images = rng.normal(size=(2, 2, 4, 4))
        filters = rng.normal(size=(2, 2, 2, 2))
        basic = conv_forward(
            backend, encode_inputs(backend, ctx, images, geo),
            encode_filters(backend, ctx, filters, geo), geo.kernel_side_after(0), 2)
        cross = conv_forward(
            backend, encode_inputs(backend, ctx, images, geo, "conv-cross-channel", r=1),
            encode_filters(backend, ctx, filters, geo, "conv-cross-channel", r=1),
            geo.kernel_side_after(0), 2)
        for key in basic.cells:
            assert np.array_equal(basic.cells[key].slots, cross.cells[key].slots)

    def test_cross_channel_alpha_equals_r_halves_products(self, backend):
        # two channels packed together: one channel-group iteration per cell
        cfg = CnnConfig((ConvLayer(2, 4, 2, 2, 2),), (FcLayer(2 * 4, 3),), 2)
        params = LheParams(32, 8)
        geo = combined_geometry(cfg, params)
        meter = backend.meter
        ctx = backend.keygen(params, seed=1)
        rng = np.random.default_rng(10)
        images = rng.normal(size=(2, 2, 4, 4))
        filters = rng.normal(size=(2, 2, 2, 2))

        mark = meter.checkpoint()
        conv_forward(backend, encode_inputs(backend, ctx, images, geo),
                     encode_filters(backend, ctx, filters, geo),
                     geo.kernel_side_after(0), 2)
        basic_muls = sum(c for (s, k, _), c in meter.since(mark).items() if k == "mul")

        mark = meter.checkpoint()
        conv_forward(
            backend, encode_inputs(backend, ctx, images, geo, "conv-cross-channel", r=2),
            encode_filters(backend, ctx, filters, geo, "conv-cross-channel", r=2),
            geo.kernel_side_after(0), 2)
        cross_muls = sum(c for (s, k, _), c in meter.since(mark).items() if k == "mul")
        assert cross_muls * 2 == basic_muls

    def test_cross_filter_single_channel_start(self):
        cfg = CnnConfig((ConvLayer(1, 6, 4, 2, 2), ConvLayer(4, 3, 4, 2, 1)),
                        (FcLayer(4 * 4, 3),), 4)
        sess = session_for(cfg, LheParams(256, 12), r_mode=4)
        assert sess.layouts == ["conv-cross-filter", "conv-cross-channel"]
        rng = np.random.default_rng(4)
        assert forward_error(sess, rng.normal(size=(4, 1, 6, 6))) < 1e-9

    def test_layout_tag_validation(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        params = LheParams(32, 6)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        images = np.ones((2, 1, 4, 4))
        inputs = encode_inputs(backend, ctx, images, geo)
        for layout in ("conv-cross-channel", "conv-cross-filter"):
            filters = encode_filters(backend, ctx, np.ones((1, 1, 2, 2)), geo, layout, r=2)
            with pytest.raises(ValueError, match="expected"):
                conv_forward(backend, inputs, filters, 1, 2)
        # cross-filter inputs must carry a replica for every filter in a group
        two = encode_inputs(backend, ctx, images, geo, "conv-cross-filter", r=2)
        four = encode_filters(backend, ctx, np.ones((1, 1, 2, 2)), geo,
                              "conv-cross-filter", r=4)
        with pytest.raises(ValueError, match="replicas"):
            conv_forward(backend, two, four, 1, 2)


class TestFlForward:
    def test_type1_worked_example_chain(self, backend):
        ctx = backend.keygen(LheParams(8, 6), seed=1)
        inp = PackedTensor({(0,): backend.encrypt(ctx, [20, 40, 28, 56, 84, 168, 92, 184])},
                           FL_TYPE1, 2, pi_sets=4)
        matrix = np.array([[1.0, 0, 0, 1], [0, 1.0, 1, 0]])
        weights = encode_weights(backend, ctx, matrix, "type1", n=2, in_cts=1, pi_per_ct=4)
        out = fl_forward(backend, inp, weights)
        assert out.layout == FL_TYPE2
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0,)]),
                              [112, 224, 112, 224, 112, 224, 112, 224])
        assert np.array_equal(backend.decrypt(ctx, out.cells[(1,)]),
                              np.tile([28 + 84, 56 + 168], 4))

    def test_type1_all_ones_sums_block(self, backend):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        inp = PackedTensor({(0,): backend.encrypt(ctx, [1, 10, 2, 20, 3, 30, 4, 40])},
                           FL_TYPE1, 2, pi_sets=4)
        weights = encode_weights(backend, ctx, np.ones((1, 4)),
                                 "type1", n=2, in_cts=1, pi_per_ct=4)
        out = fl_forward(backend, inp, weights)
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0,)]),
                              np.tile([10, 100], 4))

    def test_type2_sums_inputs_with_unit_weights(self, backend):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        cells = {(i,): backend.encrypt(ctx, np.tile([i + 1.0, 10 * (i + 1)], 4))
                 for i in range(3)}
        inp = PackedTensor(cells, FL_TYPE2, 2, pi_sets=1)
        weights = encode_weights(backend, ctx, np.ones((1, 3)), "type2", n=2)
        out = fl_forward(backend, inp, weights)
        assert len(out.cells) == 1
        got = backend.decrypt(ctx, out.cells[(0,)])
        assert np.array_equal(got[:2], [6, 60])
        assert np.array_equal(got[2:], np.zeros(6))  # rows beyond o are zero

    def test_type_alternation_layouts(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),),
                        (FcLayer(8, 3), FcLayer(3, 2)), 2)
        sess = session_for(cfg, LheParams(16, 10))
        rng = np.random.default_rng(5)
        enc = sess.encrypt_inputs(rng.normal(size=(2, 1, 4, 4)))
        cache = []
        sess._forward(enc, cache)
        (fl1_in, fl1_pre), (fl2_in, fl2_pre) = cache[1:]
        assert fl1_in.layout == FL_TYPE1
        assert fl1_pre.layout == FL_TYPE2   # type I output
        assert fl2_in.layout == FL_TYPE2
        assert fl2_pre.layout == FL_TYPE1   # type II output

    @pytest.mark.parametrize("kind,expected,other",
                             [("type1", FL_TYPE1, FL_TYPE2), ("type2", FL_TYPE2, FL_TYPE1)])
    def test_rejects_the_other_input_form_naming_both(self, backend, kind, expected, other):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        weights = encode_weights(backend, ctx, np.ones((1, 4)), kind, n=2,
                                 in_cts=1, pi_per_ct=4)
        cells = {(i,): backend.encrypt(ctx, np.ones(8)) for i in range(weights.in_cts)}
        inp = PackedTensor(cells, other, 2, pi_sets=4 if other == FL_TYPE1 else 1)
        with pytest.raises(ValueError, match=f"expect {expected} input, got {other}$"):
            fl_forward(backend, inp, weights)

    def test_no_rotations_in_type2(self, backend):
        meter = backend.meter
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        cells = {(i,): backend.encrypt(ctx, np.ones(8)) for i in range(3)}
        inp = PackedTensor(cells, FL_TYPE2, 2, pi_sets=1)
        weights = encode_weights(backend, ctx, np.ones((2, 3)), "type2", n=2)
        mark = meter.checkpoint()
        fl_forward(backend, inp, weights)
        delta = meter.since(mark)
        assert not any(k[1] == "rot" for k in delta)


class _ScopeWatch(SimulatorBackend):
    """Counts, when FL2 first computes, the live ciphertexts at the level of
    the results of the ``watched`` stage.  It reads the live set from the
    garbage collector, so it holds no reference of its own to any
    ciphertext."""

    def __init__(self, meter, watched="CL1"):
        super().__init__(meter)
        self.watched = watched
        self.watched_level = None
        self.alive_at_fl2 = None

    def _watch(self, out):
        scope = self.meter.current_scope
        if scope == self.watched:
            self.watched_level = (out.key_id, out.level, out.pending_rescale)
        elif scope == "FL2" and self.alive_at_fl2 is None:
            self.alive_at_fl2 = sum(
                isinstance(obj, Ciphertext)
                and (obj.key_id, obj.level, obj.pending_rescale) == self.watched_level
                for obj in gc.get_objects())
        return out

    def add(self, a, b):
        return self._watch(super().add(a, b))

    def mul(self, a, b):
        return self._watch(super().mul(a, b))

    def mul_sum(self, pairs):
        return self._watch(super().mul_sum(pairs))

    def rotate_add(self, ct, shifts):
        return self._watch(super().rotate_add(ct, shifts))


class TestWorkingSet:
    CFG = CnnConfig((ConvLayer(1, 6, 2, 3, 3),), (FcLayer(2 * 4, 3), FcLayer(3, 2)), 2)

    def watched_session(self, watched="CL1", exact=True):
        tee = TeeService(_ScopeWatch(OpMeter(), watched), LheParams(32, 10), seed=3)
        sess = RefineSession(tee, self.CFG, LheParams(32, 10), r_mode=1,
                             exact_activation_grad=exact)
        sess.load_base_model(init_params(self.CFG, 3))
        return sess

    def test_inference_drops_conv_pre_activations(self):
        sess = self.watched_session()
        images = np.random.default_rng(3).normal(size=(2, 1, 6, 6))
        sess.infer(images)
        assert sess.backend.watched_level and sess.backend.alive_at_fl2 == 0

    def test_inference_drops_fc_pre_activations(self):
        sess = self.watched_session("FL1")
        images = np.random.default_rng(3).normal(size=(2, 1, 6, 6))
        sess.infer(images)
        assert sess.backend.watched_level and sess.backend.alive_at_fl2 == 0

    def test_refining_keeps_them_for_the_backward_pass(self):
        sess = self.watched_session()
        rng = np.random.default_rng(3)
        sess.refine(rng.normal(size=(2, 1, 6, 6)), np.array([0, 1]), lr=0.1)
        # the CL1 pre-activation cells: one per filter on the 1x1 output grid
        assert sess.geo.kernel_side_after(0) == 1
        assert sess.backend.alive_at_fl2 == self.CFG.conv[0].filters

    def test_constant_slope_refining_caches_none(self):
        # the constant-slope gradient never reads a pre-activation, so the
        # squares free every one of them during the forward pass
        sess = self.watched_session(exact=False)
        rng = np.random.default_rng(3)
        sess.refine(rng.normal(size=(2, 1, 6, 6)), np.array([0, 1]), lr=0.1)
        assert sess.backend.watched_level and sess.backend.alive_at_fl2 == 0

    @staticmethod
    def steady_pool(cfg, params, r_mode, refine=False, exact=False):
        """The backend's free lists after two steps of ``cfg``."""
        backend = SimulatorBackend(OpMeter())
        sess = RefineSession(TeeService(backend, params, seed=1), cfg, params,
                             r_mode=r_mode, exact_activation_grad=exact)
        sess.load_base_model(init_params(cfg, 1))
        first = cfg.conv[0]
        rng = np.random.default_rng(1)
        images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                                  first.input_side)) * 0.2
        labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
        for _ in range(2):
            if refine:
                sess.refine(images, labels, lr=0.05)
            else:
                sess.infer(images)
        return sess, backend.free_buffers

    # Peak pooled buffers of a steady step: each square frees a pre-activation
    # as it squares it, so no square holds a layer's output twice, and each
    # layer drops an input cell after its last reader.
    def test_steady_cnn12_inference_peaks_at_54_buffers(self):
        # CL1's 4 filter cells each read all 49 input cells, so CL1 holds
        # them all until its last filter cell: 49 inputs, its outputs and
        # the sum it is making.  FL1's 64 outputs are made one at a time as
        # FL2, a layer of one output cell, reads them.
        p = preset("cnn-1-2")
        _, pool = self.steady_pool(p.model, p.lhe, "auto")
        assert pool == {4096: 54}

    def test_steady_wide_refining_inference_peaks_at_11_buffers(self):
        # CL1 has one filter cell and windows that do not overlap, so each
        # of its 36 input cells is made, read and dropped in turn; FL1's 32
        # outputs stream into FL2 as above.
        p = preset("refining-2-2")
        sess, pool = self.steady_pool(p.model, LheParams(32768, 10), "auto")
        assert sess.r == 4 and pool == {32768: 11}

    def test_steady_constant_slope_round_peaks_at_354_buffers(self):
        # The backward stages change no parameter, and the commit after them
        # replaces each parameter cell as its new one is made, so a round
        # holds one model, not two, and the commit holds at most one cell
        # twice.  Its peak is a stage's, bwd.FL1's: the 260 parameter cells
        # and 94 buffers of that stage's working set.  Each backward stage
        # packs its weight gradients before it makes its input gradients, so
        # the cached layer input is gone by then, and the activation
        # gradient frees each of the previous stage's input gradients as it
        # replaces it.  After the round the old cells are back in the free
        # lists and the new ones are held.
        p = preset("refining-2-2")
        sess, pool = self.steady_pool(p.model, p.lhe, 1, refine=True)
        params = [ct for packed in sess.filters + sess.weights
                  for ct in packed.cells.values()]
        assert len(params) == 260 and all(ct._free is not None for ct in params)
        assert pool == {8192: 354 - 260}

    def test_steady_exact_gradient_round_keeps_144_free_buffers(self):
        # Exact gradients also cache each layer's pre-activations, at the 16
        # levels they need: the peak is 260 parameter cells and 144 buffers.
        p = preset("refining-2-2")
        _, pool = self.steady_pool(p.model, LheParams(p.lhe.slot_count, 16), 1,
                                   refine=True, exact=True)
        assert pool == {8192: 144}

    def test_steady_inference_allocates_little(self):
        sess = session_for(preset("cnn-1-2").model, preset("cnn-1-2").lhe)
        images = np.random.default_rng(1).normal(size=(64, 1, 28, 28))
        for _ in range(2):
            sess.infer(images)
        tracemalloc.start()
        try:
            sess.infer(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # without recycling a step's fresh slot arrays peak at several MB
        assert peak < 1_000_000
