import gc
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

from lhecnn import backward
from lhecnn.backward import (
    activation_gradient,
    conv_backward,
    conv_kernel_gradients,
    fl_backward,
    fl_weight_gradients,
    apply_refreshed,
    pack_count,
    refresh_gradients,
)
from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer, combined_geometry, preset
from lhecnn.lhe import Ciphertext, LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.oracle import init_params, plain_backward_step, plain_gradients
from lhecnn.packing import (
    FL_TYPE1,
    FL_TYPE2,
    PackedTensor,
    encode_filters,
    encode_inputs,
    signed_rotate_sum,
)
from lhecnn.refine import RefineSession
from lhecnn.tee import TeeService

from conftest import (
    encode_weights,
    per_op_apply_refreshed,
    per_op_noise_removal_update,
    per_op_refresh_gradients,
    update_with,
)

noise_removal_update = update_with(refresh_gradients, apply_refreshed)


def made(grads: dict) -> dict:
    """Gradients already made, as the update takes them: each maker returns
    its ciphertext as is."""
    return {key: partial(lambda ct: ct, ct) for key, ct in grads.items()}


def make_session(cfg, params, seed=0, exact=True):
    backend = SimulatorBackend(OpMeter())
    tee = TeeService(backend, params, seed=seed)
    sess = RefineSession(tee, cfg, params, r_mode=1, exact_activation_grad=exact)
    sess.load_base_model(init_params(cfg, seed))
    return sess


class TestActivationGradient:
    def test_doubles_and_applies_preactivation(self, backend):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        g = PackedTensor({(0,): backend.encrypt(ctx, np.full(8, 3.0))},
                         FL_TYPE2, 2, pi_sets=1)
        z = PackedTensor({(0,): backend.encrypt(ctx, np.arange(8.0))},
                         FL_TYPE2, 2, pi_sets=1)
        out = activation_gradient(backend, g, z, exact=True)
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0,)]),
                              2.0 * 3.0 * np.arange(8.0))

    def test_level_consumption(self, backend):
        # exact mode: one plaintext and one ciphertext multiplication
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        g = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                         FL_TYPE2, 2, pi_sets=1)
        z = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                         FL_TYPE2, 2, pi_sets=1)
        assert activation_gradient(backend, g, z, exact=True).level() == 5
        assert activation_gradient(backend, g, None, exact=False).level() == 6


class TestFlBackward:
    def test_type1_all_ones_trivial_case(self, backend):
        # o=1, unit weights, unit preacts: input grad = 2 * out_grad everywhere
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.full(8, 5.0))},
                             FL_TYPE2, 2, pi_sets=1)
        pre = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                           FL_TYPE2, 2, pi_sets=1)
        weights = encode_weights(backend, ctx, np.ones((1, 4)),
                                 "type1", n=2, in_cts=1, pi_per_ct=4)
        g = activation_gradient(backend, out_g, pre, exact=True)
        out = fl_backward(backend, g, weights)
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0,)]), np.full(8, 10.0))

    def test_input_grads_three_levels_below_output_grads(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                             FL_TYPE2, 2, pi_sets=1)
        pre = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                           FL_TYPE2, 2, pi_sets=1)
        weights = encode_weights(backend, ctx, np.ones((1, 4)),
                                 "type1", n=2, in_cts=1, pi_per_ct=4)
        g = activation_gradient(backend, out_g, pre, exact=True)
        out = fl_backward(backend, g, weights)
        assert out.level() == out_g.level() - 3  # cmul x2, preact mul, weight mul

    def test_type2_identity_single_neuron(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.tile([4.0, 6.0], 4))},
                             FL_TYPE1, 2, pi_sets=4)
        pre = PackedTensor({(0,): backend.encrypt(ctx, np.tile([0.5, 0.25], 4))},
                           FL_TYPE1, 2, pi_sets=4)
        weights = encode_weights(backend, ctx, np.array([[1.0]]), "type2", n=2)
        g = activation_gradient(backend, out_g, pre, exact=True)
        out = fl_backward(backend, g, weights)
        assert out.layout == FL_TYPE2
        # grad value per image replicated over the whole ciphertext: only the
        # first block of the type-II output carries the single output row
        got = backend.decrypt(ctx, out.cells[(0,)])
        assert np.array_equal(got, np.tile([2 * 4 * 0.5, 2 * 6 * 0.25], 4))

    def test_type_alternation_mirror(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.ones(8))},
                             FL_TYPE1, 2, pi_sets=4)
        weights = encode_weights(backend, ctx, np.ones((2, 3)), "type2", n=2)
        out = fl_backward(backend, activation_gradient(backend, out_g, out_g), weights)
        assert out.layout == FL_TYPE2 and len(out.cells) == 3


class TestFlWeightGradients:
    def test_two_image_slot_sum(self, backend):
        # out grad g replicated, inputs (a1, a2): slot p of every block holds
        # g*a1 + g*a2 after the signed rotate-sum the update applies
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.tile([3.0, 3.0], 4))},
                             FL_TYPE2, 2, pi_sets=1)
        inp = PackedTensor({(0,): backend.encrypt(ctx, [1, 2, 10, 20, 100, 200, 5, 6])},
                           FL_TYPE1, 2, pi_sets=4)
        weights = encode_weights(backend, ctx, np.ones((1, 4)),
                                 "type1", n=2, in_cts=1, pi_per_ct=4)
        raw = fl_weight_gradients(backend, out_g, inp, weights)
        p = 0  # (j*in_cts + i) mod n = 0: the first gradient of its pack
        got = backend.decrypt(ctx, signed_rotate_sum(backend, [raw[(0, 0)]()], 2, 1.0))
        assert got[0 * 2 + p] == 3 * 1 + 3 * 2
        assert got[1 * 2 + p] == 3 * 10 + 3 * 20
        assert got[2 * 2 + p] == 3 * 100 + 3 * 200

    def test_zero_out_grads_zero_gradients(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        out_g = PackedTensor({(0,): backend.encrypt(ctx, np.zeros(8))},
                             FL_TYPE2, 2, pi_sets=1)
        inp = PackedTensor({(0,): backend.encrypt(ctx, np.arange(8.0))},
                           FL_TYPE1, 2, pi_sets=4)
        weights = encode_weights(backend, ctx, np.ones((1, 4)),
                                 "type1", n=2, in_cts=1, pi_per_ct=4)
        raw = fl_weight_gradients(backend, out_g, inp, weights)
        assert all(np.array_equal(make().slots, np.zeros(8)) for make in raw.values())

    def test_gradient_matches_oracle_batch_sum(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),),
                        (FcLayer(8, 4), FcLayer(4, 3)), 4)
        params = LheParams(64, 16)
        sess = make_session(cfg, params, seed=2)
        rng = np.random.default_rng(2)
        images = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        plain = sess.decrypted_model()
        _, grads, _ = plain_gradients(cfg, plain, images, labels)

        enc = sess.encrypt_inputs(images)
        cache = []
        logits = sess._forward(enc, cache)
        vec = np.zeros(params.slot_count)
        vec[:4] = labels
        label_ct = sess.backend.encrypt(sess.ctx, vec)
        _, g = sess.tee.loss_head(sess.party, logits, label_ct, 3)
        raw = fl_weight_gradients(sess.backend, g, cache[2][0], sess.weights[1])
        # FL2 is type II: gradient for weight (row w, col i) sits in the batch
        # sum of raw[(i, 0)](), its type II cell, packed as gradient i of 4: at
        # slot w*n + i
        summed = signed_rotate_sum(sess.backend, [raw[(i, 0)]() for i in range(4)], 4, 1.0)
        slots = sess.tee.backend.decrypt(sess.tee._ctx, summed)
        for i in range(4):
            for w in range(3):
                assert abs(slots[w * 4 + i] - grads.weights[1][w, i]) < 1e-9


class TestGradientMakers:
    @pytest.mark.parametrize("layer", ["fc", "conv"])
    def test_a_layers_gradients_are_made_only_as_its_packs_call_them(self, backend, layer):
        # Building the dict, its length, iterating it and `in` make no
        # gradient; the update's packs make each one once.
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        if layer == "fc":
            out_g = PackedTensor({(j,): backend.encrypt(ctx, np.full(8, j + 1.0))
                                  for j in range(3)}, FL_TYPE2, 2, pi_sets=1)
            inp = PackedTensor({(i,): backend.encrypt(ctx, np.arange(8.0) + i)
                                for i in range(2)}, FL_TYPE1, 2, pi_sets=2)
            params = encode_weights(backend, ctx, np.ones((3, 4)), "type1", n=2,
                                    in_cts=2, pi_per_ct=2)
            build = lambda: fl_weight_gradients(backend, out_g, inp, params)
        else:
            cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
            geo = combined_geometry(cfg, LheParams(8, 10))
            inputs = encode_inputs(backend, ctx, np.ones((2, 1, 4, 4)), geo)
            params = encode_filters(backend, ctx, np.ones((1, 1, 2, 2)), geo)
            g = PackedTensor({(0, 0, 0): backend.encrypt(ctx, np.full(8, 0.5))},
                             "conv-basic", 2, geo.grid_side, geo.seg_slots)
            build = lambda: conv_kernel_gradients(backend, inputs, g, params, 1, 2)
        mark = backend.meter.checkpoint()
        raw = build()
        keys = list(raw)
        assert len(raw) == len(params.cells) and all(key in raw for key in keys)
        assert not backend.meter.since(mark)
        reenc = lambda cts: [backend.reencrypt(ctx, ct) for ct in cts]
        assert noise_removal_update(backend, reenc, raw, params.cells, 0.1, 2) == len(keys) // 2
        muls = sum(count for (_, kind, _), count in backend.meter.since(mark).items()
                   if kind == "mul")
        assert muls == len(keys) and not raw  # one product per gradient, each made once


class TestNoiseRemovalUpdate:
    def test_pack_count_ceiling(self):
        assert pack_count(6, 4) == 2
        assert pack_count(64, 128) == 1
        assert pack_count(129, 128) == 2

    def test_update_matches_oracle_sgd_step(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 3),), 4)
        params = LheParams(32, 16)
        sess = make_session(cfg, params, seed=5)
        plain0 = sess.decrypted_model()
        rng = np.random.default_rng(5)
        images = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        lr = 0.25
        sess.refine(images, labels, lr=lr, epochs=1)
        want, _ = plain_backward_step(cfg, plain0, images, labels, lr)
        got = sess.decrypted_model()
        for a, b in zip(got.weights, want.weights):
            assert np.abs(a - b).max() < 1e-8
        for a, b in zip(got.filters, want.filters):
            assert np.abs(a - b).max() < 1e-8

    def test_garbage_slots_never_reach_parameters(self, backend):
        # aggregation garbage off the masked offsets must not contaminate the
        # update: weights stay block-replicated after a full update cycle
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 3),), 4)
        params = LheParams(32, 16)
        sess = make_session(cfg, params, seed=6)
        rng = np.random.default_rng(6)
        images = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        sess.refine(images, labels, lr=0.3, epochs=1)
        for w in sess.weights:
            for ct in w.cells.values():
                slots = sess.tee.backend.decrypt(sess.tee._ctx, ct)
                blocks = slots.reshape(-1, cfg.n)
                assert np.allclose(blocks, blocks[:, :1], atol=1e-12)

    def test_levels_settle_at_top_minus_two(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 3),), 4)
        params = LheParams(32, 16)
        sess = make_session(cfg, params, seed=7)
        rng = np.random.default_rng(7)
        images = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        for _ in range(3):
            sess.refine(images, labels, lr=0.1, epochs=1)
            for w in sess.weights:
                assert {ct.level for ct in w.cells.values()} == {params.max_level - 2}
            for f in sess.filters:
                assert {ct.level for ct in f.cells.values()} == {params.max_level - 2}

    def test_tee_batch_size_ceiling(self, backend):
        # 6 gradients packed with n=4 -> two ciphertexts re-encrypted
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        raw = made({(j, i): backend.encrypt(ctx, np.ones(8))
                    for j in range(3) for i in range(2)})
        target = {(j, i): backend.encrypt(ctx, np.zeros(8))
                  for j in range(3) for i in range(2)}
        calls = []
        def reenc(cts):
            calls.append(len(cts))
            return [backend.reencrypt(ctx, ct) for ct in cts]
        packed = noise_removal_update(backend, reenc, raw, target, lr=0.1, n=4)
        assert packed == 2 and calls == [2]

    def test_raw_gradients_are_freed_before_reencryption(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        grads = {}
        for key in range(6):
            ct = backend.encrypt(ctx, np.full(8, key + 1.0))
            for _ in range(4):  # a level no other ciphertext here sits at
                ct = backend.cmul(ct, np.ones(8))
            grads[(key,)] = ct
        raw_level = (ct.key_id, ct.level, ct.pending_rescale)
        raw = made(grads)
        target = {key: backend.encrypt(ctx, np.zeros(8)) for key in raw}
        del grads, ct  # only the raw gradients hold them now
        alive = []

        def reenc(cts):
            # reads the live set from the garbage collector: no reference kept
            alive.append(sum(isinstance(obj, Ciphertext)
                             and (obj.key_id, obj.level, obj.pending_rescale) == raw_level
                             for obj in gc.get_objects()))
            return [backend.reencrypt(ctx, ct) for ct in cts]

        noise_removal_update(backend, reenc, raw, target, lr=0.1, n=4)
        assert alive == [0]
        assert not raw  # no operands left: the update popped every one

    def test_fl1_gradients_are_made_as_the_pack_takes_them(self, backend):
        # refining-2-2's bwd.FL1: 32 x 4 type I cells at S = 8192, one pack of
        # n = 128 gradients.  Each product is made as the pack takes it and
        # dropped once packed, so the pass peaks at a few slot buffers, not
        # at the 128 that making every gradient first would hold.
        slots, n = 8192, 128
        ctx = backend.keygen(LheParams(slots, 4), seed=3)
        rng = np.random.default_rng(3)
        weights = encode_weights(backend, ctx, np.zeros((32, 256)), "type1", n,
                                 in_cts=4, pi_per_ct=64)
        out_g = PackedTensor({(j,): backend.encrypt(ctx, rng.normal(size=slots))
                              for j in range(32)}, FL_TYPE2, n, pi_sets=1)
        inputs = PackedTensor({(i,): backend.encrypt(ctx, rng.normal(size=slots))
                               for i in range(4)}, FL_TYPE1, n, pi_sets=64)
        peaks = []

        def reenc(cts):
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return [backend.reencrypt(ctx, ct) for ct in cts]

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            raw = fl_weight_gradients(backend, out_g, inputs, weights)
            assert len(raw) == 128
            assert noise_removal_update(backend, reenc, raw, weights.cells, 0.05, n) == 1
        finally:
            tracemalloc.stop()
        assert peaks[0] < 8 * 8 * slots  # under 8 slot buffers

    def test_failed_reencryption_keeps_every_parameter(self, backend):
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        raw = made({(j,): backend.encrypt(ctx, np.full(8, j + 1.0)) for j in range(3)})
        target = {key: backend.encrypt(ctx, np.zeros(8)) for key in raw}
        before = dict(target)

        def reenc(cts):
            raise ConnectionError("TEE unreachable")

        with pytest.raises(ConnectionError):
            noise_removal_update(backend, reenc, raw, target, lr=0.1, n=2)
        assert all(target[k] is before[k] for k in before) and target.keys() == before.keys()

    def test_an_apply_interrupted_after_a_cells_update_adds_each_pack_once(self, backend):
        # 6 gradients, n = 4: two packs.  The interrupt lands once the first
        # pack's new cells have replaced the old ones, before the pack leaves
        # the queue.  Applying the queue again adds that pack in once, as an
        # uninterrupted apply does.
        ctx = backend.keygen(LheParams(8, 10), seed=1)
        grads = {(j,): backend.encrypt(ctx, np.full(8, j + 1.0)) for j in range(6)}
        start = {key: backend.encrypt(ctx, np.full(8, 0.5)) for key in grads}
        reenc = lambda cts: [backend.reencrypt(ctx, ct) for ct in cts]

        class InterruptedOnce(dict):
            updates = 0

            def update(self, *args):
                super().update(*args)
                InterruptedOnce.updates += 1
                if InterruptedOnce.updates == 1:
                    raise KeyboardInterrupt

        clean, cells = dict(start), InterruptedOnce(start)
        apply_refreshed(backend, refresh_gradients(backend, reenc, made(grads), 0.1, 4),
                        clean, 4)
        refreshed = refresh_gradients(backend, reenc, made(grads), 0.1, 4)
        with pytest.raises(KeyboardInterrupt):
            apply_refreshed(backend, refreshed, cells, 4)
        assert len(refreshed) == 2 and cells[(0,)] is not start[(0,)]
        apply_refreshed(backend, refreshed, cells, 4)
        assert not refreshed and InterruptedOnce.updates == 3
        stored = lambda d: {key: (ct.level, ct.pending_rescale, ct.slots.tobytes())
                            for key, ct in d.items()}
        assert stored(cells) == stored(clean)

    @pytest.mark.parametrize("count", [11, 3], ids=["three-packs", "part-of-one"])
    def test_matches_the_per_gradient_loop_and_builds_each_selector_once(self, count):
        # n = 4 offsets: 11 gradients fill three packs, the last one partly.
        # The mask now lives in the fused sum and spread, so the update
        # builds no selector at all: "each once" has become "none".
        class CountingCmul(SimulatorBackend):
            cmuls = 0

            def cmul(self, a, pt):
                self.cmuls += 1
                return super().cmul(a, pt)

        def run(update):
            backend = CountingCmul(OpMeter())
            ctx = backend.keygen(LheParams(16, 10), seed=2)
            rng = np.random.default_rng(2)
            raw = made({(key,): backend.cmul(backend.encrypt(ctx, rng.normal(size=16)),
                                             rng.normal(size=16)) for key in range(count)})
            target = {key: backend.encrypt(ctx, rng.normal(size=16)) for key in raw}
            reenc = lambda cts: [backend.reencrypt(ctx, ct) for ct in cts]
            backend.cmuls = 0  # every cmul from here on takes a selector
            packed = update(backend, reenc, raw, target, 0.3, 4)
            return (packed, {k: ct.slots.tobytes() for k, ct in target.items()},
                    backend.meter.checkpoint()), backend.cmuls

        (fused, built), (per_op, per_op_built) = (
            run(noise_removal_update), run(per_op_noise_removal_update))
        assert fused == per_op
        assert built == 0 and per_op_built == 2 * count
        assert not hasattr(backward, "make_selector")

    def test_a_round_calls_rot_only_inside_the_spread(self, monkeypatch):
        # A refining-2-2 round meters 4624 rotations.  Only the spread's 1820
        # (260 gradients, 7 steps each) go through ``rot``, where a traced
        # backend counts them; the folds and the batch sums meter theirs
        # without a call.
        class Counting(SimulatorBackend):
            where = "outside"

            def rot(self, a, m):
                calls[self.where] += 1
                return super().rot(a, m)

        calls = Counter()
        spread = backward.signed_rotate_spread

        def watched_spread(backend, *args):
            backend.where = "spread"
            try:
                return spread(backend, *args)
            finally:
                backend.where = "outside"

        monkeypatch.setattr(backward, "signed_rotate_spread", watched_spread)
        cfg, params = preset("refining-2-2").model, preset("refining-2-2").lhe
        tee = TeeService(Counting(OpMeter()), params, seed=3)
        sess = RefineSession(tee, cfg, params, r_mode=1, exact_activation_grad=False)
        sess.load_base_model(init_params(cfg, 3))
        first = cfg.conv[0]
        rng = np.random.default_rng(3)
        images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                                  first.input_side)) * 0.2
        labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
        report = sess.refine(images, labels, lr=0.05).report
        assert report.totals["rot"] == 4624
        assert calls == {"spread": 1820}

    @pytest.mark.parametrize("sigma", [0.0, 1e-6], ids=["noiseless", "noisy"])
    def test_rounds_match_the_per_op_update_byte_for_byte(self, monkeypatch, sigma):
        # Two refining rounds through the fused halves of the update and
        # through their per-op references (rotate_add, selector cmul, add):
        # the same model, bit for bit, and the same op counts.  Each half is
        # patched where the round looks it up and counted, so a patch the
        # round does not reach fails here.
        cfg = CnnConfig((ConvLayer(1, 6, 2, 2, 2),), (FcLayer(18, 4), FcLayer(4, 3)), 4)
        params = LheParams(256, 16, sigma)
        rng = np.random.default_rng(11)
        images = rng.normal(size=(4, 1, 6, 6))
        labels = rng.integers(0, 3, size=4)

        def two_rounds(refresh, apply):
            ran = Counter()

            def counted(name, half):
                def call(*args):
                    ran[name] += 1
                    return half(*args)
                return call

            monkeypatch.setattr(backward, "refresh_gradients", counted("refresh", refresh))
            monkeypatch.setattr(backward, "apply_refreshed", counted("apply", apply))
            sess = make_session(cfg, params, seed=11)
            for _ in range(2):
                sess.refine(images, labels, lr=0.2, epochs=1)
            model = sess.decrypted_model()
            return ([a.tobytes() for a in model.filters + model.weights],
                    sess.meter.checkpoint()), ran

        fused, fused_ran = two_rounds(refresh_gradients, apply_refreshed)
        per_op, per_op_ran = two_rounds(per_op_refresh_gradients, per_op_apply_refreshed)
        assert fused == per_op
        # two rounds of three backward stages, each half once per stage
        assert fused_ran == per_op_ran == {"refresh": 6, "apply": 6}

    def test_lr_zero_leaves_values_unchanged(self):
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 3),), 4)
        params = LheParams(32, 16)
        sess = make_session(cfg, params, seed=8)
        before = {i: ct.slots.copy() for w in sess.weights
                  for i, ct in w.cells.items()}
        rng = np.random.default_rng(8)
        sess.refine(rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4),
                    lr=0.0, epochs=1)
        for w in sess.weights:
            for i, ct in w.cells.items():
                assert np.array_equal(ct.slots, before[i])


class TestConvBackward:
    def test_single_1x1_filter_scales_gradient(self, backend):
        cfg = CnnConfig((ConvLayer(1, 2, 1, 1, 1),), (FcLayer(4, 2),), 2)
        params = LheParams(8, 10)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        filters = encode_filters(backend, ctx, np.full((1, 1, 1, 1), 2.5), geo)
        g = PackedTensor({(0, 0, 0): backend.encrypt(ctx, np.arange(8.0))},
                         "conv-basic", 2, geo.grid_side, geo.seg_slots)
        out = conv_backward(backend, g, filters, out_grid=1, stride=1, in_grid=1)
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0, 0, 0)]),
                              2.5 * np.arange(8.0))

    def test_overlap_positions_accumulate_contributions(self, backend):
        # kernel 2, stride 1 on a 3-wide grid: interior grid cells receive
        # gradient from several kernel placements (4 in 2-D)
        cfg = CnnConfig((ConvLayer(1, 8, 1, 4, 2), ConvLayer(1, 3, 1, 2, 1)),
                        (FcLayer(4, 2),), 2)
        params = LheParams(8, 10)
        geo = combined_geometry(cfg, params)
        assert geo.kernel_sides == (6, 2)
        ctx = backend.keygen(params, seed=1)
        filters = encode_filters(backend, ctx, np.ones((1, 1, 2, 2)), geo)
        cells = {(0, u, v): backend.encrypt(ctx, np.ones(8))
                 for u in range(2) for v in range(2)}
        g = PackedTensor(cells, "conv-basic", 2, geo.grid_side, geo.seg_slots)
        out = conv_backward(backend, g, filters, out_grid=2, stride=1, in_grid=3)
        contributions = {key: backend.decrypt(ctx, ct)[0]
                         for key, ct in out.cells.items()}
        assert contributions[(0, 1, 1)] == 4.0  # center: all four placements
        assert contributions[(0, 0, 0)] == 1.0  # corner: one placement
        assert contributions[(0, 0, 1)] == 2.0  # edge: two placements

    def test_unvisited_positions_are_zero(self, backend):
        # stride 2 with kernel 1 never touches odd grid positions
        cfg = CnnConfig((ConvLayer(1, 9, 1, 3, 3), ConvLayer(1, 3, 1, 1, 2)),
                        (FcLayer(4, 2),), 2)
        params = LheParams(8, 10)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        filters = encode_filters(backend, ctx, np.ones((1, 1, 1, 1)), geo)
        cells = {(0, u, v): backend.encrypt(ctx, np.ones(8))
                 for u in range(2) for v in range(2)}
        g = PackedTensor(cells, "conv-basic", 2, geo.grid_side, geo.seg_slots)
        out = conv_backward(backend, g, filters, out_grid=2, stride=2, in_grid=3)
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0, 1, 1)]), np.zeros(8))
        assert np.array_equal(backend.decrypt(ctx, out.cells[(0, 2, 2)]), np.ones(8))


class TestConvKernelGradients:
    def test_zero_out_grads(self, backend):
        cfg = CnnConfig((ConvLayer(1, 4, 1, 2, 2),), (FcLayer(4, 2),), 2)
        params = LheParams(8, 10)
        geo = combined_geometry(cfg, params)
        ctx = backend.keygen(params, seed=1)
        inputs = encode_inputs(backend, ctx, np.ones((2, 1, 4, 4)), geo)
        filters = encode_filters(backend, ctx, np.ones((1, 1, 2, 2)), geo)
        g = PackedTensor({(0, 0, 0): backend.encrypt(ctx, np.zeros(8))},
                         "conv-basic", 2, geo.grid_side, geo.seg_slots)
        raw = conv_kernel_gradients(backend, inputs, g, filters, 1, 2)
        assert all(np.array_equal(make().slots, np.zeros(8)) for make in raw.values())

    def test_offset_assignment_covers_all_residues(self):
        # flat kernel index mod n must hit every offset when there are >= n
        # kernel elements, so packing fills whole ciphertexts
        eps, alpha, gamma, n = 2, 2, 2, 8
        offsets = {(k * alpha * gamma**2 + i * gamma**2 + x * gamma + y) % n
                   for k in range(eps) for i in range(alpha)
                   for x in range(gamma) for y in range(gamma)}
        assert offsets == set(range(n))

    @pytest.mark.parametrize("gamma,delta", [(2, 1), (2, 2), (3, 3)])
    def test_matches_oracle_over_batch_and_positions(self, gamma, delta):
        beta = 6 if gamma != 3 else 9
        cfg = CnnConfig((ConvLayer(1, beta, 2, gamma, delta),),
                        (FcLayer(2 * (1 + (beta - gamma) // delta) ** 2, 3),), 4)
        params = LheParams(256, 16)
        sess = make_session(cfg, params, seed=3)
        rng = np.random.default_rng(3)
        images = rng.normal(size=(4, 1, beta, beta))
        labels = rng.integers(0, 3, size=4)
        plain = sess.decrypted_model()
        _, grads, _ = plain_gradients(cfg, plain, images, labels)

        enc = sess.encrypt_inputs(images)
        cache = []
        logits = sess._forward(enc, cache)
        vec = np.zeros(params.slot_count)
        vec[:4] = labels
        label_ct = sess.backend.encrypt(sess.ctx, vec)
        _, g = sess.tee.loss_head(sess.party, logits, label_ct, 3)
        # propagate through the only fc layer, then the conv activation
        g = fl_backward(sess.backend, g, sess.weights[0])
        g = sess._as_conv_grad(g)
        inputs, pre = cache[0]
        g = activation_gradient(sess.backend, g, pre, exact=True)
        raw = conv_kernel_gradients(sess.backend, inputs, g,
                                    sess.filters[0], sess.geo.kernel_side_after(0),
                                    delta)
        n, keys = cfg.n, list(raw)
        # packed n at a time in flat kernel order, as the update packs them
        assert keys == sorted(keys)
        for start in range(0, len(keys), n):
            pack = keys[start:start + n]
            summed = signed_rotate_sum(sess.backend, [raw[key]() for key in pack], n, 1.0)
            slots = sess.tee.backend.decrypt(sess.tee._ctx, summed)
            for idx, key in enumerate(pack):
                want = grads.filters[0][key]
                scale = max(1.0, abs(want))
                assert abs(slots[idx] - want) / scale < 1e-9
