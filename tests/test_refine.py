import dataclasses
import os
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lhecnn import backward
from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer, combined_geometry, preset
from lhecnn.lhe import (Ciphertext, LevelExhausted, LheParams, SimulatorBackend, _extent,
                        serialize_many, serialized_size)
from lhecnn.metering import CostTable, OpMeter, build_report
from lhecnn.oracle import init_params, plain_backward_step, plain_forward
from lhecnn.refine import FORMAT_TAG, RefineSession, plan_layouts
from lhecnn.tee import BoundaryStats, TeeService

from conftest import (PerOpBackend, mapping_resident_kb, mappings, stores_holes,
                      written_bytes, written_pages_kb)


def make_session(cfg, params, seed=0, exact=True, r_mode=1, backend_type=SimulatorBackend):
    backend = backend_type(OpMeter())
    tee = TeeService(backend, params, seed=seed)
    sess = RefineSession(tee, cfg, params, r_mode=r_mode,
                         exact_activation_grad=exact)
    sess.load_base_model(init_params(cfg, seed))
    return sess


def model_bytes(sess):
    model = sess.decrypted_model()
    return [a.tobytes() for a in model.filters + model.weights]


def stored_cells(sess):
    """Every parameter cell's key, level, rescale flag and slot bytes."""
    return [(key, ct.level, ct.pending_rescale, ct.slots.tobytes())
            for packed in sess.filters + sess.weights
            for key, ct in packed.cells.items()]


def saved_cells(sess):
    """Every parameter cell, in the order a save writes them."""
    return [packed.cells[key] for packed in sess.filters + sess.weights
            for key in packed.cell_keys()]


def small_cfg():
    return CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 4), FcLayer(4, 3)), 4)


# small_cfg()'s model as a saved session's manifest holds it
SMALL_MODEL = ('{"conv": [{"channels": 1, "input_side": 4, "filters": 2, "filter_side": 2, '
               '"stride": 2}], "fc": [{"inputs": 8, "outputs": 4}, {"inputs": 4, "outputs": 3}]}')


def padded_cfg(channels):
    """Two conv layers of 3 filters each: with r = 2 the last filter or channel
    group is half padding."""
    return CnnConfig((ConvLayer(channels, 6, 3, 2, 2), ConvLayer(3, 3, 3, 2, 1)),
                     (FcLayer(12, 5), FcLayer(5, 3)), 4)


def three_fc_cfg():
    """Type I, type II, then type I again: the last fc layer's input is a type
    II output (S/n pi-sets per ciphertext)."""
    return CnnConfig((ConvLayer(1, 4, 2, 2, 2),),
                     (FcLayer(8, 5), FcLayer(5, 6), FcLayer(6, 3)), 4)


class TestModelOnboarding:
    def test_refining_preset_loads(self):
        p = preset("refining-2-2")
        sess = make_session(p.model, p.lhe)
        assert len(sess.filters[0].cells) == 36
        assert len(sess.filters[1].cells) == 64
        assert len(sess.weights[0].cells) == 32 * 4
        assert len(sess.weights[1].cells) == 32
        assert sess.weights[0].kind == "type1" and sess.weights[1].kind == "type2"

    @pytest.mark.parametrize("cfg, slots, r_mode, layouts", [
        (small_cfg(), 32, 1, ["conv-basic"]),
        (padded_cfg(1), 128, 2, ["conv-cross-filter", "conv-cross-channel"]),
        (padded_cfg(3), 256, 2, ["conv-cross-channel", "conv-basic"]),
        (three_fc_cfg(), 16, 1, ["conv-basic"]),
    ], ids=["basic", "cross-filter-then-cross-channel", "cross-channel-then-basic",
            "type1-after-type2"])
    def test_decrypted_model_roundtrip(self, cfg, slots, r_mode, layouts):
        sess = make_session(cfg, LheParams(slots, 12), seed=4, r_mode=r_mode)
        assert sess.layouts == layouts
        plain = init_params(cfg, 4)
        got = sess.decrypted_model()
        for a, b in zip(got.filters + got.weights, plain.filters + plain.weights):
            assert np.array_equal(a, b)
        first = cfg.conv[0]
        images = np.random.default_rng(4).normal(
            size=(cfg.n, first.channels, first.input_side, first.input_side))
        logits, _ = sess.infer(images)
        want = plain_forward(cfg, plain, images).logits
        err = np.abs(sess.reveal_outputs(logits) - want).max()
        assert err / max(1.0, np.abs(want).max()) < 1e-9

    def test_a_session_takes_its_tees_parameters(self):
        # The TEE encrypts under its own parameters, so a session that kept
        # other ones would refine under the TEE's levels and save a manifest
        # of its own, which its cells do not fit.  It is refused up front,
        # naming both parameter sets.
        tee = TeeService(SimulatorBackend(OpMeter()), LheParams(32, 16), seed=5)
        with pytest.raises(ValueError, match=r"max_level=10.*TEE's.*max_level=16"):
            RefineSession(tee, small_cfg(), LheParams(32, 10))
        with pytest.raises(ValueError, match=r"noise_sigma=1e-06.*noise_sigma=0.0"):
            RefineSession(tee, small_cfg(), LheParams(32, 16, 1e-6))
        assert RefineSession(tee, small_cfg(), LheParams(32, 16)).params == tee.params

    def test_reload_replaces_parameters_atomically(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 12), seed=1)
        first = sess.weights
        sess.load_base_model(init_params(cfg, 2))
        assert sess.weights is not first
        got = sess.decrypted_model()
        want = init_params(cfg, 2)
        assert np.array_equal(got.weights[0], want.weights[0])

    def test_shape_mismatch_rejected(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 12))
        bad = init_params(cfg, 0)
        bad.weights[0] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            sess.load_base_model(bad)

    def test_onboarding_makes_only_the_written_prefixes_resident(self):
        # Each cell's buffer is a new mapping, and only its prefix is
        # written: the mappings that hold the cells have no page resident
        # past the cells' prefixes but what else they hold.  Written in
        # full, the cells would be 185 x 256 KB resident.
        if not Path("/proc/self/smaps").exists():
            pytest.skip("no /proc/self/smaps")
        p, params = preset("refining-2-2"), LheParams(32768, 10)
        sess = make_session(p.model, params, seed=23, exact=False, r_mode=4)
        cells = [ct for packed in sess.filters + sess.weights
                 for ct in packed.cells.values()]
        addresses = [ct.slots.__array_interface__["data"][0] for ct in cells]
        holding = {(start, end, resident) for start, end, resident in mappings()
                   if any(start <= address < end for address in addresses)}
        page = os.sysconf("SC_PAGE_SIZE")
        prefixes = sum(-(-ct._bound * 8 // page) * page for ct in cells)
        others = sum(end - start for start, end, _ in holding) - len(cells) * 8 * 32768
        assert len(cells) == 185 and prefixes < len(cells) * 8 * 32768 // 3
        assert 0 < sum(resident for *_, resident in holding) * 1024 <= prefixes + others


class TestInfer:
    def test_zero_inputs_give_zero_logits(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 12))
        logits, _ = sess.infer(np.zeros((4, 1, 4, 4)))
        assert np.array_equal(sess.reveal_outputs(logits), np.zeros((4, 3)))

    # Expected counts below are literals, recorded from the closed-form
    # planner the library once had, so each test keeps a value independent
    # of the pipeline it checks.
    STAGES = {
        "cnn-1-2": {"CL1": (192, 196, 0, 0), "Square1": (0, 4, 0, 0),
                    "FL1": (576, 256, 384, 0), "Square2": (0, 64, 0, 0),
                    "FL2": (63, 64, 0, 0)},
        "refining-2-2": {"CL1": (128, 144, 0, 0), "Square1": (0, 16, 0, 0),
                         "CL2": (60, 64, 0, 0), "Square2": (0, 4, 0, 0),
                         "FL1": (288, 128, 192, 0), "Square3": (0, 32, 0, 0),
                         "FL2": (31, 32, 0, 0)},
    }

    @staticmethod
    def run_counts(sess, images):
        mark = sess.meter.checkpoint()
        sess.infer(images)
        got = sess.meter.since(mark)
        return got, {scope: sess.meter.scope_tuple(scope, got)
                     for scope in sess.meter.scope_totals(got)
                     if not scope.startswith("enc.")}

    def test_report_counts_equal_static_plan(self):
        for name, want in self.STAGES.items():
            p = preset(name)
            sess = make_session(p.model, p.lhe)
            rng = np.random.default_rng(0)
            images = rng.normal(size=(p.model.n, p.model.conv[0].channels, 28, 28))
            assert self.run_counts(sess, images)[1] == want, name

    def test_plan_matches_run_for_cross_layouts(self):
        cfg = CnnConfig((ConvLayer(4, 6, 4, 2, 2), ConvLayer(4, 3, 2, 2, 1)),
                        (FcLayer(2 * 4, 3),), 4)
        params = LheParams(512, 12)
        sess = make_session(cfg, params, r_mode="auto")
        assert sess.layouts == ["conv-cross-channel", "conv-cross-filter"]
        rng = np.random.default_rng(1)
        got, stages = self.run_counts(sess, rng.normal(size=(4, 4, 6, 6)))
        assert stages == {"CL1": (128, 64, 80, 0), "Square1": (0, 16, 0, 0),
                          "CL2": (15, 16, 0, 0), "Square2": (0, 1, 0, 0),
                          "FL1": (21, 3, 21, 0)}
        assert sess.meter.scope_totals(got)["enc.inputs"]["encrypt"] == 16

    def test_plan_predicts_encryption_counts(self):
        p = preset("cnn-1-2")
        sess = make_session(p.model, p.lhe)
        sess.infer(np.zeros((p.model.n, 1, 28, 28)))
        encryptions = {scope: per["encrypt"]
                       for scope, per in sess.meter.scope_totals().items()
                       if scope.startswith("enc.")}
        assert encryptions == {"enc.inputs": 49, "enc.filters": 196,
                               "enc.weights.FL1": 256, "enc.weights.FL2": 64}

    @pytest.mark.parametrize("shape", [(2, 28, 28), (1, 28, 27), (1, 30, 30)],
                             ids=["two-channels", "28x27", "30x30"])
    def test_images_of_another_shape_raise_before_anything_is_encrypted(self, shape):
        # cnn-1-2 takes 1x28x28 images: a second channel would be ignored,
        # a short row would gather the wrong pixels and a wider image would
        # be cropped
        p = preset("cnn-1-2")
        sess = make_session(p.model, p.lhe)
        images, labels = np.zeros((p.model.n, *shape)), np.zeros(p.model.n, dtype=int)
        mark = sess.meter.checkpoint()
        for run in (lambda: sess.infer(images), lambda: sess.refine(images, labels, 0.05)):
            with pytest.raises(ValueError, match=r"the model takes \(1, 28, 28\)"):
                run()
        assert sess.meter.since(mark) == Counter()


class TestPerOpReference:
    """The presets' pipelines through the batched primitives and through
    :class:`conftest.PerOpBackend`, whose ``mul_sum``, ``mul_sums`` and
    ``rotate_add`` are the per-op loops: byte-identical slots and equal (scope, kind, level)
    count maps."""

    @staticmethod
    def batch(cfg, seed=5):
        rng = np.random.default_rng(seed)
        first = cfg.conv[0]
        images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                                  first.input_side)) * 0.2
        return images, rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)

    @staticmethod
    def cell_bytes(cells):
        return {key: (ct.slots.tobytes(), ct.level, ct.pending_rescale)
                for key, ct in cells.items()}

    @pytest.mark.parametrize("name, params", [
        ("cnn-1-2", preset("cnn-1-2").lhe),
        ("refining-2-2", LheParams(32768, 10)),
    ], ids=["cnn-1-2", "refining-2-2-wide"])
    def test_inference_matches_the_per_op_loops(self, name, params):
        cfg = preset(name).model
        images, _ = self.batch(cfg)

        def run(backend_type):
            sess = make_session(cfg, params, seed=5, r_mode="auto",
                                backend_type=backend_type)
            logits, _ = sess.infer(images)
            return sess.layouts, self.cell_bytes(logits.cells), sess.meter.checkpoint()

        fast, per_op = run(SimulatorBackend), run(PerOpBackend)
        assert fast == per_op
        if name == "refining-2-2":  # the cross layouts, r = 4, and their folds
            assert fast[0] == ["conv-cross-filter", "conv-cross-channel"]

    @pytest.mark.parametrize("sigma", [0.0, 1e-6], ids=["noiseless", "noisy"])
    def test_rounds_match_the_per_op_loops(self, sigma):
        p = preset("refining-2-2")
        params = dataclasses.replace(p.lhe, noise_sigma=sigma)
        images, labels = self.batch(p.model)

        def two_rounds(backend_type):
            sess = make_session(p.model, params, seed=5, exact=False,
                                backend_type=backend_type)
            losses = [sess.refine(images, labels, lr=0.05).losses[0] for _ in range(2)]
            cells = [self.cell_bytes(packed.cells) for packed in sess.filters + sess.weights]
            return losses, cells, sess.meter.checkpoint()

        assert two_rounds(SimulatorBackend) == two_rounds(PerOpBackend)


class TestRefine:
    def test_the_backends_wire_size_alone_sizes_the_tee_bytes(self):
        # a backend that sizes each ciphertext as RNS CKKS would at N=16384
        # (two polynomials of level + 1 primes) moves the TEE's byte counts
        # and nothing else the round reports
        class CkksSized(SimulatorBackend):
            def wire_size(self, ct):
                return 2 * 16384 * (ct.level + 1) * 8

        cfg, params = small_cfg(), LheParams(32, 16)
        rng = np.random.default_rng(5)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        plain, sized = (make_session(cfg, params, seed=5, backend_type=kind)
                        .refine(images, labels, lr=0.1)
                        for kind in (SimulatorBackend, CkksSized))
        assert sized.losses == plain.losses and sized.report == plain.report
        top = 2 * 16384 * params.max_level * 8  # every reply is at the top level
        was, now = plain.tee_delta, sized.tee_delta
        assert (was.bytes_in, was.bytes_out) == (was.cts_in * serialized_size(32),
                                                 was.cts_out * serialized_size(32))
        assert now.bytes_out == now.cts_out * top and 0 < now.bytes_in < now.cts_in * top
        assert dataclasses.replace(now, bytes_in=was.bytes_in, bytes_out=was.bytes_out) == was

    def test_each_refining_round_retires_every_replaced_cell_once(self):
        # refining-2-2 holds 260 parameter cells, and a round replaces each
        class Retiring(SimulatorBackend):
            def __init__(self, meter):
                super().__init__(meter)
                self.retired = []

            def retire(self, ct):
                self.retired.append(ct)
                super().retire(ct)

        r22 = preset("refining-2-2")
        sess = make_session(r22.model, r22.lhe, seed=9, exact=False, backend_type=Retiring)
        rng = np.random.default_rng(9)
        for _ in range(2):
            before = [ct for packed in sess.filters + sess.weights
                      for ct in packed.cells.values()]
            sess.backend.retired.clear()
            sess.refine(rng.normal(size=(r22.model.n, 1, 28, 28)) * 0.2,
                        rng.integers(0, 10, size=r22.model.n), lr=0.05)
            assert len(before) == 260
            assert sorted(map(id, sess.backend.retired)) == sorted(map(id, before))

    def test_a_backend_built_without_a_meter_meters_a_round(self):
        # SimulatorBackend() builds its own meter: a session on it runs a
        # round and meters it as a session on a meter passed in does
        cfg, params = small_cfg(), LheParams(32, 16)
        rng = np.random.default_rng(4)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        tee = TeeService(SimulatorBackend(), params, seed=4)
        sess = RefineSession(tee, cfg, params, r_mode=1)
        assert isinstance(sess.meter, OpMeter) and sess.meter is tee.backend.meter
        assert sess.party == "refine-session" and tee.attested_parties == {sess.party}
        sess.load_base_model(init_params(cfg, 4))
        report = sess.refine(images, labels, lr=0.1).report
        assert report.total_tuple() == make_session(cfg, params, seed=4).refine(
            images, labels, lr=0.1).report.total_tuple()
        assert report.totals["rot"] > 0 and sess.meter.scope_totals()["bwd.FL2"]["rot"] > 0

    def test_lr_zero_round_is_bit_exact_noop(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16), seed=2)
        before = sess.decrypted_model()
        rng = np.random.default_rng(2)
        result = sess.refine(rng.normal(size=(4, 1, 4, 4)),
                             rng.integers(0, 3, size=4), lr=0.0, epochs=1)
        after = sess.decrypted_model()
        for a, b in zip(after.filters + after.weights,
                        before.filters + before.weights):
            assert np.array_equal(a, b)
        assert len(result.losses) == 1

    def test_one_round_equals_oracle_sgd_step(self):
        for cfg, params in ((small_cfg(), LheParams(32, 16)),
                            (three_fc_cfg(), LheParams(16, 24))):
            sess = make_session(cfg, params, seed=3)
            plain0 = sess.decrypted_model()
            rng = np.random.default_rng(3)
            images = rng.normal(size=(4, 1, 4, 4))
            labels = rng.integers(0, 3, size=4)
            res = sess.refine(images, labels, lr=0.4, epochs=1)
            want, wloss = plain_backward_step(cfg, plain0, images, labels, 0.4)
            assert abs(res.losses[0] - wloss) < 1e-12
            got = sess.decrypted_model()
            for a, b in zip(got.filters + got.weights, want.filters + want.weights):
                assert np.abs(a - b).max() < 1e-8

    def test_batching_multiple_rounds_per_epoch(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16), seed=4)
        rng = np.random.default_rng(4)
        res = sess.refine(rng.normal(size=(8, 1, 4, 4)),
                          rng.integers(0, 3, size=8), lr=0.1, epochs=2)
        assert res.rounds == 4 and len(res.losses) == 4

    def test_batch_not_divisible_rejected(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16))
        with pytest.raises(ValueError):
            sess.refine(np.zeros((6, 1, 4, 4)), np.zeros(6, dtype=int), lr=0.1)

    def test_tee_accounting_exact(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16), seed=5)
        rng = np.random.default_rng(5)
        res = sess.refine(rng.normal(size=(8, 1, 4, 4)),
                          rng.integers(0, 3, size=8), lr=0.1, epochs=1)
        assert res.tee_delta.reencryptions == 2 * sess.expected_reencryptions_per_round()

    def test_tee_delta_is_the_stats_difference_in_every_field(self):
        sess = make_session(small_cfg(), LheParams(32, 16), seed=5)
        rng = np.random.default_rng(5)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        sess.refine(images, labels, lr=0.1)  # the window starts from nonzero stats
        before = sess.tee.stats.snapshot()
        res = sess.refine(images, labels, lr=0.1)
        for f in dataclasses.fields(BoundaryStats):
            got = getattr(res.tee_delta, f.name)
            assert got == getattr(sess.tee.stats, f.name) - getattr(before, f.name), f.name
            assert got > 0, f.name   # a round moves every counter

    def test_refine_on_no_images_reports_an_empty_window(self):
        # the report covers this call only, even when nothing ran in it
        sess = make_session(small_cfg(), LheParams(32, 16), seed=4)
        sess.infer(np.zeros((4, 1, 4, 4)))
        res = sess.refine(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), lr=0.1)
        assert res.rounds == 0 and res.losses == []
        assert res.report.total_tuple() == (0, 0, 0, 0)
        assert res.report.per_scope == {} and res.report.est_latency_us == 0
        assert res.tee_delta == BoundaryStats()

    def test_tee_traffic_is_minimal(self):
        # per round the boundary carries exactly the loss-head I/O plus the
        # packed gradient batches, nothing else
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16), seed=6)
        rng = np.random.default_rng(6)
        res = sess.refine(rng.normal(size=(4, 1, 4, 4)),
                          rng.integers(0, 3, size=4), lr=0.1, epochs=1)
        from lhecnn.backward import pack_count
        n = cfg.n
        packed = sum(pack_count(w.out_cts * w.in_cts, n) for w in sess.weights)
        packed += sum(pack_count(l.filters * l.channels * l.filter_side**2, n)
                      for l in cfg.conv)
        loss_in = 1 + 1      # logits ciphertext + encrypted labels
        loss_out = 1         # gradient ciphertext
        assert res.tee_delta.cts_in == loss_in + packed
        assert res.tee_delta.cts_out == loss_out + packed
        from lhecnn.lhe import serialized_size
        per_ct = serialized_size(32)
        assert res.tee_delta.bytes_in == (loss_in + packed) * per_ct
        assert res.tee_delta.bytes_out == (loss_out + packed) * per_ct

    def test_refinability_unbounded_at_preset_budget(self):
        # the level budget must never run out across many rounds
        p = preset("refining-2-2")
        cfg = dataclasses.replace(p.model, n=16)
        params = LheParams(1024, 10)  # scaled-down slots, same level budget
        sess = make_session(cfg, params, exact=False)
        rng = np.random.default_rng(6)
        images = rng.normal(size=(16, 1, 28, 28)) * 0.3
        labels = rng.integers(0, 10, size=16)
        for _ in range(4):
            sess.refine(images, labels, lr=0.05, epochs=1)
        logits, _ = sess.infer(images)  # still serviceable

    def test_an_exact_gradient_round_at_16_levels_is_costed_whole(self):
        # Exact-gradient refining-2-2 fits only at L=16, where a steady round
        # runs 5020 ops at levels 12-15, above the measured table.  The
        # session's report continues the table to its top level, so nothing
        # is left out; the level-11 table costs only a lower bound, and says
        # so.
        p = preset("refining-2-2")
        params = dataclasses.replace(p.lhe, max_level=16)
        sess = make_session(p.model, params, seed=3, exact=True)
        first = p.model.conv[0]
        rng = np.random.default_rng(3)
        for _ in range(2):  # the second round is steady
            images = rng.normal(size=(p.model.n, first.channels, first.input_side,
                                      first.input_side)) * 0.2
            labels = rng.integers(0, p.model.fc[-1].outputs, size=p.model.n)
            report = sess.refine(images, labels, lr=0.05).report
        assert report.gaps == [] and max(report.per_level) == 15
        assert report.est_latency_us == pytest.approx(304_540_316)
        assert "estimated latency: 304.540 s\n" in report.to_text()
        measured = build_report(sess.meter, CostTable.default(), p.model.n,
                                counts=report._raw)
        assert sum(count for _, _, count in measured.gaps) == 5020
        assert "estimated latency: 88.677 s (lower bound: 5020 ops uncosted)" in (
            measured.to_text())

    def test_level_exhaustion_diagnostic_names_op_scope_level(self):
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 6), seed=7)  # too few levels
        rng = np.random.default_rng(7)
        with pytest.raises(LevelExhausted) as err:
            sess.refine(rng.normal(size=(4, 1, 4, 4)),
                        rng.integers(0, 3, size=4), lr=0.1, epochs=1)
        assert err.value.op in ("mul", "cmul")
        assert err.value.scope  # stage label present
        assert "level" in str(err.value)


    def test_a_round_that_runs_out_of_levels_changes_no_parameter(self):
        # Exact activation gradients need 16 levels on refining-2-2: at the
        # preset's 10 the round fails in bwd.CL2, after both fc layers had
        # been stepped.
        p = preset("refining-2-2")
        sess = make_session(p.model, p.lhe, seed=3, exact=True)
        before = sess.decrypted_model()
        cells = [dict(packed.cells) for packed in sess.filters + sess.weights]
        rng = np.random.default_rng(3)
        with pytest.raises(LevelExhausted) as err:
            sess.refine(rng.normal(size=(p.model.n, 1, 28, 28)) * 0.2,
                        rng.integers(0, 10, size=p.model.n), lr=0.05)
        assert err.value.scope == "bwd.CL2"
        after = sess.decrypted_model()
        for a, b in zip(after.filters + after.weights, before.filters + before.weights):
            assert a.tobytes() == b.tobytes()
        for packed, kept in zip(sess.filters + sess.weights, cells):
            assert packed.cells.keys() == kept.keys()
            assert all(packed.cells[k] is kept[k] for k in kept)

    def test_a_round_that_fails_in_bwd_cl1_at_constant_slope_changes_no_parameter(
            self, monkeypatch):
        # bwd.CL1 is where a constant-slope round lets its cached inputs and
        # gradients die as the packs take them.  A re-encryption that fails
        # there, after both fc layers were stepped, leaves every parameter
        # cell as it was, and the next round is the one a fresh session makes.
        cfg, params = small_cfg(), LheParams(32, 16)
        sess = make_session(cfg, params, seed=5, exact=False)
        cells = [dict(packed.cells) for packed in sess.filters + sess.weights]
        rng = np.random.default_rng(5)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        reencrypt, scopes = sess.tee.reencrypt_batch, []

        def failing(party, cts):
            scopes.append(sess.meter.current_scope)
            if scopes[-1] == "bwd.CL1":
                raise ConnectionError("TEE unreachable")
            return reencrypt(party, cts)

        monkeypatch.setattr(sess.tee, "reencrypt_batch", failing)
        with pytest.raises(ConnectionError):
            sess.refine(images, labels, lr=0.1)
        assert scopes == ["bwd.FL2", "bwd.FL1", "bwd.CL1"]
        for packed, kept in zip(sess.filters + sess.weights, cells):
            assert packed.cells.keys() == kept.keys()
            assert all(packed.cells[k] is kept[k] for k in kept)

        monkeypatch.undo()
        fresh = make_session(cfg, params, seed=5, exact=False)
        for s in (sess, fresh):
            s.refine(images, labels, lr=0.1)
        assert stored_cells(sess) == stored_cells(fresh)

    @pytest.mark.parametrize("spoil, match", [
        (lambda fresh: fresh[:-1], "returned 1 ciphertexts for 2 packs"),
        (lambda fresh: fresh + fresh[:1], "returned 3 ciphertexts for 2 packs"),
        (lambda fresh: fresh[:1] + [Ciphertext(fresh[1].slots, 0, fresh[1].key_id)],
         "pack 1 of 2 has .*level 0"),
        (lambda fresh: fresh[:1] + [Ciphertext(fresh[1].slots, fresh[1].level, "other")],
         "pack 1 of 2 has key 'other'"),
        (lambda fresh: fresh[:1] + [Ciphertext(np.tile(fresh[1].slots, 2), fresh[1].level,
                                               fresh[1].key_id)],
         "pack 1 of 2 has .*64 slots"),
    ], ids=["short", "long", "level-0", "other-key", "other-slot-count"])
    def test_a_reencryption_reply_the_spread_cannot_take_changes_no_parameter(
            self, monkeypatch, spoil, match):
        # bwd.FL1's reply for its two packs, after bwd.FL2's pack was
        # refreshed, is one ciphertext short or one long, or its second
        # ciphertext is at level 0 (a socket reply may hold any level up to
        # the top), under another key or with other slots.  Zipped with the
        # packs, a short reply would drop updates and a long one would go
        # unread; the others the spread would refuse only once earlier packs
        # were in the cells.  The stage refuses each, naming the counts or
        # the pack, and no parameter cell changes.
        cfg, params = small_cfg(), LheParams(32, 16)
        sess = make_session(cfg, params, seed=5, exact=False)
        cells = [dict(packed.cells) for packed in sess.filters + sess.weights]
        rng = np.random.default_rng(5)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        reencrypt, sent = sess.tee.reencrypt_batch, []

        def spoiled(party, cts):
            fresh = reencrypt(party, cts)
            if sess.meter.current_scope != "bwd.FL1":
                return fresh
            sent.append(len(cts))
            return spoil(fresh)

        monkeypatch.setattr(sess.tee, "reencrypt_batch", spoiled)
        with pytest.raises(ValueError, match=match):
            sess.refine(images, labels, lr=0.1)
        assert sent == [2]
        for packed, kept in zip(sess.filters + sess.weights, cells):
            assert packed.cells.keys() == kept.keys()
            assert all(packed.cells[k] is kept[k] for k in kept)

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_a_commit_interrupted_at_its_second_spread_applies_the_round_whole(
            self, monkeypatch, when):
        # The commit spreads one gradient a call: bwd.FL2's first, then the
        # rest in stage order.  A KeyboardInterrupt at the second spread,
        # before it runs or once its cell is made, still propagates, but only
        # after that gradient is spread again and every later one applied:
        # the cells are a clean round's, and so is the next round.  Only the
        # spread the interrupt stopped is metered twice: an interrupt before
        # it meters nothing, and one after it meters that one gradient's ops
        # again (at n = 4, a cmul, two chain rotations and adds, and the add
        # into its cell).
        cfg, params = small_cfg(), LheParams(32, 16)
        rng = np.random.default_rng(5)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        sess, clean = (make_session(cfg, params, seed=5, exact=False) for _ in range(2))
        spread, scopes = backward.signed_rotate_spread, []

        def watched(*args):
            scopes.append(clean.meter.current_scope)
            return spread(*args)

        monkeypatch.setattr(backward, "signed_rotate_spread", watched)
        mark = clean.meter.checkpoint()
        clean.refine(images, labels, lr=0.1)
        clean_counts, clean_scopes, scopes = clean.meter.since(mark), scopes, []
        assert clean_scopes[:2] == ["bwd.FL2"] * 2 and len(clean_scopes) == sum(
            len(packed.cells) for packed in clean.filters + clean.weights)
        assert [clean.meter.totals(clean_counts)[k] for k in ("add", "rot", "cmul")] == [
            182, 128, 46]

        def interrupted(*args):
            scopes.append(sess.meter.current_scope)
            if len(scopes) == 2 and when == "before":
                raise KeyboardInterrupt
            out = spread(*args)
            if len(scopes) == 2:
                raise KeyboardInterrupt
            return out

        monkeypatch.setattr(backward, "signed_rotate_spread", interrupted)
        mark = sess.meter.checkpoint()
        with pytest.raises(KeyboardInterrupt):
            sess.refine(images, labels, lr=0.1)
        counts = sess.meter.since(mark)
        assert scopes == clean_scopes[:2] + clean_scopes[1:]
        assert stored_cells(sess) == stored_cells(clean)
        extra = counts - clean_counts
        assert not clean_counts - counts
        if when == "before":
            assert not extra
        else:
            assert {scope for scope, _, _ in extra} == {"bwd.FL2"}
            assert [sess.meter.totals(extra)[k] for k in ("add", "rot", "cmul")] == [3, 2, 1]

        monkeypatch.undo()
        for s in (sess, clean):
            s.refine(images, labels, lr=0.1)
        assert stored_cells(sess) == stored_cells(clean)

    @pytest.mark.parametrize("labels, match", [
        ([0, 1, 2, 0, 1, 3, 0, 1], r"integers in \[0, 3\)"),
        ([0, 1, 2, 0, 1, 2, 0], "7 labels for 8 images"),
        ([0, 1, 2, 0, 1, 2.5, 0, 1], r"integers in \[0, 3\)"),
    ], ids=["out-of-range-in-round-2", "one-short", "fractional"])
    def test_bad_labels_are_rejected_before_anything_is_encrypted(self, labels, match):
        sess = make_session(small_cfg(), LheParams(32, 16), seed=17)
        before = model_bytes(sess)
        mark = sess.meter.checkpoint()
        images = np.random.default_rng(17).normal(size=(8, 1, 4, 4))
        with pytest.raises(ValueError, match=match):
            sess.refine(images, np.array(labels), lr=0.5)
        assert sess.meter.since(mark) == Counter()
        assert model_bytes(sess) == before


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        for name, cfg, params in (("small", small_cfg(), LheParams(32, 12)),
                                  ("three-fc", three_fc_cfg(), LheParams(16, 24))):
            sess = make_session(cfg, params, seed=8)
            rng = np.random.default_rng(8)
            images = rng.normal(size=(4, 1, 4, 4))
            la, _ = sess.infer(images)
            sess.save(tmp_path / name)

            backend = SimulatorBackend(OpMeter())
            tee = TeeService(backend, params, seed=8)  # same key seed
            loaded = RefineSession.load(tee, tmp_path / name)
            assert model_bytes(loaded) == model_bytes(sess)
            lb, _ = loaded.infer(images)
            assert np.array_equal(sess.reveal_outputs(la), loaded.reveal_outputs(lb))

    def test_save_load_keeps_filter_layouts(self, tmp_path):
        cfg, params = padded_cfg(3), LheParams(256, 12)
        sess = make_session(cfg, params, seed=7, r_mode=2)
        sess.save(tmp_path / "model")
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=7)
        loaded = RefineSession.load(tee, tmp_path / "model")
        assert ([(f.layout, f.group_size) for f in loaded.filters]
                == [(f.layout, f.group_size) for f in sess.filters])

    @pytest.mark.parametrize("edit, stored", [
        (lambda cells, size: cells[:-size], -1),
        (lambda cells, size: cells + cells[:size], 1),
        (lambda cells, size: cells[:-1], -1 / serialized_size(32)),
    ], ids=["missing", "extra", "truncated"])
    def test_load_rejects_incomplete_cell_set(self, tmp_path, monkeypatch, edit, stored):
        cfg, params = small_cfg(), LheParams(32, 12)
        sess = make_session(cfg, params, seed=14)
        sess.save(tmp_path / "model")
        count = sum(len(packed.cells) for packed in sess.filters + sess.weights)
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        size = serialized_size(32)
        path.write_bytes(edit(path.read_bytes(), size))

        def parse(*args):
            raise AssertionError("a cell was read")
        monkeypatch.setattr(os, "pread", parse)
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match=f"holds {count + stored:g} cells of {size} "
                                             f"bytes, the model has {count}"):
            RefineSession.load(tee, tmp_path / "model")

    def test_load_reads_no_slot(self, tmp_path):
        # A load reads only the headers: the cells file's mapping has no page
        # resident until a stage reads the slots.  Then the pages that hold
        # each cell's first slot are, and no page of a zero tail: the save
        # left the tails as holes, which no read fault maps around a page
        # it reads.
        smaps = Path("/proc/self/smaps")
        if not smaps.exists():
            pytest.skip("no /proc/self/smaps")
        cfg, params = small_cfg(), LheParams(4096, 12)
        saved = make_session(cfg, params, seed=17)
        saved.save(tmp_path / "model")
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=17)
        loaded = RefineSession.load(tee, tmp_path / "model")
        cells = [ct for packed in loaded.filters + loaded.weights
                 for ct in packed.cells.values()]
        assert mapping_resident_kb(cells[0].slots) == 0
        loaded.infer(np.random.default_rng(17).normal(size=(4, 1, 4, 4)))
        least, most = written_pages_kb(saved_cells(saved))
        assert 0 < least <= mapping_resident_kb(cells[0].slots) <= most
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        assert most < path.stat().st_size // 1024 // 4

    def test_a_load_gives_each_cell_its_saved_bound(self, tmp_path, monkeypatch):
        # each loaded cell carries the bound its slots give, read from the
        # manifest, not measured; a noisy session's cells have no zero tail
        def measure(slots):
            raise AssertionError("a bound was measured")
        for sigma in (0.0, 1e-6):
            params, root = LheParams(256, 24, sigma), tmp_path / f"model-{sigma}"
            make_session(three_fc_cfg(), params, seed=20).save(root)
            bounds = next(line for line in (root / "session.manifest").read_text().splitlines()
                          if line.startswith("bounds = "))
            bounds = [int(b) for b in bounds.removeprefix("bounds = ").split(",")]
            tee = TeeService(SimulatorBackend(OpMeter()), params, seed=20)
            with monkeypatch.context() as patch:
                patch.setattr("lhecnn.lhe._extent", measure)
                loaded = RefineSession.load(tee, root)
            cells = [packed.cells[key] for packed in loaded.filters + loaded.weights
                     for key in packed.cell_keys()]
            assert [ct._bound for ct in cells] == bounds
            assert bounds == [_extent(ct.slots) for ct in cells]
            if sigma:
                assert set(bounds) == {256}
            else:
                assert min(bounds) < 256

    @pytest.mark.parametrize("edit, match", [
        (lambda bounds: bounds[:-1], "holds {short} bounds, the model has {count} cells"),
        (lambda bounds: bounds + ["0"], "holds {long} bounds, the model has {count} cells"),
        (lambda bounds: ["-1"] + bounds[1:], r"holds -1, outside 0\.\.32"),
        (lambda bounds: bounds[:-1] + ["33"], r"holds 33, outside 0\.\.32"),
        (lambda bounds: bounds[:-1] + ["1.5"], "is not a list of integers"),
        (lambda bounds: [" " + bound for bound in bounds], "is not a list of integers"),
        (lambda bounds: ["+" + bounds[0]] + bounds[1:], "is not a list of integers"),
        (lambda bounds: bounds + [""], "is not a list of integers"),
    ], ids=["short", "long", "negative", "past-the-slots", "not-an-integer", "spaces",
            "plus-sign", "trailing-comma"])
    def test_load_rejects_bad_bounds_before_opening_the_cells(self, tmp_path, monkeypatch,
                                                              edit, match):
        cfg, params = small_cfg(), LheParams(32, 12)
        sess = make_session(cfg, params, seed=14)
        sess.save(tmp_path / "model")
        count = sum(len(packed.cells) for packed in sess.filters + sess.weights)
        manifest = tmp_path / "model" / "session.manifest"
        lines = manifest.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("bounds = "))
        bounds = edit(lines[k].removeprefix("bounds = ").split(","))
        lines[k] = "bounds = " + ",".join(bounds)
        manifest.write_text("\n".join(lines) + "\n")
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match="^session manifest bounds " + match.format(
                count=count, short=count - 1, long=count + 1) + "$"):
            RefineSession.load(tee, tmp_path / "model")
        assert opened == []

    def test_inference_reads_no_page_of_a_zero_tail(self, tmp_path):
        # At S=32768 every cell of this model ends in its first page, and the
        # saved bounds keep each product to it: one inference leaves only
        # the pages that hold the written prefixes resident
        smaps = Path("/proc/self/smaps")
        if not smaps.exists():
            pytest.skip("no /proc/self/smaps")
        cfg, params = small_cfg(), LheParams(32768, 12)
        saved = make_session(cfg, params, seed=21)
        saved.save(tmp_path / "model")
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=21)
        loaded = RefineSession.load(tee, tmp_path / "model")
        cells = [ct for packed in loaded.filters + loaded.weights
                 for ct in packed.cells.values()]
        assert max(ct._bound for ct in cells) * 8 < os.sysconf("SC_PAGE_SIZE")
        loaded.infer(np.random.default_rng(21).normal(size=(4, 1, 4, 4)))
        least, most = written_pages_kb(saved_cells(saved))
        assert 0 < least <= mapping_resident_kb(cells[0].slots) <= most

    @pytest.mark.parametrize("sigma", [0.0, 1e-6], ids=["noiseless", "noisy"])
    def test_a_saved_cells_file_reads_back_the_sequence_of_its_cells(self, tmp_path, sigma):
        # the zero tails the save leaves as holes read back as +0.0: the file
        # holds serialize_many's bytes, and a noisy session's, which has no
        # zero tail, has no hole
        params = LheParams(4096, 12, sigma)
        saved = make_session(small_cfg(), params, seed=23)
        saved.save(tmp_path / "model")
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        cts = saved_cells(saved)
        assert path.read_bytes() == serialize_many(cts)
        if sigma and hasattr(os, "SEEK_HOLE"):
            with open(path, "rb") as fh:
                assert os.lseek(fh.fileno(), 0, os.SEEK_HOLE) == path.stat().st_size
        elif not sigma:
            assert min(ct._bound for ct in cts) < 4096

    def test_a_saved_cells_file_allocates_only_its_written_prefixes(self, tmp_path):
        # each cell's header and slots up to its last with a bit set, plus at
        # most one page where each prefix ends or begins part-way, and one
        # for the filesystem's own record of where the file's data lies
        if not stores_holes(tmp_path):
            pytest.skip("this filesystem stores no holes")
        saved = make_session(small_cfg(), LheParams(4096, 12), seed=24)
        saved.save(tmp_path / "model")
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        cts = saved_cells(saved)
        page, stat = os.sysconf("SC_PAGE_SIZE"), path.stat()
        assert stat.st_size == len(cts) * serialized_size(4096)
        written = sum(map(written_bytes, cts))
        assert stat.st_blocks * 512 <= written + (len(cts) + 1) * page < stat.st_size // 4

    @staticmethod
    def first_commit(tmp_path):
        """A loaded session's cells, the cells file, and the bytes it held,
        after one inference and then one round: the round's commit replaces
        every cell.  The caller holds the old cells."""
        cfg, params = small_cfg(), LheParams(4096, 12)
        make_session(cfg, params, seed=22).save(tmp_path / "model")
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        saved = path.read_bytes()  # which caches the holes too: the inference maps them
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=22)
        loaded = RefineSession.load(tee, tmp_path / "model")
        old = [packed.cells[key] for packed in loaded.filters + loaded.weights
               for key in packed.cell_keys()]
        rng = np.random.default_rng(22)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        loaded.infer(images)
        resident = (mapping_resident_kb(old[0].slots)
                    if Path("/proc/self/smaps").exists() else None)
        loaded.refine(images, labels, lr=0.05)
        assert {id(ct) for ct in old}.isdisjoint(
            id(ct) for packed in loaded.filters + loaded.weights
            for ct in packed.cells.values())
        return old, path, saved, resident

    def test_the_first_commit_gives_back_the_old_cells_pages(self, tmp_path):
        # Only the pages a row shares with a neighbour or the first header
        # may stay: one page at each of the len(old) + 1 row boundaries
        if not Path("/proc/self/smaps").exists():
            pytest.skip("no /proc/self/smaps")
        old, path, _, before = self.first_commit(tmp_path)
        page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
        assert before > path.stat().st_size // 1024 // 2
        assert mapping_resident_kb(old[0].slots) <= (len(old) + 1) * page_kb

    def test_an_old_cell_still_held_reads_back_its_saved_bytes(self, tmp_path):
        old, _, saved, _ = self.first_commit(tmp_path)
        size = serialized_size(4096)
        assert [ct.slots.tobytes() for ct in old] == [
            saved[k * size + 16:(k + 1) * size] for k in range(len(old))]

    @pytest.mark.parametrize("missing", [("cells",), ("lhe",), ("lhe", "cells")])
    def test_load_names_every_missing_manifest_key(self, tmp_path, monkeypatch, missing):
        cfg, params = small_cfg(), LheParams(32, 12)
        make_session(cfg, params, seed=14).save(tmp_path / "model")
        manifest = tmp_path / "model" / "session.manifest"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if line.split(" = ")[0] not in missing))
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match=f"^session manifest lacks {', '.join(missing)}$"):
            RefineSession.load(tee, tmp_path / "model")
        assert opened == [] and tee.attested_parties == frozenset()

    @pytest.mark.parametrize("key, value", [
        ("exact_activation_grad", "yes"),
        ("exact_activation_grad", "True"),
        ("exact_activation_grad", ""),
        ("cells", ""),
        ("cells", ".."),
        ("cells", "../model/{cells}"),
        ("cells", "{root}/{cells}"),
    ], ids=["yes", "capitalised", "empty-flag", "empty-name", "parent", "relative-path",
            "absolute-path"])
    def test_load_rejects_a_bad_flag_or_cells_name(self, tmp_path, monkeypatch, key, value):
        # only the literals true and false set the flag, and cells names a
        # file in the session's directory, even one a path would reach: each
        # other value raises ValueError naming its key before the cells open
        cfg, params = small_cfg(), LheParams(32, 12)
        root = tmp_path / "model"
        make_session(cfg, params, seed=14).save(root)
        (cells,) = root.glob("cells-*.lhe")
        manifest = root / "session.manifest"
        lines = [f"{key} = {value.format(root=root, cells=cells.name)}"
                 if line.startswith(f"{key} = ") else line
                 for line in manifest.read_text().splitlines()]
        manifest.write_text("\n".join(lines) + "\n")
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match=f"^session manifest {key} is "):
            RefineSession.load(tee, root)
        assert opened == []

    @pytest.mark.parametrize("key, value, reason", [
        ("lhe", "-1", "not a JSON object"),
        ("model", "-1", "not a JSON object"),
        ("lhe", "[4096, 12]", "not a JSON object"),
        ("lhe", "{}", "it lacks 'slots'"),
        ("model", "{}", "it lacks 'conv'"),
        ("lhe", '{"slots": 32}', "it lacks 'levels'"),
        ("model", '{"conv": [{"channels": 1}], "fc": []}', "it lacks 'input_side'"),
        ("lhe", '{"slots": "32", "levels": 12}', ""),
        ("lhe", '{"slots": 32, "levels": 6.5}', "max_level must be an integer, got 6.5"),
        ("model", SMALL_MODEL.replace('"stride": 2', '"stride": 2.9'),
         "stride must be an integer, got 2.9"),
        ("model", SMALL_MODEL.replace('"stride": 2', '"stride": "2"'),
         "stride must be an integer, got '2'"),
        ("model", SMALL_MODEL.replace('"stride": 2', '"stride": true'),
         "stride must be an integer, got True"),
        ("model", SMALL_MODEL.replace('"outputs": 3', '"outputs": 3.0'),
         "outputs must be an integer, got 3.0"),
    ], ids=["lhe-number", "model-number", "lhe-list", "lhe-empty", "model-empty",
            "lhe-without-levels", "conv-layer-without-side", "lhe-slots-a-string",
            "lhe-levels-a-float", "stride-a-float", "stride-a-string", "stride-a-bool",
            "fc-outputs-a-float"])
    def test_load_rejects_an_lhe_or_model_value_without_its_fields(
            self, tmp_path, monkeypatch, key, value, reason):
        # each raises ValueError naming its key before the session is built
        # or the cells file opened
        root = tmp_path / "model"
        make_session(small_cfg(), LheParams(32, 12), seed=14).save(root)
        manifest = root / "session.manifest"
        manifest.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                    else line for line in manifest.read_text().splitlines(True)))
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), LheParams(32, 12), seed=14)
        with pytest.raises(ValueError) as info:
            RefineSession.load(tee, root)
        assert str(info.value).startswith(f"session manifest {key} is {value!r}: {reason}")
        assert opened == [] and tee.attested_parties == frozenset()

    @pytest.mark.parametrize("key, value, reason", [
        ("n", "x", "not an integer"),
        ("r", "x", "not an integer"),
        ("key_hash", "x", "not an integer"),
        ("key_hash", "", "not an integer"),
        ("n", "1.5", "not an integer"),
        ("n", "0", "not a positive power of two"),
        ("n", "3", "not a positive power of two"),
        ("r", "0", "not a positive power of two"),
        ("r", "-2", "not a positive power of two"),
        ("n", " 4", "not an integer"),
        ("n", "4 ", "not an integer"),
        ("n", "٤", "not an integer"),
        ("r", "+1", "not an integer"),
        ("key_hash", "1_0", "not an integer"),
    ], ids=["n-word", "r-word", "key-hash-word", "key-hash-empty", "n-fraction", "n-zero",
            "n-three", "r-zero", "r-negative", "n-leading-space", "n-trailing-space",
            "n-arabic-indic-digit", "r-plus", "key-hash-underscore"])
    def test_load_rejects_a_bad_integer(self, tmp_path, monkeypatch, key, value, reason):
        # n, r and key_hash are integers in ASCII decimal digits, n and r
        # powers of two: each other value, even one int() reads as the saved
        # value (n = 4, r = 1), raises ValueError naming its key before the
        # session is built or the cells file opened
        root = tmp_path / "model"
        make_session(small_cfg(), LheParams(32, 12), seed=14).save(root)
        manifest = root / "session.manifest"
        manifest.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                    else line for line in manifest.read_text().splitlines(True)))
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), LheParams(32, 12), seed=14)
        with pytest.raises(ValueError) as info:
            RefineSession.load(tee, root)
        assert str(info.value) == f"session manifest {key} is {value!r}: {reason}"
        assert opened == [] and tee.attested_parties == frozenset()

    @pytest.mark.parametrize("key", ["format", "n", "cells", "bounds"])
    def test_load_rejects_a_key_given_twice(self, tmp_path, monkeypatch, key):
        # a repeated line, even one with the same value, raises ValueError
        # naming its key before the session is built or the cells file opened
        root = tmp_path / "model"
        make_session(small_cfg(), LheParams(32, 12), seed=14).save(root)
        manifest = root / "session.manifest"
        text = manifest.read_text()
        manifest.write_text(text + next(line for line in text.splitlines(True)
                                        if line.startswith(f"{key} = ")))
        opened = []
        monkeypatch.setattr("lhecnn.lhe.open", lambda *args: opened.append(args),
                            raising=False)
        tee = TeeService(SimulatorBackend(OpMeter()), LheParams(32, 12), seed=14)
        with pytest.raises(ValueError, match=f"^session manifest holds {key} twice$"):
            RefineSession.load(tee, root)
        assert opened == [] and tee.attested_parties == frozenset()

    def test_load_rejects_a_corrupt_cell(self, tmp_path):
        cfg, params = small_cfg(), LheParams(32, 12)
        make_session(cfg, params, seed=14).save(tmp_path / "model")
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        cells = path.read_bytes()
        last = len(cells) - serialized_size(32)
        path.write_bytes(cells[:last] + b"XXXX" + cells[last + 4:])
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match="bad magic"):
            RefineSession.load(tee, tmp_path / "model")

    @pytest.mark.parametrize("old", ["v1", "v2"])
    def test_load_rejects_the_previous_format(self, tmp_path, old):
        cfg, params = small_cfg(), LheParams(32, 12)
        make_session(cfg, params, seed=14).save(tmp_path / "model")
        manifest = tmp_path / "model" / "session.manifest"
        manifest.write_text(manifest.read_text().replace(FORMAT_TAG, f"lhecnn-session-{old}"))
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match=f"unsupported session format 'lhecnn-session-{old}'"):
            RefineSession.load(tee, tmp_path / "model")

    def test_a_save_that_fails_before_its_commit_leaves_the_old_session(
            self, tmp_path, monkeypatch):
        cfg, params = small_cfg(), LheParams(32, 16)
        sess = make_session(cfg, params, seed=16)
        root = tmp_path / "model"
        sess.save(root)
        saved = model_bytes(sess)
        rng = np.random.default_rng(16)
        sess.refine(rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4), lr=0.5)
        refined = model_bytes(sess)
        assert refined != saved

        def crash(src, dst):
            raise OSError("crashed at the commit point")
        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="commit point"):
            sess.save(root)
        monkeypatch.undo()
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=16)
        assert model_bytes(RefineSession.load(tee, root)) == saved

        sess.save(root)
        names = sorted(p.name for p in root.iterdir())
        assert len(names) == 2 and names[1] == "session.manifest"
        assert names[0].startswith("cells-") and names[0].endswith(".lhe")
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=16)
        assert model_bytes(RefineSession.load(tee, root)) == refined

    def test_load_accepts_only_one_thread(self, tmp_path):
        cfg, params = small_cfg(), LheParams(32, 12)
        make_session(cfg, params, seed=15).save(tmp_path / "model")
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=15)
        with pytest.raises(ValueError, match="one thread"):
            RefineSession.load(tee, tmp_path / "model", threads=2)
        assert tee.attested_parties == frozenset()   # rejected before attesting
        RefineSession.load(tee, tmp_path / "model", threads=1)

    def test_load_rejects_wrong_key(self, tmp_path):
        cfg = small_cfg()
        params = LheParams(32, 12)
        sess = make_session(cfg, params, seed=9)
        sess.save(tmp_path / "model")
        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, params, seed=10)
        with pytest.raises(ValueError, match="different key"):
            RefineSession.load(tee, tmp_path / "model")

    def test_load_rejects_mismatched_layout_tags(self, tmp_path):
        cfg = small_cfg()
        params = LheParams(32, 12)
        sess = make_session(cfg, params, seed=11)
        sess.save(tmp_path / "model")
        manifest = tmp_path / "model" / "session.manifest"
        text = manifest.read_text().replace("layouts = conv-basic",
                                            "layouts = conv-cross-filter")
        manifest.write_text(text)
        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, params, seed=11)
        with pytest.raises(ValueError, match="layout"):
            RefineSession.load(tee, tmp_path / "model")

    def test_load_rejects_mismatched_weight_kinds(self, tmp_path):
        cfg = small_cfg()
        params = LheParams(32, 12)
        sess = make_session(cfg, params, seed=12)
        sess.save(tmp_path / "model")
        manifest = tmp_path / "model" / "session.manifest"
        text = manifest.read_text().replace("weight_kinds = type1,type2",
                                            "weight_kinds = type2,type1")
        manifest.write_text(text)
        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, params, seed=12)
        with pytest.raises(ValueError, match="kind"):
            RefineSession.load(tee, tmp_path / "model")

    def test_refine_after_reload_continues(self, tmp_path):
        cfg = small_cfg()
        params = LheParams(32, 16)
        sess = make_session(cfg, params, seed=13)
        rng = np.random.default_rng(13)
        images = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 3, size=4)
        sess.refine(images, labels, lr=0.2, epochs=1)
        sess.save(tmp_path / "model")
        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, params, seed=13)
        loaded = RefineSession.load(tee, tmp_path / "model")
        loaded.refine(images, labels, lr=0.2, epochs=1)

    def test_a_loaded_session_outlives_the_unlink_of_its_cells_file(self, tmp_path):
        # A save into the directory replaces the cells file the loaded session
        # maps; the session keeps reading the unlinked file's pages.
        cfg, params = small_cfg(), LheParams(32, 16)
        root = tmp_path / "model"
        make_session(cfg, params, seed=17).save(root)
        (mapped,) = root.glob("cells-*.lhe")
        loaded = RefineSession.load(TeeService(SimulatorBackend(OpMeter()), params, seed=17),
                                    root)
        loaded.save(root)
        assert not mapped.exists()
        fresh = make_session(cfg, params, seed=17)
        rng = np.random.default_rng(17)
        images, labels = rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4)
        outputs = [sess.reveal_outputs(sess.infer(images)[0]).tobytes()
                   for sess in (loaded, fresh)]
        assert outputs[0] == outputs[1]
        for sess in (loaded, fresh):
            sess.refine(images, labels, lr=0.3)
        assert model_bytes(loaded) == model_bytes(fresh)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="reads the process's mappings and fds from /proc")
    def test_the_mapping_goes_with_the_last_cell_that_uses_it(self, tmp_path):
        cfg, params = small_cfg(), LheParams(32, 16)
        root = tmp_path / "model"
        make_session(cfg, params, seed=18).save(root)
        (path,) = root.glob("cells-*.lhe")

        def mapped():
            with open("/proc/self/maps", encoding="utf-8") as fh:
                return str(path) in fh.read()

        fds = len(os.listdir("/proc/self/fd"))
        loaded = RefineSession.load(TeeService(SimulatorBackend(OpMeter()), params, seed=18),
                                    root)
        assert mapped() and len(os.listdir("/proc/self/fd")) == fds + 1
        rng = np.random.default_rng(18)
        # a round replaces every parameter cell
        loaded.refine(rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4), lr=0.3)
        assert not mapped() and len(os.listdir("/proc/self/fd")) == fds
        loaded.infer(rng.normal(size=(4, 1, 4, 4)))   # the session lives on

    def test_a_load_copies_no_cell(self, tmp_path):
        p = preset("refining-2-2")
        make_session(p.model, p.lhe, seed=19).save(tmp_path / "model")
        (path,) = (tmp_path / "model").glob("cells-*.lhe")
        tee = TeeService(SimulatorBackend(OpMeter()), p.lhe, seed=19)
        tracemalloc.start()
        try:
            loaded = RefineSession.load(tee, tmp_path / "model")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 16
        assert len(loaded.weights[0].cells) == 32 * 4


class TestLayoutPlanning:
    def test_r1_all_basic(self):
        p = preset("refining-2-2")
        sess = make_session(p.model, p.lhe, r_mode="auto")
        assert sess.r == 1
        assert sess.layouts == ["conv-basic", "conv-basic"]

    def test_explicit_r_validated(self):
        cfg = small_cfg()
        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, LheParams(32, 12), seed=0)
        with pytest.raises(ValueError):
            RefineSession(tee, cfg, LheParams(32, 12), r_mode=3)
        with pytest.raises(ValueError):
            RefineSession(tee, cfg, LheParams(32, 12), r_mode=64)

    @pytest.mark.parametrize("r_mode", [1.9, 1.0, True, False, "1", "Auto", None])
    def test_r_mode_takes_only_auto_or_an_integer(self, r_mode):
        # a float or a bool is not truncated to an r, nor a string read as one
        cfg = small_cfg()
        geo = combined_geometry(cfg, LheParams(32, 12))
        with pytest.raises(ValueError, match=f"^r_mode must be 'auto' or an integer, "
                                             f"got {re.escape(repr(r_mode))}$"):
            plan_layouts(cfg, geo, r_mode)

    @pytest.mark.parametrize("r_mode", [1, np.int64(1), np.uint8(1)])
    def test_r_mode_takes_a_python_or_numpy_integer(self, r_mode):
        cfg = small_cfg()
        geo = combined_geometry(cfg, LheParams(32, 12))
        assert plan_layouts(cfg, geo, r_mode) == (1, ["conv-basic"] * cfg.c)
