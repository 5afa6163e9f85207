import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer, preset
from lhecnn.lhe import LevelExhausted, LheParams, SimulatorBackend, serialized_size
from lhecnn.metering import OpMeter
from lhecnn.oracle import init_params, plain_backward_step, plain_forward
from lhecnn.refine import RefineSession
from lhecnn.tee import BoundaryStats, TeeService


def make_session(cfg, params, seed=0, exact=True, r_mode=1):
    backend = SimulatorBackend(OpMeter())
    tee = TeeService(backend, params, seed=seed)
    sess = RefineSession(tee, cfg, params, r_mode=r_mode,
                         exact_activation_grad=exact)
    sess.load_base_model(init_params(cfg, seed))
    return sess


def model_bytes(sess):
    model = sess.decrypted_model()
    return [a.tobytes() for a in model.filters + model.weights]


def small_cfg():
    return CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 4), FcLayer(4, 3)), 4)


def padded_cfg(channels):
    """Two conv layers of 3 filters each: with r = 2 the last filter or channel
    group is half padding."""
    return CnnConfig((ConvLayer(channels, 6, 3, 2, 2), ConvLayer(3, 3, 3, 2, 1)),
                     (FcLayer(12, 5), FcLayer(5, 3)), 4)


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
    ], ids=["basic", "cross-filter-then-cross-channel", "cross-channel-then-basic"])
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


class TestRefine:
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
        cfg = small_cfg()
        sess = make_session(cfg, LheParams(32, 16), seed=3)
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
        cfg = small_cfg()
        params = LheParams(32, 12)
        sess = make_session(cfg, params, seed=8)
        rng = np.random.default_rng(8)
        images = rng.normal(size=(4, 1, 4, 4))
        la, _ = sess.infer(images)
        sess.save(tmp_path / "model")

        backend = SimulatorBackend(OpMeter())
        tee = TeeService(backend, params, seed=8)  # same key seed
        loaded = RefineSession.load(tee, tmp_path / "model")
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
            raise AssertionError("a cell was parsed")
        monkeypatch.setattr("lhecnn.refine.deserialize_many", parse)
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match=f"holds {count + stored:g} cells of {size} "
                                             f"bytes, the model has {count}"):
            RefineSession.load(tee, tmp_path / "model")

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

    def test_load_rejects_the_previous_format(self, tmp_path):
        cfg, params = small_cfg(), LheParams(32, 12)
        make_session(cfg, params, seed=14).save(tmp_path / "model")
        manifest = tmp_path / "model" / "session.manifest"
        manifest.write_text(manifest.read_text().replace("lhecnn-session-v2",
                                                         "lhecnn-session-v1"))
        tee = TeeService(SimulatorBackend(OpMeter()), params, seed=14)
        with pytest.raises(ValueError, match="unsupported session format 'lhecnn-session-v1'"):
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
