"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lhecnn.backward import pack_count
from lhecnn.geometry import (
    CnnConfig,
    ConvLayer,
    FcLayer,
    combined_geometry,
    packing_factor,
    preset,
)
from lhecnn.lhe import Ciphertext, LevelExhausted, LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.oracle import (
    init_params,
    plain_backward_step,
    plain_forward,
    predict,
    softmax_cross_entropy,
)
from lhecnn.packing import compute_rotation_plan
from lhecnn.refine import RefineSession
from lhecnn.tee import TeeService

from conftest import encode_weights, random_small_config


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def new_session(cfg, params, seed=0, exact=True, r_mode=1, load=True):
    backend = SimulatorBackend(OpMeter())
    tee = TeeService(backend, params, seed=seed)
    sess = RefineSession(tee, cfg, params, r_mode=r_mode,
                         exact_activation_grad=exact)
    if load:
        sess.load_base_model(init_params(cfg, seed))
    return sess


def test_criterion_1_worked_example_golden():
    """n=2, S=8 dense-layer chain reproduces the documented vectors exactly."""
    start = time.monotonic()
    backend = SimulatorBackend(OpMeter())
    ctx = backend.keygen(LheParams(8, 6), seed=1)
    inp = backend.encrypt(ctx, [20, 40, 28, 56, 84, 168, 92, 184])
    weights = encode_weights(backend, ctx, np.array([[1.0, 0, 0, 1]]),
                             "type1", n=2, in_cts=1, pi_per_ct=4)

    step0 = backend.mul(inp, weights.cells[(0, 0)])
    assert backend.decrypt(ctx, step0).tolist() == [20, 40, 0, 0, 0, 0, 92, 184]
    step1 = backend.add(step0, backend.rot(step0, 2))
    assert backend.decrypt(ctx, step1).tolist() == [20, 40, 0, 0, 92, 184, 112, 224]
    step2 = backend.add(step1, backend.rot(step1, 4))
    assert backend.decrypt(ctx, step2).tolist() == [112, 224, 112, 224, 112, 224, 112, 224]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"worked-example chain exact in {elapsed * 1e3:.0f} ms")


def test_criterion_2_cnn_1_2_operation_counts():
    """Encryption counts 49/196/256/64, stage tuples, totals, amortized."""
    start = time.monotonic()
    p = preset("cnn-1-2")
    sess = new_session(p.model, p.lhe, seed=3)
    meter = sess.meter
    enc = {s: d["encrypt"] for s, d in meter.scope_totals().items()}
    assert enc["enc.filters"] == 196
    assert enc["enc.weights.FL1"] == 256
    assert enc["enc.weights.FL2"] == 64

    rng = np.random.default_rng(0)
    _, rep = sess.infer(rng.normal(size=(64, 1, 28, 28)))
    assert meter.scope_totals()["enc.inputs"]["encrypt"] == 49

    assert meter.scope_tuple("CL1") == (192, 196, 0, 0)
    assert meter.scope_tuple("Square1") == (0, 4, 0, 0)
    assert meter.scope_tuple("FL1") == (576, 256, 384, 0)
    assert meter.scope_tuple("Square2") == (0, 64, 0, 0)
    assert meter.scope_tuple("FL2") == (63, 64, 0, 0)

    assert rep.total_tuple() == (831, 584, 384, 0)
    amortized = rep.amortized_tuple()
    assert amortized[0] == Fraction(831, 64)   # prints as 13 when rounded
    assert round(float(amortized[0])) == 13
    assert amortized[1] == Fraction(73, 8)     # exactly 9.125
    assert amortized[2] == Fraction(6)
    assert amortized[3] == 0

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"CNN 1-2 counts exact (totals 831/584/384, amortized "
              f"831/64, 9.125, 6) in {elapsed:.1f} s")


def test_criterion_3_cnn_1_2_per_level_distribution():
    """Per-level operation distribution matches the reference profile exactly."""
    p = preset("cnn-1-2")
    sess = new_session(p.model, p.lhe, seed=3)
    rng = np.random.default_rng(0)
    _, rep = sess.infer(rng.normal(size=(64, 1, 28, 28)))

    def level_tuple(level):
        d = rep.per_level.get(level, {})
        return tuple(d.get(k, 0) for k in ("add", "mul", "rot", "cmul"))

    assert level_tuple(5) == (192, 196, 0, 0)
    assert level_tuple(4) == (0, 4, 0, 0)
    assert level_tuple(3) == (576, 256, 384, 0)
    assert level_tuple(2) == (0, 64, 0, 0)
    assert level_tuple(1) == (63, 64, 0, 0)
    assert level_tuple(0) == (0, 0, 0, 0)
    report(3, "per-level distribution exact (5:192/196, 4:4, 3:576/256/384, "
              "2:64, 1:63/64)")


def test_criterion_4_refining_model_forward_counts():
    """Filter products 144/64, dense products 128 (with 192 rotations) and 32."""
    p = preset("refining-2-2")
    sess = new_session(p.model, p.lhe, seed=5)
    rng = np.random.default_rng(1)
    sess.infer(rng.normal(size=(128, 1, 28, 28)) * 0.2)
    meter = sess.meter
    assert meter.scope_tuple("CL1")[1] == 144
    assert meter.scope_tuple("CL2")[1] == 64
    fl1 = meter.scope_tuple("FL1")
    assert fl1[1] == 128 and fl1[2] == 192
    fl2 = meter.scope_tuple("FL2")
    assert fl2[1] == 32 and fl2[2] == 0
    report(4, "refining forward counts exact (144, 64, 128+192rot, 32)")


def test_criterion_5_geometry_and_packing_factor():
    """Combined kernel sides (6, 2), full-slot grid, and the (n, r) table."""
    p = preset("refining-2-2")
    geo = combined_geometry(p.model, p.lhe)
    assert geo.kernel_sides == (6, 2)
    assert geo.grid_side == 8
    assert p.model.n * geo.grid_side**2 == 8192 == p.lhe.slot_count

    pairs = [(16, 32), (32, 16), (64, 8), (128, 4), (256, 2), (512, 1)]
    for n, r in pairs:
        assert packing_factor(8192, n, 4) == r
    report(5, "geometry (6,2)/grid 8/full slots and packing-factor table exact")


def test_criterion_6_oracle_equivalence_random_configs():
    """>= 50 random configs: forward within 1e-9 over all three conv layouts,
    one full refining round within 1e-8 on every parameter."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    layout_seen = {"conv-basic": 0, "conv-cross-channel": 0, "conv-cross-filter": 0}
    configs = 0
    while configs < 50:
        cfg, params = random_small_config(rng)
        seed = int(rng.integers(1 << 30))
        images = rng.normal(size=(cfg.n, cfg.conv[0].channels,
                                  cfg.conv[0].input_side, cfg.conv[0].input_side))
        labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)

        # forward equivalence, basic layout plus cross layouts when r > 1
        modes = [1]
        if combined_geometry(cfg, params).packing_factor > 1:
            modes.append("auto")
        plain = init_params(cfg, seed)
        want = plain_forward(cfg, plain, images).logits
        for mode in modes:
            sess = new_session(cfg, params, seed=seed, r_mode=mode, load=False)
            sess.load_base_model(plain)
            for layout in sess.layouts:
                layout_seen[layout] += 1
            logits, _ = sess.infer(images)
            got = sess.reveal_outputs(logits)
            err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            assert err < 1e-9, (cfg, mode, err)

        # full refining round equivalence (basic layout)
        sess = new_session(cfg, params, seed=seed, r_mode=1, load=False)
        sess.load_base_model(plain)
        lr = 0.3
        res = sess.refine(images, labels, lr=lr, epochs=1)
        want_params, want_loss = plain_backward_step(cfg, plain, images, labels, lr)
        assert abs(res.losses[0] - want_loss) < 1e-9
        got_params = sess.decrypted_model()
        for a, b in zip(got_params.filters + got_params.weights,
                        want_params.filters + want_params.weights):
            scale = np.maximum(1.0, np.abs(b))
            assert (np.abs(a - b) / scale).max() < 1e-8, cfg
        configs += 1

    assert all(count >= 3 for count in layout_seen.values()), layout_seen
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(6, f"{configs} random configs forward<=1e-9 and full round<=1e-8 "
              f"(layouts {layout_seen}) in {elapsed:.1f} s")


def test_criterion_7_rotation_plan_properties():
    """Aggregation and spreading hold for all p < n, n in {2,4,8,16},
    100 random vectors each."""
    rng = np.random.default_rng(7)
    checked = 0
    for n in (2, 4, 8, 16):
        S = 8 * n
        for p in range(n):
            plan = compute_rotation_plan(p, n)
            for _ in range(100):
                v = rng.normal(size=S)
                agg = v.copy()
                for k, d in enumerate(plan.directions):
                    agg = agg + np.roll(agg, -d * (1 << k))
                assert np.allclose(agg[p::n], v.reshape(-1, n).sum(axis=1),
                                   rtol=0, atol=1e-12)
                g = rng.normal(size=S // n)
                sparse = np.zeros(S)
                sparse[p::n] = g
                spread = sparse.copy()
                for k, d in enumerate(plan.directions):
                    spread = spread + np.roll(spread, d * (1 << k))
                assert np.array_equal(spread, np.repeat(g, n))
                checked += 1
    report(7, f"aggregation and spreading exact over {checked} cases")


def _refining_round_inputs(seed):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(128, 1, 28, 28)) * 0.2
    labels = rng.integers(0, 10, size=128)
    return images, labels


def test_criterion_8_level_discipline_at_budget_ten():
    """A refining round at the 10-level budget completes with re-encryption
    only at the specified pipeline points; removing any point exhausts levels.

    The 10-level budget only closes with the constant-slope activation
    gradient (the exact form needs 16 levels for this architecture); the
    oracle-equivalence criterion runs the exact form at a deeper budget.
    """
    p = preset("refining-2-2")
    images, labels = _refining_round_inputs(11)

    # positive control: two rounds, re-encryptions exactly at the 5 points
    sess = new_session(p.model, p.lhe, seed=11, exact=False)
    calls = []
    original = sess.tee.reencrypt_batch
    sess.tee.reencrypt_batch = lambda party, cts: calls.append(len(cts)) or original(party, cts)
    res = sess.refine(images, labels, lr=0.05, epochs=1)
    assert calls == [1, 1, 1, 1]  # FL2, FL1, CL2, CL1 gradient batches
    assert res.tee_delta.reencryptions == 5  # including the loss-head output
    sess.refine(images, labels, lr=0.05, epochs=1)  # budget never runs out

    # negative controls: skip the k-th noise-removal re-encryption
    for skip in range(4):
        sess = new_session(p.model, p.lhe, seed=11, exact=False)
        original = sess.tee.reencrypt_batch
        state = {"i": 0}

        def passthrough(party, cts, _orig=original, _state=state, _skip=skip):
            i = _state["i"]
            _state["i"] += 1
            return cts if i == _skip else _orig(party, cts)

        sess.tee.reencrypt_batch = passthrough
        with pytest.raises(LevelExhausted):
            for _ in range(2):
                sess.refine(images, labels, lr=0.05, epochs=1)
                sess.tee.reencrypt_batch = passthrough  # keep skipping round 2

    # negative control: loss head that does not resume the gradient level
    sess = new_session(p.model, p.lhe, seed=11, exact=False)
    original_head = sess.tee.loss_head

    def flat_head(party, logits, lbls, classes):
        loss, grad = original_head(party, logits, lbls, classes)
        low = logits.level()
        grad.cells = {k: Ciphertext(ct.slots, low, ct.key_id)
                      for k, ct in grad.cells.items()}
        return loss, grad

    sess.tee.loss_head = flat_head
    with pytest.raises(LevelExhausted):
        for _ in range(2):
            sess.refine(images, labels, lr=0.05, epochs=1)
    report(8, "10-level round completes; removing any re-encryption point "
              "(4 gradient batches, loss head) exhausts levels")


def test_criterion_9_tee_accounting_formula():
    """Per round: re-encryptions = loss-head outputs + per-layer packed
    gradient ciphertext counts, exactly."""
    p = preset("refining-2-2")
    sess = new_session(p.model, p.lhe, seed=13, exact=False)
    images, labels = _refining_round_inputs(13)
    res = sess.refine(images, labels, lr=0.05, epochs=1)
    n = p.model.n
    expected = 1  # loss head: ceil(10 * 128 / 8192) output ciphertext
    expected += pack_count(32 * 4, n) + pack_count(1 * 32, n)   # FL1, FL2
    expected += pack_count(4 * 1 * 9, n) + pack_count(4 * 4 * 4, n)  # CL1, CL2
    assert expected == 5
    assert res.tee_delta.reencryptions == expected == sess.expected_reencryptions_per_round()

    rng = np.random.default_rng(99)
    for _ in range(3):
        cfg, params = random_small_config(rng)
        sess = new_session(cfg, params, seed=int(rng.integers(1 << 30)))
        images = rng.normal(size=(cfg.n, cfg.conv[0].channels,
                                  cfg.conv[0].input_side, cfg.conv[0].input_side))
        labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
        res = sess.refine(images, labels, lr=0.1, epochs=1)
        assert res.tee_delta.reencryptions == sess.expected_reencryptions_per_round()
    report(9, "TEE re-encryption accounting matches the closed form exactly")


# -- criterion 10: desk-scale refining trend ---------------------------------

_SIDE, _CLASSES = 8, 4


def _synthetic_set(rng, counts, noise):
    """Quadrant-blob classification with positional jitter."""
    images, labels = [], []
    for cls, count in enumerate(counts):
        for _ in range(count):
            img = rng.normal(0, noise, size=(1, _SIDE, _SIDE))
            qr, qc = divmod(cls, 2)
            dr, dc = rng.integers(0, 2, size=2)
            img[0, qr * 4 + dr:qr * 4 + dr + 3,
                qc * 4 + dc:qc * 4 + dc + 3] += rng.uniform(0.7, 1.0)
            images.append(img)
            labels.append(cls)
    order = rng.permutation(len(images))
    return np.asarray(images)[order], np.asarray(labels)[order]


def _train_base(cfg, rng, images, labels, lr=0.15, epochs=30, restarts=4):
    """Plaintext base-model training with restarts to dodge dead inits."""
    best = None
    for _ in range(restarts):
        model = init_params(cfg, int(rng.integers(1 << 30)))
        loss = np.inf
        for _ in range(epochs):
            order = rng.permutation(len(images))
            for s in range(0, len(images) - cfg.n + 1, cfg.n):
                batch = order[s:s + cfg.n]
                model, _ = plain_backward_step(cfg, model, images[batch],
                                               labels[batch], lr=lr)
            trace = plain_forward(cfg, model, images)
            loss, _ = softmax_cross_entropy(trace.logits, labels)
            if loss < 0.3:
                break
        if best is None or loss < best[0]:
            best = (loss, model)
        if best[0] < 0.3:
            break
    return best[1]


def test_criterion_10_desk_scale_refining_trend():
    """Base model trained on an odd-dominated set; three refining epochs on a
    64-image even-dominated set strictly improve shifted-test accuracy,
    averaged over 5 seeds."""
    start = time.monotonic()
    cfg = CnnConfig((ConvLayer(1, _SIDE, 3, 3, 3),),
                    (FcLayer(12, 8), FcLayer(8, _CLASSES)), 8)
    params = LheParams(32, 12)
    base_accs, refined_accs = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        base_imgs, base_labels = _synthetic_set(rng, [1, 64, 1, 64], noise=0.1)
        base_model = _train_base(cfg, rng, base_imgs, base_labels)

        refine_imgs, refine_labels = _synthetic_set(rng, [24, 8, 24, 8], noise=0.25)
        test_imgs, test_labels = _synthetic_set(rng, [72, 24, 72, 24], noise=0.25)
        base_accs.append((predict(cfg, base_model, test_imgs) == test_labels).mean())

        sess = new_session(cfg, params, seed=seed, load=False)
        sess.load_base_model(base_model)
        sess.refine(refine_imgs, refine_labels, lr=0.05, epochs=3)
        refined = sess.decrypted_model()
        refined_accs.append((predict(cfg, refined, test_imgs) == test_labels).mean())

    mean_base, mean_refined = np.mean(base_accs), np.mean(refined_accs)
    assert mean_refined > mean_base, (base_accs, refined_accs)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(10, f"shifted-test accuracy {mean_base:.3f} -> {mean_refined:.3f} "
               f"over 5 seeds in {elapsed:.1f} s")
