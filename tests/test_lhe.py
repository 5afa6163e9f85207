import copy
import mmap
import os
import struct
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhecnn.lhe import (
    Ciphertext,
    KeyMismatch,
    LevelExhausted,
    LheParams,
    SecrecyViolation,
    SimulatorBackend,
    _buffer,
    _extent,
    _make,
    deserialize,
    deserialize_many,
    serialize,
    serialize_many,
    serialized_size,
)
from lhecnn.metering import PRIMITIVE_KINDS, OpMeter
from lhecnn.packing import compute_rotation_plan

from conftest import (
    FullProductBackend,
    loop_mul_sum,
    loop_rotate_add,
    mapping_resident_kb,
    per_op_pack_sums,
    per_op_unpack_spread,
)


def ctx8(backend, levels=6, sigma=0.0, seed=1):
    return backend.keygen(LheParams(8, levels, sigma), seed=seed)


class TestParams:
    def test_valid(self):
        p = LheParams(8, 6)
        assert p.top_level == 5

    @pytest.mark.parametrize("slots", [0, 1, 3, 6, 100])
    def test_slot_count_must_be_power_of_two(self, slots):
        with pytest.raises(ValueError):
            LheParams(slots, 6)

    def test_level_and_sigma_bounds(self):
        with pytest.raises(ValueError):
            LheParams(8, 0)
        with pytest.raises(ValueError):
            LheParams(8, 6, -0.5)


class TestKeygenEncryptDecrypt:
    def test_keygen_passes_params_through(self, backend):
        ctx = backend.keygen(LheParams(8, 6))
        assert ctx.params.slot_count == 8 and ctx.params.max_level == 6

    def test_keygen_deterministic_given_seed(self, backend):
        a = backend.keygen(LheParams(8, 6), seed=42)
        b = backend.keygen(LheParams(8, 6), seed=42)
        assert a.key_id == b.key_id
        assert a.key_id != backend.keygen(LheParams(8, 6), seed=43).key_id

    def test_presets_roundtrip(self, backend):
        ctx = backend.keygen(LheParams(4096, 6))
        assert ctx.params.slot_count == 4096 and ctx.params.max_level == 6
        ctx = backend.keygen(LheParams(8192, 10))
        assert ctx.params.max_level == 10

    def test_encrypt_starts_at_top_level(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.zeros(8))
        assert ct.level == 5
        assert np.array_equal(backend.decrypt(ctx, ct), np.zeros(8))

    def test_worked_vector_roundtrip(self, backend):
        ctx = ctx8(backend)
        vec = [20, 40, 28, 56, 84, 168, 92, 184]
        assert np.array_equal(backend.decrypt(ctx, backend.encrypt(ctx, vec)), vec)

    def test_roundtrip_exact_for_many_random_vectors(self, backend):
        ctx = ctx8(backend)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.normal(size=8)
            assert np.array_equal(backend.decrypt(ctx, backend.encrypt(ctx, v)), v)

    def test_encrypt_length_mismatch(self, backend):
        with pytest.raises(ValueError):
            backend.encrypt(ctx8(backend), np.zeros(7))

    def test_decrypt_key_mismatch(self, backend):
        a, b = ctx8(backend, seed=1), ctx8(backend, seed=2)
        with pytest.raises(KeyMismatch):
            backend.decrypt(b, backend.encrypt(a, np.zeros(8)))

    def test_decrypt_works_at_level_zero(self, backend):
        # only multiplications consume levels; decryption never needs any
        ctx = ctx8(backend, levels=2)
        ct = backend.mul(backend.encrypt(ctx, np.ones(8)),
                         backend.encrypt(ctx, np.full(8, 3.0)))
        assert ct.level == 0
        assert np.array_equal(backend.decrypt(ctx, ct), np.full(8, 3.0))

    def test_decrypt_requires_secret_context(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx.public(), np.zeros(8))  # encrypting is public
        with pytest.raises(SecrecyViolation):
            backend.decrypt(ctx.public(), ct)


class TestAdd:
    def test_elementwise_sum_with_min_level(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, [1, 2] + [0] * 6)
        b = backend.encrypt(ctx, [3, 4] + [0] * 6)
        # drop levels asymmetrically: 5 and 3
        b = backend.mul(backend.mul(b, backend.encrypt(ctx, np.ones(8))),
                        backend.encrypt(ctx, np.ones(8)))
        out = backend.add(a, b)
        assert out.level == 3
        assert np.array_equal(backend.decrypt(ctx, out)[:2], [4, 6])

    def test_rotate_and_add_matches_worked_example(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, [20, 40, 0, 0, 0, 0, 92, 184])
        out = backend.add(ct, backend.rot(ct, 2))
        assert np.array_equal(backend.decrypt(ctx, out),
                              [20, 40, 0, 0, 92, 184, 112, 224])

    def test_zero_is_identity(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        out = backend.add(a, backend.encrypt(ctx, np.zeros(8)))
        assert np.array_equal(backend.decrypt(ctx, out), np.arange(8.0))

    def test_key_mismatch(self, backend):
        a = backend.encrypt(ctx8(backend, seed=1), np.zeros(8))
        b = backend.encrypt(ctx8(backend, seed=2), np.zeros(8))
        with pytest.raises(KeyMismatch):
            backend.add(a, b)


class TestMul:
    def test_worked_masking_example(self, backend):
        ctx = ctx8(backend)
        data = backend.encrypt(ctx, [20, 40, 28, 56, 84, 168, 92, 184])
        mask = backend.encrypt(ctx, [1, 1, 0, 0, 0, 0, 1, 1])
        out = backend.mul(data, mask)
        assert np.array_equal(backend.decrypt(ctx, out),
                              [20, 40, 0, 0, 0, 0, 92, 184])
        assert out.level == 4

    def test_square_activation(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, [2, 3] + [0] * 6)
        assert np.array_equal(backend.decrypt(ctx, backend.mul(ct, ct))[:2], [4, 9])

    def test_level_zero_raises(self, backend):
        ctx = ctx8(backend, levels=1)
        ct = backend.encrypt(ctx, np.ones(8))
        assert ct.level == 0
        with pytest.raises(LevelExhausted):
            backend.mul(ct, ct)

    def test_exhaustion_error_names_op_and_scope(self, backend, meter):
        ctx = ctx8(backend, levels=1)
        ct = backend.encrypt(ctx, np.ones(8))
        with meter.scope("CL1"):
            with pytest.raises(LevelExhausted) as err:
                backend.mul(ct, ct)
        assert err.value.op == "mul" and err.value.scope == "CL1"
        assert "level" in str(err.value)


class TestCmul:
    def test_all_ones_keeps_slots_drops_level(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        out = backend.cmul(ct, np.ones(8))
        assert out.level == 4
        assert np.array_equal(backend.decrypt(ctx, out), np.arange(8.0))

    def test_masking_selector(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.full(8, 7.0))
        sel = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        assert np.array_equal(backend.decrypt(ctx, backend.cmul(ct, sel)), 7.0 * sel)

    def test_scaled_selector_masks_and_scales(self, backend):
        # one operation applies both the mask and the lr/n gradient scale
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.full(8, 6.0))
        sel = np.array([0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0])
        assert np.array_equal(backend.decrypt(ctx, backend.cmul(ct, sel)),
                              [1.5, 0, 1.5, 0, 1.5, 0, 1.5, 0])

    def test_level_zero_raises(self, backend):
        ctx = ctx8(backend, levels=1)
        with pytest.raises(LevelExhausted):
            backend.cmul(backend.encrypt(ctx, np.ones(8)), np.ones(8))


class TestRot:
    def test_identity_and_inverse(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        assert np.array_equal(backend.decrypt(ctx, backend.rot(ct, 0)), np.arange(8.0))
        assert np.array_equal(
            backend.decrypt(ctx, backend.rot(backend.rot(ct, 3), 5)), np.arange(8.0))

    def test_worked_example_left_two(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, [20, 40, 0, 0, 0, 0, 92, 184])
        assert np.array_equal(backend.decrypt(ctx, backend.rot(ct, 2)),
                              [0, 0, 0, 0, 92, 184, 20, 40])

    def test_negative_is_right_rotation(self, backend):
        ctx = backend.keygen(LheParams(4, 6), seed=1)
        ct = backend.encrypt(ctx, [1, 2, 3, 4])  # (a0, a1, b0, b1)
        assert np.array_equal(backend.decrypt(ctx, backend.rot(ct, -1)), [4, 1, 2, 3])

    def test_level_unchanged(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        assert backend.rot(ct, 5).level == ct.level


class TestReencrypt:
    def test_restores_top_level_same_slots(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        for _ in range(3):
            ct = backend.mul(ct, backend.encrypt(ctx, np.ones(8)))
        assert ct.level == 2
        out = backend.reencrypt(ctx, ct)
        assert out.level == 5
        assert np.array_equal(backend.decrypt(ctx, out), np.arange(8.0))

    def test_idempotent(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        once = backend.reencrypt(ctx, ct)
        twice = backend.reencrypt(ctx, once)
        assert once == twice

    def test_level_zero_ciphertext_becomes_multipliable(self, backend):
        ctx = ctx8(backend, levels=2)
        ct = backend.mul(backend.encrypt(ctx, np.full(8, 2.0)),
                         backend.encrypt(ctx, np.full(8, 2.0)))
        assert ct.level == 0
        with pytest.raises(LevelExhausted):
            backend.mul(ct, ct)
        fresh = backend.reencrypt(ctx, ct)
        out = backend.mul(fresh, fresh)
        assert np.array_equal(backend.decrypt(ctx, out), np.full(8, 16.0))

    def test_requires_secret_context(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.zeros(8))
        with pytest.raises(SecrecyViolation):
            backend.reencrypt(ctx.public(), ct)


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 31), st.integers(0, 31))
    def test_rotation_group(self, a, b):
        backend = SimulatorBackend()
        ctx = backend.keygen(LheParams(32, 4), seed=9)
        v = np.arange(32.0)
        ct = backend.encrypt(ctx, v)
        lhs = backend.rot(backend.rot(ct, a), b)
        rhs = backend.rot(ct, (a + b) % 32)
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_level_algebra_on_random_op_sequences(self, data):
        backend = SimulatorBackend()
        ctx = backend.keygen(LheParams(8, 10), seed=5)
        rng = np.random.default_rng(0)
        pool = [backend.encrypt(ctx, rng.normal(size=8)) for _ in range(3)]
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(["add", "mul", "cmul", "rot", "reenc"]))
            a = pool[data.draw(st.integers(0, len(pool) - 1))]
            b = pool[data.draw(st.integers(0, len(pool) - 1))]
            if op == "add":
                out = backend.add(a, b)
                assert out.level == min(a.level, b.level)
            elif op == "mul":
                if min(a.level, b.level) < 1:
                    with pytest.raises(LevelExhausted):
                        backend.mul(a, b)
                    continue
                out = backend.mul(a, b)
                assert out.level == min(a.level, b.level) - 1
            elif op == "cmul":
                if a.level < 1:
                    continue
                out = backend.cmul(a, np.ones(8))
                assert out.level == a.level - 1
            elif op == "rot":
                out = backend.rot(a, data.draw(st.integers(-8, 8)))
                assert out.level == a.level
            else:
                out = backend.reencrypt(ctx, a)
                assert out.level == 9
            pool.append(out)

    def test_arithmetic_homomorphism_exact(self, backend):
        ctx = ctx8(backend)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x, y = rng.normal(size=8), rng.normal(size=8)
            ex, ey = backend.encrypt(ctx, x), backend.encrypt(ctx, y)
            assert np.array_equal(backend.decrypt(ctx, backend.add(ex, ey)), x + y)
            assert np.array_equal(backend.decrypt(ctx, backend.mul(ex, ey)), x * y)

    def test_operands_unchanged_by_every_primitive(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        b = backend.encrypt(ctx, np.ones(8))
        before_a, before_b = Ciphertext(a.slots.copy(), a.level, a.key_id), \
            Ciphertext(b.slots.copy(), b.level, b.key_id)
        backend.add(a, b)
        backend.mul(a, b)
        backend.cmul(a, np.full(8, 2.0))
        backend.rot(a, 3)
        backend.reencrypt(ctx, a)
        backend.decrypt(ctx, a)
        assert a == before_a and b == before_b

    def test_slots_are_write_protected(self, backend):
        ct = backend.encrypt(ctx8(backend), np.zeros(8))
        with pytest.raises(ValueError):
            ct.slots[0] = 1.0
        rotated = backend.rot(ct, 3)
        with pytest.raises(ValueError):
            rotated.slots[0] = 1.0

    def test_attribute_assignment_raises(self, backend):
        ct = backend.rot(backend.encrypt(ctx8(backend), np.arange(8.0)), 3)
        for name, value in (("slots", np.ones(8)), ("level", 0), ("key_id", "other"),
                            ("pending_rescale", True), ("_shift", 0)):
            with pytest.raises(AttributeError):
                setattr(ct, name, value)
        with pytest.raises(AttributeError):
            del ct.level
        assert ct.level == 5 and np.array_equal(ct.slots, np.roll(np.arange(8.0), -3))


class TestLazyRotation:
    """Rotations share their operand's array; every result must equal the
    ``np.roll`` reference bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_op_chains_match_np_roll_reference(self, data):
        slot_count = 1 << data.draw(st.integers(1, 7), label="log2 S")
        meter = OpMeter()
        backend = SimulatorBackend(meter)
        ctx = backend.keygen(LheParams(slot_count, 8), seed=3)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # (ciphertext, reference slots, level, pending_rescale)
        pool = []
        for _ in range(2):
            v = rng.normal(size=slot_count)
            pool.append((backend.encrypt(ctx, v), v.copy(), 7, False))
        want = Counter()
        shifts = st.one_of(st.sampled_from([0, slot_count, -slot_count, 1, -1]),
                           st.integers(-3 * slot_count, 3 * slot_count))
        for _ in range(data.draw(st.integers(1, 16), label="chain length")):
            op = data.draw(st.sampled_from(["rot", "rot", "add", "mul", "cmul"]))
            a, ra, la, pa = pool[data.draw(st.integers(0, len(pool) - 1))]
            b, rb, lb, pb = pool[data.draw(st.integers(0, len(pool) - 1))]
            if op == "rot":
                m = data.draw(shifts, label="shift")
                out, ref, level, pending = backend.rot(a, m), np.roll(ra, -m), la, pa
                want[("rot", la + pa)] += 1
            elif op == "add":
                out, ref = backend.add(a, b), ra + rb
                level, pending = min(la, lb), pa and pb
                want[("add", min(la + pa, lb + pb))] += 1
            elif op == "mul":
                if min(la, lb) < 1:
                    continue
                out, ref = backend.mul(a, b), ra * rb
                level, pending = min(la, lb) - 1, True
                want[("mul", min(la, lb))] += 1
            else:
                if la < 1:
                    continue
                pt = rng.normal(size=slot_count)
                out, ref, level, pending = backend.cmul(a, pt), ra * pt, la - 1, True
                want[("cmul", la)] += 1
            assert out.slots.tobytes() == ref.tobytes()
            assert (out.level, out.pending_rescale) == (level, pending)
            pool.append((out, ref, level, pending))
        got = Counter({(kind, level): c for (_scope, kind, level), c in meter.checkpoint().items()
                       if kind in PRIMITIVE_KINDS})
        assert got == want

    def test_rotated_ciphertext_through_every_reader(self, backend):
        ctx = ctx8(backend)
        v = np.arange(8.0)
        ct = backend.rot(backend.rot(backend.encrypt(ctx, v), 3), 2)
        want = np.roll(v, -5)
        assert np.array_equal(backend.decrypt(ctx, ct), want)
        assert np.array_equal(backend.decrypt(ctx, backend.reencrypt(ctx, ct)), want)
        assert np.array_equal(backend.decrypt(ctx, backend.cmul(ct, np.full(8, 2.0))),
                              2 * want)
        back = deserialize(serialize(ct), ctx)
        assert back == ct and np.array_equal(back.slots, want)
        assert copy.deepcopy(ct) == ct
        assert ct == backend.encrypt(ctx, want)
        assert ct != backend.encrypt(ctx, v)


def side_by_side(batched, per_op, reference=SimulatorBackend):
    """Run ``batched(backend)`` on a metered :class:`SimulatorBackend` and
    ``per_op(backend)`` on a metered ``reference`` backend, in the same
    scope; returns both results (or the exceptions they raised) and both
    meter deltas."""
    results = []
    for run, kind in ((batched, SimulatorBackend), (per_op, reference)):
        meter = OpMeter()
        backend = kind(meter)
        with meter.scope("S"):
            try:
                out = run(backend)
            except Exception as exc:  # compared between the two paths
                out = exc
        results.append((out, meter.checkpoint()))
    return results


def assert_same_ct(got, want):
    assert got.slots.tobytes() == want.slots.tobytes()
    assert (got.level, got.pending_rescale, got.key_id) == (
        want.level, want.pending_rescale, want.key_id)


class CountingRot(SimulatorBackend):
    """Records the shift of every ``rot`` call."""

    def __init__(self, meter=None):
        super().__init__(meter)
        self.calls = []

    def rot(self, a, m):
        self.calls.append(m)
        return super().rot(a, m)


class TestBatchedPrimitives:
    """``mul_sum`` and ``rotate_add`` against the per-op loops they replace:
    bit-identical slots, the same level and rescale flag, the same errors and
    the same (scope, kind, level) counts."""

    @staticmethod
    def operands(backend, slot_count=16):
        """Ciphertexts at several levels, rescale flags and shifts."""
        ctx = backend.keygen(LheParams(slot_count, 8), seed=2)
        rng = np.random.default_rng(2)
        fresh = [backend.encrypt(ctx, rng.normal(size=slot_count)) for _ in range(3)]
        product = backend.mul(fresh[0], fresh[1])                         # 6, pending
        lower = backend.cmul(backend.cmul(fresh[2], rng.normal(size=slot_count)),
                             rng.normal(size=slot_count))                 # 5, pending
        refreshed = backend.reencrypt(ctx, lower)                         # 7, not pending
        return ctx, fresh + [product, lower, refreshed, backend.rot(fresh[1], 3),
                             backend.rot(product, -5), backend.rot(lower, 11)]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_mul_sum_matches_the_per_op_fold(self, data):
        _, pool = self.operands(SimulatorBackend())
        index = st.integers(0, len(pool) - 1)
        pairs = [(pool[data.draw(index)], pool[data.draw(index)])
                 for _ in range(data.draw(st.integers(1, 6), label="terms"))]
        # one call over all the terms equals a call over the first ``split``
        # of them continued term by term (the per-op fold when it is 0), as
        # a conv layer's input gradient cell relies on
        split = data.draw(st.integers(0, len(pairs) - 1), label="split")
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs),
            lambda b: loop_mul_sum(b, pairs[split:],
                                   b.mul_sum(pairs[:split]) if split else None))
        assert_same_ct(got, want)
        assert got_counts == want_counts

    @pytest.mark.parametrize("lead_index", [None, 3, 5, 7])
    def test_single_term(self, lead_index):
        # one term alone, or after the square of ``pool[lead_index]``: one
        # call over both equals the chained calls
        _, pool = self.operands(SimulatorBackend())
        lead = [] if lead_index is None else [(pool[lead_index], pool[lead_index])]
        pairs = [(pool[6], pool[4])]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(lead + pairs),
            lambda b: loop_mul_sum(b, pairs, b.mul_sum(lead) if lead else None))
        assert_same_ct(got, want)
        assert got_counts == want_counts

    def test_mul_sum_needs_a_product(self, backend):
        with pytest.raises(ValueError, match="at least one product"):
            backend.mul_sum([])

    def test_level_exhaustion_matches_the_per_op_fold(self, backend):
        ctx, pool = self.operands(backend)
        spent = backend.encrypt(backend.keygen(LheParams(16, 1), seed=2), np.ones(16))
        assert spent.level == 0 and spent.key_id == ctx.key_id
        pairs = [(pool[0], pool[1]), (pool[3], pool[4]), (pool[2], spent), (pool[0], pool[0])]
        for lead in ([], [(pool[5], pool[5])]):
            terms = lead + pairs
            (got, got_counts), (want, want_counts) = side_by_side(
                lambda b: b.mul_sum(terms), lambda b: loop_mul_sum(b, terms))
            assert isinstance(got, LevelExhausted) and isinstance(want, LevelExhausted)
            assert (got.op, got.level, got.scope) == (want.op, want.level, want.scope)
            assert (got.op, got.level, got.scope) == ("mul", 0, "S")
            assert got_counts == want_counts  # the terms before it were metered

    @pytest.mark.parametrize("where", ["pair", "later pair", "first pair"])
    def test_key_mismatch_matches_the_per_op_fold(self, backend, where):
        _, pool = self.operands(backend)
        other = backend.encrypt(backend.keygen(LheParams(16, 8), seed=9), np.ones(16))
        pairs = [(pool[0], pool[1]), (pool[2], pool[3])]
        if where == "pair":
            pairs[0] = (pool[0], other)
        elif where == "later pair":
            pairs[1] = (other, other)
        else:  # the sum so far is foreign: the first add raises
            pairs.insert(0, (other, other))
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs), lambda b: loop_mul_sum(b, pairs))
        assert isinstance(got, KeyMismatch) and isinstance(want, KeyMismatch)
        assert str(got) == str(want)
        assert got_counts == want_counts

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_rotate_add_matches_the_per_op_chain(self, data):
        _, pool = self.operands(SimulatorBackend())
        ct = pool[data.draw(st.integers(0, len(pool) - 1), label="operand")]
        shifts = data.draw(st.lists(
            st.sampled_from([0, 16, -16, 1, -1, 8]) | st.integers(-48, 48), max_size=8),
            label="shifts")
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.rotate_add(ct, shifts), lambda b: loop_rotate_add(b, ct, shifts))
        assert_same_ct(got, want)
        assert got_counts == want_counts

    def test_rotate_add_without_shifts_returns_its_operand(self, backend):
        _, pool = self.operands(backend)
        assert backend.rotate_add(pool[7], []) is pool[7]

    def test_every_chain_step_rotates_through_rot(self):
        # Every step is metered as one rot at the operand's meter level, and
        # none is issued through ``rot``: the fold reads no rotated result.
        backend = CountingRot(OpMeter())
        _, pool = self.operands(backend)
        for ct in (pool[0], pool[4]):  # not pending, and pending
            mark = backend.meter.checkpoint()
            backend.calls.clear()
            backend.rotate_add(ct, [4, -2, 0, 1])
            assert backend.calls == []
            assert backend.meter.since(mark) == {
                ("(unscoped)", "rot", ct.meter_level()): 4,
                ("(unscoped)", "add", ct.meter_level()): 4}

    def test_results_keep_their_values_while_buffers_recycle(self, backend):
        _, pool = self.operands(backend)
        kept = [backend.mul_sum([(pool[0], pool[1]), (pool[2], pool[3])]),
                backend.rotate_add(pool[4], [1, 2, 4])]
        values = [ct.slots.copy() for ct in kept]
        for _ in range(3):
            backend.mul_sum([(pool[0], pool[0]), (pool[1], pool[1]), (pool[2], pool[2])])
            backend.rotate_add(pool[1], [3, -1, 2])
        free = len(backend._free[16])
        for _ in range(3):  # a steady caller neither grows nor drains the free list
            backend.mul_sum([(pool[0], pool[0]), (pool[1], pool[1]), (pool[2], pool[2])])
            backend.rotate_add(pool[1], [3, -1, 2])
        assert len(backend._free[16]) == free
        assert all(ct.slots.tobytes() == v.tobytes() for ct, v in zip(kept, values))


def assert_same_masked(got, want, offsets, n):
    """Equal slots, and bit for bit at ``p::n`` for each kept offset ``p``;
    the level, rescale flag and key of the per-op calls."""
    assert np.array_equal(got.slots, want.slots)
    for p in offsets:
        assert got.slots[p::n].tobytes() == want.slots[p::n].tobytes()
    assert (got.level, got.pending_rescale, got.key_id) == (
        want.level, want.pending_rescale, want.key_id)


@st.composite
def packs(draw, pool_size, slot_count=16):
    """Pool indices of m <= n ciphertexts, ciphertext g at offset g, and the
    block size n (a power of two up to ``slot_count``)."""
    n = 1 << draw(st.integers(0, slot_count.bit_length() - 1), label="log2 n")
    m = draw(st.integers(1, n), label="m")
    indices = draw(st.lists(st.integers(0, pool_size - 1), min_size=m, max_size=m),
                   label="ciphertexts")
    return indices, n


def spreads(spread, ct, n, accs):
    """``spread(ct, n, g, accs[g])`` for each accumulator g in turn."""
    return [spread(ct, n, g, acc) for g, acc in enumerate(accs)]


class TestMaskedChains:
    """``pack_sums`` and ``unpack_spread`` against the per-op
    ``rotate_add``, selector ``cmul`` and ``add`` calls they fold together,
    applied gradient by gradient (a spread of each gradient in turn): the same (scope, kind, level) counts, the
    same errors at the same gradient, slots equal under ``np.array_equal``
    and bit for bit at the kept slots ``p::n``.  The per-op product writes
    ``x * 0.0`` into the other slots, so there the two may differ in the sign
    of an exact zero."""

    operands = staticmethod(TestBatchedPrimitives.operands)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rotate_add_select_matches_the_per_op_calls(self, data):
        # the pack: full, partial, m = 1 and n = 1, with shifted operands and
        # operands with a rescale pending among the gradients
        _, pool = self.operands(SimulatorBackend())
        indices, n = data.draw(packs(len(pool)))
        cts = [pool[i] for i in indices]
        scale = data.draw(st.sampled_from([1.0, -0.3 / 4, 2.5]), label="scale")
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.pack_sums(cts, n, scale),
            lambda b: per_op_pack_sums(b, cts, n, scale))
        assert_same_masked(got, want, range(len(cts)), n)
        assert got_counts == want_counts

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_select_rotate_add_matches_the_per_op_calls(self, data):
        _, pool = self.operands(SimulatorBackend())
        ct = pool[data.draw(st.integers(0, len(pool) - 1), label="operand")]
        indices, n = data.draw(packs(len(pool)))
        accs = [pool[i] for i in indices]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: spreads(b.unpack_spread, ct, n, accs),
            lambda b: spreads(partial(per_op_unpack_spread, b), ct, n, accs))
        assert len(got) == len(want) == len(accs)
        for g, (cell, want_cell, acc) in enumerate(zip(got, want, accs)):
            assert_same_masked(cell, want_cell, range(n), n)
            assert np.array_equal(cell.slots, acc.slots + np.repeat(ct.slots[g::n], n))
        assert got_counts == want_counts

    @pytest.mark.parametrize("n, m", [(8, 8), (8, 3), (8, 1), (1, 1)],
                             ids=["full", "partial", "one", "n1"])
    def test_pack_shapes_match_the_per_op_calls(self, n, m):
        # noise-removal packs: gradient g at offset g; every operand shifted
        # or with a rescale pending
        _, pool = self.operands(SimulatorBackend())
        shifted_or_pending = [pool[i] for i in (3, 4, 6, 7, 8)]
        cts = [shifted_or_pending[g % 5] for g in range(m)]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.pack_sums(cts, n, -0.05 / n),
            lambda b: per_op_pack_sums(b, cts, n, -0.05 / n))
        assert_same_masked(got, want, range(m), n)
        assert got_counts == want_counts
        accs = [pool[g % 9] for g in range(m)]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: spreads(b.unpack_spread, pool[7], n, accs),
            lambda b: spreads(partial(per_op_unpack_spread, b), pool[7], n, accs))
        for cell, want_cell in zip(got, want, strict=True):
            assert_same_masked(cell, want_cell, range(n), n)
        assert got_counts == want_counts

    @pytest.mark.parametrize("acc_index", [None, 5])
    def test_level_exhaustion_matches_the_per_op_calls(self, backend, acc_index):
        # the spent gradient comes first, or after pool[acc_index]
        ctx, pool = self.operands(backend)
        spent = backend.encrypt(backend.keygen(LheParams(16, 1), seed=2), np.ones(16))
        assert spent.level == 0 and spent.key_id == ctx.key_id
        cts = ([] if acc_index is None else [pool[acc_index]]) + [spent, pool[0]]
        accs = [pool[1 if acc_index is None else acc_index]] * 2
        for fused, per_op in [
                (lambda b: b.pack_sums(cts, 4, 0.5),
                 lambda b: per_op_pack_sums(b, cts, 4, 0.5)),
                (lambda b: spreads(b.unpack_spread, spent, 4, accs),
                 lambda b: spreads(partial(per_op_unpack_spread, b), spent, 4, accs))]:
            (got, got_counts), (want, want_counts) = side_by_side(fused, per_op)
            assert isinstance(got, LevelExhausted) and isinstance(want, LevelExhausted)
            assert (got.op, got.level, got.scope) == (want.op, want.level, want.scope)
            assert (got.op, got.level, got.scope) == ("cmul", 0, "S")
            assert got_counts == want_counts  # the gradients before it were metered

    def test_key_mismatch_matches_the_per_op_calls(self, backend):
        _, pool = self.operands(backend)
        other = backend.encrypt(backend.keygen(LheParams(16, 8), seed=9), np.ones(16))
        # the foreign key in the last, the first and a middle place
        last, first, middle = ([pool[4], pool[1], other], [other, pool[1]],
                               [pool[0], other, pool[2]])
        for fused, per_op in [
                (lambda b: b.pack_sums(last, 4, 0.5),
                 lambda b: per_op_pack_sums(b, last, 4, 0.5)),
                (lambda b: b.pack_sums(first, 4, 0.5),
                 lambda b: per_op_pack_sums(b, first, 4, 0.5)),
                (lambda b: spreads(b.unpack_spread, pool[4], 4, middle),
                 lambda b: spreads(partial(per_op_unpack_spread, b), pool[4], 4, middle))]:
            (got, got_counts), (want, want_counts) = side_by_side(fused, per_op)
            assert isinstance(got, KeyMismatch) and isinstance(want, KeyMismatch)
            assert str(got) == str(want)
            assert got_counts == want_counts  # chain and cmul metered before the add

    @pytest.mark.parametrize("n, count", [
        (4, 5), (1, 2), (4, 0), (0, 1), (3, 1), (32, 1),
    ], ids=["more-than-n", "count", "empty", "n-zero", "n-three", "n-wider-than-S"])
    def test_a_pack_holds_at_most_n_distinct_offsets(self, backend, n, count):
        # gradient g goes to offset g, so a pack holds 1 to n of them, in
        # blocks of n slots: a power of two no wider than the ciphertext
        _, pool = self.operands(backend)
        mark = backend.meter.checkpoint()
        with pytest.raises(ValueError):
            backend.pack_sums(pool[:count], n, 1.0)
        assert backend.meter.since(mark) == {}  # raised before any op

    @pytest.mark.parametrize("n, g", [
        (4, -1), (4, 4), (1, 1), (0, 0), (3, 0), (32, 0),
    ], ids=["g-negative", "g-n", "n1-g1", "n-zero", "n-three", "n-wider-than-S"])
    def test_a_spread_takes_an_offset_of_its_pack(self, backend, n, g):
        # gradient g sits at offset g of n-slot blocks, so 0 <= g < n, and n
        # is a power of two no wider than the ciphertext
        _, pool = self.operands(backend)
        mark = backend.meter.checkpoint()
        with pytest.raises(ValueError):
            backend.unpack_spread(pool[6], n, g, pool[0])
        assert backend.meter.since(mark) == {}  # raised before any op

    def test_every_chain_step_rotates_through_rot(self):
        # Both meter one rot per chain step at the per-op calls' level; only
        # the spread makes them through ``rot``, one call per step, by the
        # reversed shifts of each offset's signed plan.
        backend = CountingRot(OpMeter())
        _, pool = self.operands(backend)
        backend.calls.clear()  # the operands' own rotations
        mark = backend.meter.checkpoint()
        backend.pack_sums([pool[0], pool[4]], 8, 1.0)
        assert backend.calls == []
        rots = {key: c for key, c in backend.meter.since(mark).items() if key[1] == "rot"}
        assert rots == {("(unscoped)", "rot", pool[0].meter_level()): 3,
                        ("(unscoped)", "rot", pool[4].meter_level()): 3}
        mark = backend.meter.checkpoint()
        accs = [pool[i] for i in (1, 2, 3, 5, 6, 8)]
        spreads(backend.unpack_spread, pool[0], 8, accs)
        assert backend.calls == [-d << k for g in range(len(accs)) for k, d in
                                 enumerate(compute_rotation_plan(g, 8).directions)]
        assert backend.calls[15:18] == [1, -2, 4]  # offset 5: directions (-1, 1, -1)
        rots = {key: c for key, c in backend.meter.since(mark).items() if key[1] == "rot"}
        assert rots == {("(unscoped)", "rot", pool[0].level): 18}

    def test_packing_allocates_no_block_larger_than_one_buffer(self):
        # n gradients at S = 8192 go through one scratch buffer into the
        # output: never an (n, S) stack of them.
        slots, n = 8192, 128
        backend = SimulatorBackend(OpMeter())
        ctx = backend.keygen(LheParams(slots, 4), seed=3)
        rng = np.random.default_rng(3)
        base = backend.encrypt(ctx, rng.normal(size=slots))
        grads = [backend.cmul(base, rng.normal(size=slots)) for _ in range(n)]
        buffer = 8 * slots
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            packed = backend.pack_sums(grads, n, -0.01)
            peak = tracemalloc.get_traced_memory()[1] - before
            largest = max(t.size for t in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        assert packed.level == 1
        assert largest <= buffer
        assert peak < 3 * buffer  # the scratch and the output buffer


def assert_same_up_to_zero_sign(got, want):
    """Equal slots, bit for bit where not zero (past a bound the batched
    primitives write +0.0 where a per-op sum of -0.0 terms is -0.0); the
    same level, rescale flag and key."""
    assert np.array_equal(got.slots, want.slots)
    kept = got.slots != 0
    assert got.slots[kept].tobytes() == want.slots[kept].tobytes()
    assert (got.level, got.pending_rescale, got.key_id) == (
        want.level, want.pending_rescale, want.key_id)


def last_nonzero_end(ct) -> int:
    """One past the last slot of ``ct`` that is not an exact zero."""
    nonzero = np.flatnonzero(ct.slots)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


class TestZeroTails:
    """Products skip the zero tails of their operands: ``mul`` and
    ``mul_sum`` against the per-op fold of full products
    (:class:`FullProductBackend`), slots equal under ``np.array_equal`` (up
    to the sign of an exact zero), the same level, rescale flag and (scope,
    kind, level) counts; and every bound covers its last nonzero slot."""

    BOUNDS = (0, 1, 5, 8, 13, 16)

    @staticmethod
    def tailed(slot_count=16):
        """Ciphertexts of values of both signs up to each bound in
        :data:`BOUNDS` and zeros past it, at two levels, with a rescale
        pending on some; and the same values through the public constructor,
        which measures their bound."""
        backend = SimulatorBackend()
        ctx = backend.keygen(LheParams(slot_count, 8), seed=4)
        rng = np.random.default_rng(4)
        cts = []
        for bound in TestZeroTails.BOUNDS:
            values = np.zeros(slot_count)
            values[:bound] = rng.normal(size=bound)
            fresh = backend.encrypt(ctx, values)
            cts += [fresh, backend.cmul(fresh, np.full(slot_count, -1.5)),
                    Ciphertext(values.copy(), 5, ctx.key_id, True)]
        return cts

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_sum_and_mul_match_the_full_product_fold(self, data):
        pool = self.tailed()
        index = st.integers(0, len(pool) - 1)
        pairs = [(pool[data.draw(index)], pool[data.draw(index)])
                 for _ in range(data.draw(st.integers(1, 6), label="terms"))]
        for op in (lambda b: b.mul_sum(pairs), lambda b: b.mul(*pairs[-1])):
            (got, got_counts), (want, want_counts) = side_by_side(
                op, op, FullProductBackend)
            assert_same_up_to_zero_sign(got, want)
            assert got_counts == want_counts
            assert last_nonzero_end(got) <= got._bound <= 16

    @pytest.mark.parametrize("bounds", [
        (5, 13, 16), (1, 8), (0, 13), (0, 0), (16, 5, 0, 13)],
        ids=["first-shortest", "first-shorter", "first-all-zero", "all-zero", "mixed"])
    def test_a_first_term_shorter_than_later_ones(self, bounds):
        # each term multiplies two operands of the same bound; the sum's
        # slots past the first term's bound come from later terms alone
        pool = self.tailed()
        firsts = [3 * self.BOUNDS.index(bound) for bound in bounds]
        pairs = [(pool[k], pool[k + 1]) for k in firsts]  # fresh, and times -1.5
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs), lambda b: b.mul_sum(pairs), FullProductBackend)
        assert_same_up_to_zero_sign(got, want)
        assert got_counts == want_counts
        assert got._bound == max(bounds) == last_nonzero_end(got)

    def test_an_all_zero_operand_has_bound_zero(self, backend):
        # conv_backward's never-visited cell: the public constructor over
        # zeros measures its bound
        ctx = backend.keygen(LheParams(16, 8), seed=4)
        x = backend.encrypt(ctx, np.arange(1.0, 17.0))
        zero = Ciphertext(np.zeros(16), 6, ctx.key_id, True)
        assert zero._bound == 0
        product = backend.mul(x, zero)
        assert product._bound == 0
        assert not product.slots.any() and product.level == 5
        total = backend.mul_sum([(zero, x), (x, x)])
        assert total._bound == 16 and np.array_equal(total.slots, x.slots * x.slots)

    def test_a_noisy_encrypt_is_full_and_a_noiseless_one_is_measured(self, backend):
        values = np.zeros(16)
        values[:5] = -np.arange(1.0, 6.0)
        for sigma, bound in ((0.0, 5), (1e-3, 16)):
            ctx = backend.keygen(LheParams(16, 8, sigma), seed=4)
            fresh = backend.encrypt(ctx, values)
            assert fresh._bound == bound
            assert backend.reencrypt(ctx, fresh)._bound == bound
        # a negative zero is an exact zero
        values[4:] = -0.0
        assert backend.encrypt(backend.keygen(LheParams(16, 8), seed=4), values)._bound == 4

    def test_a_rotated_operand_is_treated_as_full(self, backend):
        ctx = backend.keygen(LheParams(16, 8), seed=4)
        values = np.zeros(16)
        values[:5] = np.arange(1.0, 6.0)
        x = backend.encrypt(ctx, values)
        ones = backend.encrypt(ctx, np.ones(16))
        for ct in (backend.add(x, x), backend.cmul(x, np.ones(16)),
                   backend.rotate_add(x, [-1, 2])):
            assert ct._bound == 16
        # a rotation's bound is its slot count: a prefix does not survive it
        for shift, end in ((-3, 8), (16, 5)):
            rotated = backend.rot(x, shift)
            assert rotated._bound == 16
            for product in (backend.mul(rotated, ones), backend.mul_sum([(ones, rotated)])):
                assert np.array_equal(product.slots, np.roll(values, -shift))
                assert product._bound == 16 and last_nonzero_end(product) == end
            cell = backend.unpack_spread(rotated, 4, 1, backend.encrypt(ctx, np.zeros(16)))
            assert cell._bound == 16 and np.array_equal(
                cell.slots, np.repeat(np.roll(values, -shift)[1::4], 4))

    def test_zero_like_is_an_exact_zero_at_its_samples_level(self, backend):
        ctx = backend.keygen(LheParams(16, 8), seed=4)
        x = backend.encrypt(ctx, np.arange(16.0))
        for sample in (x, backend.mul(x, x)):  # with a rescale pending and without
            mark = backend.meter.checkpoint()
            zero = backend.zero_like(sample)
            assert backend.meter.since(mark) == Counter()
            assert (zero._bound, zero.level, zero.pending_rescale, zero.key_id) == (
                0, sample.level, sample.pending_rescale, sample.key_id)
            assert zero.slots.tobytes() == bytes(8 * 16) and not zero.slots.flags.writeable

    def test_a_mapped_cell_takes_the_bound_it_is_given(self, backend, tmp_path):
        ctx = backend.keygen(LheParams(16, 8), seed=4)
        values = np.zeros(16)
        values[:7] = np.arange(-3.0, 4.0)
        path = tmp_path / "cells.lhe"
        path.write_bytes(serialize_many([backend.encrypt(ctx, values)] * 2))
        cells = backend.open_cells(path, ctx, 2, "7,16")
        with pytest.raises(ValueError, match="^session manifest bounds holds 1 bounds, "
                                             "the model has 2 cells$"):
            backend.open_cells(path, ctx, 2, "7")
        assert [cell._bound for cell in cells] == [7, 16]
        x = backend.encrypt(ctx, np.ones(16))
        for cell in cells:
            product = backend.mul(x, cell)
            assert product._bound == cell._bound and np.array_equal(product.slots, values)
        assert [cell._bound for cell in cells] == [7, 16]

    @staticmethod
    def mapped(backend, ctx, x, tmp_path):
        """The second of two copies of ``x`` opened from a file, with ``x``'s
        bound as theirs."""
        path = tmp_path / "cells.lhe"
        path.write_bytes(serialize_many([x, x]))
        return backend.open_cells(path, ctx, 2, f"{x._bound},{x._bound}")[1]

    # every way to make a ciphertext, from a fresh one, x, whose slots from
    # 5 on are zeros (a -0.0 among them)
    MAKERS = {
        "constructor": lambda b, ctx, x, tmp: Ciphertext(x.slots.copy(), x.level, x.key_id),
        "deserialize": lambda b, ctx, x, tmp: deserialize(serialize(x), ctx),
        "deserialize_many": lambda b, ctx, x, tmp: deserialize_many(
            serialize_many([x, x]), ctx)[1],
        "open_cells": lambda b, ctx, x, tmp: TestZeroTails.mapped(b, ctx, x, tmp),
        "encrypt": lambda b, ctx, x, tmp: b.encrypt(ctx, x.slots),
        "noisy-encrypt": lambda b, ctx, x, tmp: b.encrypt(
            b.keygen(LheParams(16, 8, 1e-3), seed=4), x.slots),
        "reencrypt": lambda b, ctx, x, tmp: b.reencrypt(ctx, x),
        "add": lambda b, ctx, x, tmp: b.add(x, x),
        "mul": lambda b, ctx, x, tmp: b.mul(x, x),
        "cmul": lambda b, ctx, x, tmp: b.cmul(x, np.full(16, 2.0)),
        "rot": lambda b, ctx, x, tmp: b.rot(x, 3),
        "mul_sum": lambda b, ctx, x, tmp: b.mul_sum([(x, x), (x, x)]),
        "rotate_add": lambda b, ctx, x, tmp: b.rotate_add(x, [1, 2]),
        "pack_sums": lambda b, ctx, x, tmp: b.pack_sums([x, x], 4, 0.5),
        "unpack_spread": lambda b, ctx, x, tmp: b.unpack_spread(x, 4, 1, x),
    }

    @pytest.mark.parametrize("make", list(MAKERS))
    def test_every_ciphertext_carries_its_bound_from_birth(self, backend, tmp_path, make):
        # an int bound that covers every nonzero slot, kept as it was when a
        # product or fold reads the ciphertext
        ctx = backend.keygen(LheParams(16, 8), seed=4)
        values = np.zeros(16)
        values[:5] = np.arange(-2.0, 3.0) + 0.5
        values[9] = -0.0
        ct = self.MAKERS[make](backend, ctx, backend.encrypt(ctx, values), tmp_path)
        bound = ct._bound
        assert type(bound) is int and last_nonzero_end(ct) <= bound <= 16
        backend.mul(ct, ct)
        backend.mul_sum([(ct, ct), (ct, ct)])
        backend.rotate_add(ct, [1, 2])
        backend.unpack_spread(ct, 4, 0, ct)
        assert ct._bound == bound

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_spread_matches_the_per_op_calls_over_tails(self, data):
        # packs and accumulators with zero tails, the accumulator's shorter
        # or longer than the pack's reach
        pool = self.tailed()
        ct = pool[data.draw(st.integers(0, len(pool) - 1), label="pack")]
        indices, n = data.draw(packs(len(pool)))
        accs = [pool[i] for i in indices]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: spreads(b.unpack_spread, ct, n, accs),
            lambda b: spreads(partial(per_op_unpack_spread, b), ct, n, accs))
        for cell, want_cell, acc in zip(got, want, accs, strict=True):
            assert_same_up_to_zero_sign(cell, want_cell)
            assert last_nonzero_end(cell) <= cell._bound <= 16
            # the larger of the cell's bound and the pack's, rounded up to a
            # whole block
            assert cell._bound == max(acc._bound, -(-ct._bound // n) * n)
        assert got_counts == want_counts

    @staticmethod
    def product(bound, slot_count=32, sparse=False):
        """A product whose tail is +0.0 from ``bound`` on and whose last slot
        before it is not zero.  Some slots before it are -0.0 (a zero times a
        negative factor); when ``sparse``, all of them are +0.0 or -0.0, so
        that sums of zeros show their sign."""
        backend = SimulatorBackend()
        ctx = backend.keygen(LheParams(slot_count, 8), seed=4)
        rng = np.random.default_rng(bound)
        values = np.zeros(slot_count)
        values[:bound] = rng.normal(size=bound)
        values[1:bound - 1:3] = 0.0
        if sparse:
            values[:bound - 1] = 0.0
        signs = np.where(rng.random(slot_count) < 0.5, -1.5, 1.5)
        product = backend.mul(backend.encrypt(ctx, values), backend.encrypt(ctx, signs))
        assert product._bound == bound and not np.signbit(product.slots[bound:]).any()
        return product

    @staticmethod
    def check_rotate_add(ct, shifts):
        """``rotate_add`` against the per-op chain: the same bytes in every
        slot (the sign of zero included), level, rescale flag and counts;
        and, unless there are no shifts (the operand is returned), the
        operand's bound unchanged and the result's never below its last
        nonzero slot."""
        def stale(backend):
            # buffers of nonzero slots on the free list: a slot the chain
            # fails to write shows
            for _ in range(2):
                view = np.full(ct.slot_count, 7.0).view()
                view.setflags(write=False)
                backend._free[ct.slot_count].append(view)
            return backend

        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: stale(b).rotate_add(ct, shifts),
            lambda b: loop_rotate_add(b, ct, shifts))
        assert_same_ct(got, want)
        assert got_counts == want_counts
        if shifts:
            assert ct._bound == last_nonzero_end(ct)
            assert last_nonzero_end(got) <= got._bound <= ct.slot_count

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rotate_add_matches_the_per_op_chain_over_tails(self, data):
        size = 32
        bound = data.draw(st.sampled_from([0, 1, size]) | st.integers(0, size),
                          label="bound")
        ct = self.product(bound, size, sparse=data.draw(st.booleans(), label="sparse"))
        shift = (st.sampled_from([0, size, -size, 2 * size + 3, -1, size // 2])
                 | st.integers(-3 * size, 3 * size))
        folds = st.builds(lambda n, steps: [n << k for k in range(steps)],
                          st.sampled_from([1, 2, 4]), st.integers(1, 5))
        self.check_rotate_add(ct, data.draw(st.lists(shift, max_size=8) | folds,
                                            label="shifts"))

    @pytest.mark.parametrize("bound, shifts", [
        (8, [1, 2, 4, 8, 16]),   # a fold: 8 -> 9, 11, 15, 23 slots, then all
        (4, [1, 2]),             # ends before the run covers the slots
        (2, [10, 1]),            # a shift longer than the run: every slot at once
        (5, [-3, -6, 33]),       # negative and past the slot count: the run grows right
        (16, [16, 3]),           # half the slots: the first step covers them
        (0, [4, 8, 16]),         # all zero
        (31, [1, 2]),            # the first step covers the slots
        (32, [1, 2, 4]),         # full: every step adds whole vectors
    ], ids=["fold", "short", "gap", "right", "half", "zero", "nearly-full", "full"])
    def test_rotate_add_chains_over_a_run(self, bound, shifts):
        for sparse in (False, True):
            self.check_rotate_add(self.product(bound, sparse=sparse), shifts)


class TestRecycling:
    """Dropped results hand their slot buffers back; held arrays stay put."""

    @staticmethod
    def churn(backend, ctx, rounds=20):
        for i in range(rounds):
            x = backend.encrypt(ctx, np.full(8, float(i)))
            backend.mul(backend.add(x, backend.rot(x, 1)), x)

    def test_dropped_result_buffer_is_reused(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        ct = backend.add(a, a)
        buffer = weakref.ref(ct.slots)
        del ct
        assert buffer() is not None and backend.mul(a, a).slots is buffer()

    def test_held_slots_and_slices_keep_their_values(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        ct = backend.add(a, a)
        held = ct.slots
        del ct
        ct = backend.mul(a, a)
        part = ct.slots[2:5]   # a slice points at the buffer's owner, not its view
        del ct
        self.churn(backend, ctx)
        assert np.array_equal(held, 2 * np.arange(8.0))
        assert np.array_equal(part, np.arange(2.0, 5.0) ** 2)
        assert not held.flags.writeable and not part.flags.writeable

    def test_every_new_buffer_is_page_aligned(self, backend):
        # an elementwise op into a buffer off a cache line runs up to twice
        # as slow; a buffer of its own mapping starts on a page
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        made = [a, backend.add(a, a), backend.mul(a, a), backend.cmul(a, np.ones(8)),
                backend.rotate_add(a, [1, 2]), backend.mul_sum([(a, a), (a, a)]),
                _buffer(backend._free, 8)[0]]
        addresses = [ct.__array_interface__["data"][0] if isinstance(ct, np.ndarray)
                     else ct.slots.__array_interface__["data"][0] for ct in made]
        assert [address % mmap.PAGESIZE for address in addresses] == [0] * len(made)

    def test_free_buffers_counts_what_the_lists_hold_per_slot_count(self, backend):
        assert backend.free_buffers == {}
        ctx = ctx8(backend)
        big = backend.keygen(LheParams(16, 4), seed=1)
        a, b = backend.encrypt(ctx, np.ones(8)), backend.encrypt(big, np.ones(16))
        held = backend.add(a, a)
        del a, b
        assert backend.free_buffers == {8: 1, 16: 1}
        # a result takes a listed buffer before any new one is made
        x = backend.mul(held, held)
        assert backend.free_buffers == {8: 0, 16: 1}
        del x, held
        assert backend.free_buffers == {8: 2, 16: 1}

    def test_rotation_outlives_its_source(self, backend):
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        source = backend.add(a, a)
        rotated = backend.rot(source, 3)
        del source
        self.churn(backend, ctx)
        assert np.array_equal(rotated.slots, np.roll(2 * np.arange(8.0), -3))
        # once the rotation goes too, the shared buffer is reused
        buffer = weakref.ref(rotated._base)
        del rotated
        assert buffer() is not None and backend.add(a, a).slots is buffer()

    def test_results_outliving_their_backend_release_their_buffers(self):
        backend = SimulatorBackend()
        ctx = ctx8(backend)
        a = backend.encrypt(ctx, np.arange(8.0))
        kept = backend.add(a, a)
        dropped = backend.rot(backend.mul(a, a), 1)
        freed = weakref.ref(dropped._base)
        del backend   # the free lists go with it; the results hold none
        del dropped
        assert freed() is None
        assert np.array_equal(kept.slots, 2 * np.arange(8.0))

    def test_threads_sharing_the_free_lists_get_distinct_buffers(self):
        backend = SimulatorBackend()
        ctx = backend.keygen(LheParams(64, 4), seed=2)
        failures = []

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                v = rng.normal(size=64)
                x = backend.encrypt(ctx, v)
                y = backend.mul(backend.add(x, backend.rot(x, 5)), x)
                if not np.array_equal(backend.decrypt(ctx, y), (v + np.roll(v, -5)) * v):
                    failures.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_constructed_and_deserialized_arrays_are_not_reused(self, backend):
        ctx = ctx8(backend)
        blob = serialize(backend.encrypt(ctx, np.ones(8)))
        # a view whose base only it holds, as a pooled buffer's is
        for make in (lambda: Ciphertext(np.arange(8.0)[:], 5, ctx.key_id),
                     lambda: deserialize(blob, ctx)):
            ct = make()
            freed = weakref.ref(ct.slots)
            rotated = backend.rot(ct, 2)
            del ct, rotated
            assert freed() is None   # released, not kept for reuse


class FullCopyBackend(SimulatorBackend):
    """The reference for ``_fresh``: every slot copied into a buffer from the
    free list, or a new one, and the bound measured from the copy."""

    def _fresh(self, ctx, values):
        out, view, free = _buffer(self._free, values.shape[0])
        sigma = ctx.params.noise_sigma
        if sigma > 0 and ctx._rng is not None:
            np.add(values, ctx._rng.normal(0.0, sigma, size=values.shape), out)
        else:
            np.copyto(out, values)
        return _make(view, 0, ctx.params.top_level, ctx.key_id, False, free, _extent(out))


def fresh_vectors(size=16):
    """Slot vectors for ``encrypt`` and ``reencrypt``: values then zeros with a
    -0.0 inside the tail or at its end, all +0.0, all -0.0, and all nonzero."""
    tailed = np.zeros(size)
    tailed[:5] = np.arange(-2.0, 3.0) + 0.5
    inside, last = tailed.copy(), tailed.copy()
    inside[size * 9 // 16] = -0.0
    last[size - 1] = -0.0
    return {"negative-zero-inside-the-tail": inside, "negative-zero-last": last,
            "all-zero": np.zeros(size), "all-negative-zero": np.full(size, -0.0),
            "full": np.arange(1.0, size + 1.0)}


class TestFreshSlots:
    """``encrypt`` and ``reencrypt`` copy only the written prefix of their
    slots into a new buffer, left zero past it, and every slot into a
    recycled one: bit for bit what a copy of every slot gives."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("recycled", [False, True], ids=["new", "recycled"])
    @pytest.mark.parametrize("name", list(fresh_vectors()))
    def test_fresh_slots_match_a_full_copy(self, name, recycled, sigma):
        values = fresh_vectors()[name]
        seen = []
        for kind in (SimulatorBackend, FullCopyBackend):
            backend = kind(OpMeter())
            ctx = backend.keygen(LheParams(16, 6, sigma), seed=5)
            source = backend.encrypt(ctx, values)
            if recycled:  # two buffers of nonzero garbage back on the free list
                garbage = [backend.encrypt(ctx, np.full(16, np.nan)) for _ in range(2)]
                del garbage
            assert backend.free_buffers == {16: 2 if recycled else 0}
            cts = [backend.encrypt(ctx, values), backend.reencrypt(ctx, source)]
            assert backend.free_buffers == {16: 0}
            seen.append(([(ct.slots.tobytes(), ct.level, ct.pending_rescale, ct._bound)
                          for ct in cts], backend.meter.checkpoint()))
        assert seen[0] == seen[1]
        if not sigma:
            assert seen[0][0][0][0] == values.tobytes()
            assert seen[0][0][0][3] == _extent(values)


class TestNoise:
    def test_noise_sigma_perturbs_and_defaults_off(self, backend):
        quiet = backend.keygen(LheParams(8, 6), seed=3)
        noisy = backend.keygen(LheParams(8, 6, noise_sigma=0.01), seed=3)
        v = np.arange(8.0)
        assert np.array_equal(backend.decrypt(quiet, backend.encrypt(quiet, v)), v)
        out = backend.decrypt(noisy, backend.encrypt(noisy, v))
        assert not np.array_equal(out, v)
        assert np.abs(out - v).max() < 0.1


def _put_u32(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4:]


class TestSerialization:
    def test_header_layout(self, backend):
        ctx = ctx8(backend)
        ct = backend.encrypt(ctx, np.arange(8.0))
        blob = serialize(ct)
        assert len(blob) == serialized_size(8) == 16 + 64
        assert blob[:4] == b"LHE1"
        assert int.from_bytes(blob[4:8], "little") == 8
        assert int.from_bytes(blob[8:12], "little") == 5
        assert int.from_bytes(blob[12:16], "little") == ctx.key_hash
        assert np.array_equal(np.frombuffer(blob, "<f8", offset=16), np.arange(8.0))

    def test_roundtrip(self, backend):
        ctx = ctx8(backend)
        ct = backend.cmul(backend.encrypt(ctx, np.arange(8.0)), np.full(8, 2.0))
        out = deserialize(serialize(ct), ctx)
        assert out == ct

    def test_rejects_wrong_key_and_garbage(self, backend):
        ctx = ctx8(backend, seed=1)
        other = ctx8(backend, seed=2)
        blob = serialize(backend.encrypt(ctx, np.zeros(8)))
        with pytest.raises(KeyMismatch):
            deserialize(blob, other)
        with pytest.raises(ValueError):
            deserialize(b"XXXX" + blob[4:], ctx)
        with pytest.raises(ValueError):
            deserialize(blob[:20], ctx)

    @pytest.mark.parametrize("last", list(fresh_vectors()) + ["zero-tail"])
    def test_save_cells_writes_the_sequence_format_over_holes(self, backend, tmp_path,
                                                              last):
        # each zero tail is left as a hole, which reads back as +0.0, but a
        # -0.0 in it is written; whichever cell comes last, the file ends
        # where the sequence does
        vectors = fresh_vectors(1024)
        vectors["zero-tail"] = vectors["negative-zero-inside-the-tail"].copy()
        vectors["zero-tail"][1024 * 9 // 16] = 0.0
        cts = [Ciphertext(values, 3, "key") for name, values in vectors.items()
               if name != last] + [Ciphertext(vectors[last], 2, "key")]
        path = tmp_path / "cts.lhe"
        with open(path, "xb") as fh:
            bounds = backend.save_cells(fh, cts)
        assert path.stat().st_size == len(cts) * serialized_size(1024)
        assert path.read_bytes() == serialize_many(cts)
        assert bounds == ",".join(str(ct._bound) for ct in cts)

    def test_save_cells_writes_each_cell_once(self, backend, tmp_path):
        # one write of its header and written prefix per cell, and one seek
        # past its tail
        class Recording:
            def __init__(self, fh):
                self.fh, self.calls = fh, []

            def write(self, data):
                self.calls.append(("write", len(data)))
                return self.fh.write(data)

            def seek(self, offset, whence):
                self.calls.append(("seek", offset))
                return self.fh.seek(offset, whence)

            def truncate(self):
                self.calls.append(("truncate",))
                return self.fh.truncate()

        vectors = fresh_vectors(1024)
        cts = [Ciphertext(vectors[name], 3, "key")
               for name in ("negative-zero-inside-the-tail", "all-zero", "full")]
        with open(tmp_path / "cts.lhe", "xb") as fh:
            recording = Recording(fh)
            backend.save_cells(recording, cts)
        prefix = 16 + 8 * (1024 * 9 // 16 + 1)
        assert recording.calls == [
            ("write", prefix), ("seek", serialized_size(1024) - prefix),
            ("write", 16), ("seek", 8 * 1024),
            ("write", serialized_size(1024)), ("seek", 0), ("truncate",)]

    def test_many_round_trips_as_views_of_one_buffer(self, backend, tmp_path):
        ctx = ctx8(backend)
        x = backend.encrypt(ctx, np.arange(8.0))
        cts = [x, backend.cmul(x, np.full(8, 2.0)), backend.rot(x, 3)]
        blob = serialize_many(cts)
        assert blob == b"".join(serialize(ct) for ct in cts)
        path = tmp_path / "cts.lhe"
        with open(path, "wb") as fh:
            backend.save_cells(fh, iter(cts))
        assert path.read_bytes() == blob
        buf = np.frombuffer(blob, np.uint8).copy()   # writable: its cells are read-only
        got = deserialize_many(buf, ctx)
        assert got == cts
        assert all(type(ct.level) is int for ct in got)
        for ct in got:   # no copy of its own
            assert np.shares_memory(ct.slots, buf) and not ct.slots.flags.writeable
        assert deserialize_many(b"", ctx) == []

    # The second of two serialized ciphertexts (bytes 80-159) is edited.
    @pytest.mark.parametrize("edit, error, match", [
        (lambda b: b + b"\0", ValueError, "161 bytes is not a whole number of 80-byte"),
        (lambda b: b[:-1], ValueError, "159 bytes is not a whole number of 80-byte"),
        (lambda b: b[:80] + b"XXXX" + b[84:], ValueError, "bad magic"),
        (lambda b: _put_u32(b, 92, int.from_bytes(b[92:96], "little") ^ 1),
         KeyMismatch, "different key"),
        (lambda b: _put_u32(b, 84, 4), ValueError, "holds 4 slots, expected 8"),
        (lambda b: _put_u32(b, 88, 6), ValueError, r"level 6 outside \[0, 5\]"),
    ], ids=["trailing", "truncated", "magic", "key", "slot-count", "level"])
    def test_many_rejects_a_bad_sequence(self, backend, edit, error, match):
        ctx = ctx8(backend)
        blob = serialize_many([backend.encrypt(ctx, np.zeros(8))] * 2)
        deserialize_many(blob, ctx)
        with pytest.raises(error, match=match):
            deserialize_many(edit(blob), ctx)

    # One header field of one cell of five is corrupted: (byte offset in the
    # 16-byte header, u32 written there).  The top level is 5.
    HEADER_EDITS = {
        "magic": (0, int.from_bytes(b"XXXX", "little")),
        "slot-count": (4, 4),
        "key": (12, 0),
        "level": (8, 6),
    }

    @pytest.mark.parametrize("cell", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("field", sorted(HEADER_EDITS))
    def test_many_raises_what_the_corrupt_cell_alone_raises(self, backend, field, cell):
        ctx = ctx8(backend)
        size = serialized_size(8)
        blob = serialize_many(backend.encrypt(ctx, np.full(8, float(k))) for k in range(5))
        offset, value = self.HEADER_EDITS[field]
        bad = _put_u32(blob, cell * size + offset, value)
        with pytest.raises(Exception) as alone:
            deserialize(bad[cell * size:(cell + 1) * size], ctx)
        with pytest.raises(type(alone.value)) as many:
            deserialize_many(bad, ctx)
        assert type(many.value) is type(alone.value)
        assert str(many.value) == str(alone.value)

    def test_many_reports_the_first_corrupt_cell(self, backend):
        ctx = ctx8(backend)
        size = serialized_size(8)
        blob = serialize_many([backend.encrypt(ctx, np.zeros(8))] * 4)
        blob = _put_u32(_put_u32(blob, 3 * size, 0), size + 8, 7)   # magic, then level
        with pytest.raises(ValueError, match=r"level 7 outside \[0, 5\]"):
            deserialize_many(blob, ctx)

    @pytest.mark.parametrize("cell", [0, 2, 4], ids=["first", "middle", "last"])
    def test_many_rejects_a_cut_cell_by_the_total_length(self, backend, cell):
        # A cell short of a byte makes the sequence a ragged length, whichever
        # cell it is; the cell alone fails its own length check.
        ctx = ctx8(backend)
        size = serialized_size(8)
        blob = serialize_many([backend.encrypt(ctx, np.zeros(8))] * 5)
        cut = blob[:(cell + 1) * size - 1] + blob[(cell + 1) * size:]
        with pytest.raises(ValueError, match="expected 80 bytes, got 79"):
            deserialize(cut[cell * size:(cell + 1) * size - 1], ctx)
        with pytest.raises(ValueError, match="399 bytes is not a whole number of 80-byte"):
            deserialize_many(cut, ctx)

    @staticmethod
    def map_file(tmp_path, blob, ctx):
        """The cells of ``blob`` opened from a file, each with the slot count
        as its bound."""
        path = tmp_path / "cts.lhe"
        path.write_bytes(blob)
        s = ctx.params.slot_count
        count = len(blob) // serialized_size(s)
        return SimulatorBackend().open_cells(path, ctx, count, ",".join([str(s)] * count))

    def test_map_round_trips_as_rows_of_one_mapping(self, backend, tmp_path):
        ctx = ctx8(backend)
        x = backend.encrypt(ctx, np.arange(8.0))
        cts = [x, backend.cmul(x, np.full(8, 2.0)), backend.rot(x, 3)]
        got = self.map_file(tmp_path, serialize_many(cts), ctx)
        assert got == cts
        assert all(type(ct.level) is int for ct in got)
        base = got[0].slots.base
        assert all(ct.slots.base is base and not ct.slots.flags.writeable for ct in got)
        assert self.map_file(tmp_path, b"", ctx) == []

    def test_retire_drops_only_a_mapped_row_and_changes_no_slot(
            self, backend, tmp_path):
        ctx = backend.keygen(LheParams(4096, 4), seed=6)
        x = backend.encrypt(ctx, np.random.default_rng(6).normal(size=4096))
        want = x.slots.tobytes()
        mapped = self.map_file(tmp_path, serialize_many([x] * 3), ctx)
        blob = serialize_many([x] * 2)
        writable = mmap.mmap(-1, len(blob), mmap.MAP_PRIVATE)  # DONTNEED would zero it
        writable.write(blob)
        parsed = deserialize_many(writable, ctx)
        assert all(ct == x for ct in mapped)  # every page of the file read
        smaps = os.path.exists("/proc/self/smaps")
        before = mapping_resident_kb(mapped[0].slots) if smaps else None
        for ct in (x, parsed[0], mapped[1]):  # a new buffer, a writable mapping, a row
            backend.retire(ct)
        if smaps:
            # the whole pages of row 1, bytes [size + 16, 2 * size) of the file
            page, size = os.sysconf("SC_PAGE_SIZE"), serialized_size(4096)
            inside = (2 * size // page - -(-(size + 16) // page)) * page // 1024
            assert before - mapping_resident_kb(mapped[0].slots) == inside > 0
        for ct in [x, *parsed, *mapped]:
            assert ct.slots.tobytes() == want

    @pytest.mark.parametrize("edit, match", [
        (lambda b: b + b"\0", "^cts.lhe holds 2.0125 cells of 80 bytes, the model has 2$"),
        (lambda b: b[:-1], "^cts.lhe holds 1.9875 cells of 80 bytes, the model has 1$"),
    ], ids=["trailing", "truncated"])
    def test_map_rejects_a_ragged_file(self, backend, tmp_path, edit, match):
        ctx = ctx8(backend)
        blob = serialize_many([backend.encrypt(ctx, np.zeros(8))] * 2)
        with pytest.raises(ValueError, match=match):
            self.map_file(tmp_path, edit(blob), ctx)

    @pytest.mark.parametrize("field", sorted(HEADER_EDITS))
    def test_map_raises_what_the_corrupt_cell_alone_raises(self, backend, tmp_path, field):
        ctx = ctx8(backend)
        size = serialized_size(8)
        blob = serialize_many(backend.encrypt(ctx, np.full(8, float(k))) for k in range(5))
        offset, value = self.HEADER_EDITS[field]
        bad = _put_u32(blob, 2 * size + offset, value)
        with pytest.raises(Exception) as alone:
            deserialize(bad[2 * size:3 * size], ctx)
        with pytest.raises(type(alone.value)) as mapped:
            self.map_file(tmp_path, bad, ctx)
        assert type(mapped.value) is type(alone.value)
        assert str(mapped.value) == str(alone.value)

    @pytest.mark.parametrize("got", [0, 15])
    def test_map_names_the_cell_of_a_short_header_read(self, backend, tmp_path,
                                                       monkeypatch, got):
        # The file shrank after its size was read: the third header read
        # comes back short, and the reader names that cell.
        ctx = ctx8(backend)
        blob = serialize_many([backend.encrypt(ctx, np.zeros(8))] * 5)
        pread = os.pread

        def short(fd, n, offset):
            data = pread(fd, n, offset)
            return data[:got] if offset == 2 * serialized_size(8) else data
        monkeypatch.setattr(os, "pread", short)
        with pytest.raises(ValueError, match=f"^cell 2: read {got} of its 16 header bytes"):
            self.map_file(tmp_path, blob, ctx)
