import copy
import struct
import sys
import threading
import weakref
from collections import Counter

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
    deserialize,
    deserialize_many,
    serialize,
    serialize_many,
    serialized_size,
    write_many,
)
from lhecnn.metering import PRIMITIVE_KINDS, OpMeter


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


def loop_mul_sum(backend, pairs, acc=None):
    """The per-op fold :meth:`SimulatorBackend.mul_sum` replaces."""
    for a, b in pairs:
        term = backend.mul(a, b)
        acc = term if acc is None else backend.add(acc, term)
    return acc


def loop_rotate_add(backend, ct, shifts):
    """The per-op chain :meth:`SimulatorBackend.rotate_add` replaces."""
    for s in shifts:
        ct = backend.add(ct, backend.rot(ct, s))
    return ct


def side_by_side(batched, per_op):
    """Run ``batched(backend)`` and ``per_op(backend)`` on two metered
    backends in the same scope; returns both results (or the exceptions
    they raised) and both meter deltas."""
    results = []
    for run in (batched, per_op):
        meter = OpMeter()
        backend = SimulatorBackend(meter)
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
        acc = data.draw(st.none() | index.map(pool.__getitem__), label="acc")
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs, acc), lambda b: loop_mul_sum(b, pairs, acc))
        assert_same_ct(got, want)
        assert got_counts == want_counts

    @pytest.mark.parametrize("acc_index", [None, 3, 5, 7])
    def test_single_term(self, acc_index):
        _, pool = self.operands(SimulatorBackend())
        acc = None if acc_index is None else pool[acc_index]
        pairs = [(pool[6], pool[4])]
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs, acc), lambda b: loop_mul_sum(b, pairs, acc))
        assert_same_ct(got, want)
        assert got_counts == want_counts

    def test_mul_sum_needs_a_product(self, backend):
        _, pool = self.operands(backend)
        for acc in (None, pool[0]):
            with pytest.raises(ValueError, match="at least one product"):
                backend.mul_sum([], acc)

    def test_level_exhaustion_matches_the_per_op_fold(self, backend):
        ctx, pool = self.operands(backend)
        spent = backend.encrypt(backend.keygen(LheParams(16, 1), seed=2), np.ones(16))
        assert spent.level == 0 and spent.key_id == ctx.key_id
        pairs = [(pool[0], pool[1]), (pool[3], pool[4]), (pool[2], spent), (pool[0], pool[0])]
        for acc in (None, pool[5]):
            (got, got_counts), (want, want_counts) = side_by_side(
                lambda b: b.mul_sum(pairs, acc), lambda b: loop_mul_sum(b, pairs, acc))
            assert isinstance(got, LevelExhausted) and isinstance(want, LevelExhausted)
            assert (got.op, got.level, got.scope) == (want.op, want.level, want.scope)
            assert (got.op, got.level, got.scope) == ("mul", 0, "S")
            assert got_counts == want_counts  # the terms before it were metered

    @pytest.mark.parametrize("where", ["pair", "later pair", "acc"])
    def test_key_mismatch_matches_the_per_op_fold(self, backend, where):
        _, pool = self.operands(backend)
        other = backend.encrypt(backend.keygen(LheParams(16, 8), seed=9), np.ones(16))
        pairs = [(pool[0], pool[1]), (pool[2], pool[3])]
        acc = None
        if where == "pair":
            pairs[0] = (pool[0], other)
        elif where == "later pair":
            pairs[1] = (other, other)
        else:
            acc = other
        (got, got_counts), (want, want_counts) = side_by_side(
            lambda b: b.mul_sum(pairs, acc), lambda b: loop_mul_sum(b, pairs, acc))
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

    def test_every_chain_step_rotates_through_rot(self, backend):
        calls = []

        class Counting(SimulatorBackend):
            def rot(self, a, m):
                calls.append(m)
                return super().rot(a, m)

        _, pool = self.operands(backend)
        Counting().rotate_add(pool[0], [4, -2, 0, 1])
        assert calls == [4, -2, 0, 1]

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

    def test_many_round_trips_as_views_of_one_buffer(self, backend, tmp_path):
        ctx = ctx8(backend)
        x = backend.encrypt(ctx, np.arange(8.0))
        cts = [x, backend.cmul(x, np.full(8, 2.0)), backend.rot(x, 3)]
        blob = serialize_many(cts)
        assert blob == b"".join(serialize(ct) for ct in cts)
        path = tmp_path / "cts.lhe"
        with open(path, "wb") as fh:
            write_many(fh, iter(cts))
        assert path.read_bytes() == blob
        buf = np.frombuffer(blob, np.uint8).copy()   # writable, as a loaded file is
        got = deserialize_many(buf, ctx)
        assert got == cts
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
