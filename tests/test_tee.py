import math
import struct

import numpy as np
import pytest

from lhecnn.lhe import SecrecyViolation, serialize
from lhecnn.packing import FL_TYPE1, FL_TYPE2, PackedTensor
from lhecnn.tee import (
    OP_ERROR,
    OP_LOSS_HEAD,
    OP_REENCRYPT,
    NotAttested,
    TeeSocketClient,
    TeeSocketServer,
    _recv_frame,
    _send_frame,
)

from conftest import make_tee


class TestAttestation:
    def test_first_attestation_registers(self, backend):
        tee = make_tee(backend)
        tee.attest("alice")
        assert tee.attested_parties == {"alice"}

    def test_idempotent(self, backend):
        tee = make_tee(backend)
        a = tee.attest("alice")
        b = tee.attest("alice")
        assert a.key_id == b.key_id
        assert tee.attested_parties == {"alice"}

    def test_returns_public_context_only(self, backend):
        tee = make_tee(backend)
        ctx = tee.attest("alice")
        ct = backend.encrypt(ctx, np.zeros(32))
        with pytest.raises(SecrecyViolation):
            backend.decrypt(ctx, ct)

    def test_unattested_party_rejected(self, backend):
        tee = make_tee(backend)
        ctx = tee.attest("alice")
        ct = backend.encrypt(ctx, np.zeros(32))
        with pytest.raises(NotAttested):
            tee.reencrypt_batch("mallory", [ct])


class TestReencryptBatch:
    def test_batch_restores_levels_and_counts(self, backend):
        tee = make_tee(backend, slots=8, levels=6)
        ctx = tee.attest("alice")
        a = backend.encrypt(ctx, np.arange(8.0))
        for _ in range(2):
            a = backend.cmul(a, np.ones(8))
        b = backend.encrypt(ctx, np.ones(8))
        for _ in range(5):
            b = backend.cmul(b, np.ones(8))
        assert (a.level, b.level) == (3, 0)
        out = tee.reencrypt_batch("alice", [a, b])
        assert [ct.level for ct in out] == [5, 5]
        assert np.array_equal(out[0].slots, a.slots)
        assert tee.stats.reencryptions == 2
        assert tee.stats.requests == 1

    def test_empty_batch_is_noop(self, backend):
        tee = make_tee(backend)
        tee.attest("alice")
        assert tee.reencrypt_batch("alice", []) == []
        assert tee.stats.reencryptions == 0

    def test_byte_accounting_matches_wire_format(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        cts = [backend.encrypt(ctx, np.zeros(16)) for _ in range(3)]
        out = tee.reencrypt_batch("alice", cts)
        expect_in = sum(len(serialize(ct)) for ct in cts)
        expect_out = sum(len(serialize(ct)) for ct in out)
        assert tee.stats.bytes_in == expect_in
        assert tee.stats.bytes_out == expect_out
        assert tee.stats.cts_in == 3 and tee.stats.cts_out == 3


def logits_tensor(backend, ctx, values, n, layout=FL_TYPE1):
    """Pack an (n, classes) array the way the final layer would emit it."""
    S = ctx.params.slot_count
    classes = values.shape[1]
    if layout == FL_TYPE1:
        vec = np.zeros(S)
        for w in range(classes):
            vec[w * n:(w + 1) * n] = values[:, w]
        cells = {(0,): backend.encrypt(ctx, vec)}
        return PackedTensor(cells, FL_TYPE1, n, pi_sets=S // n, neurons=classes)
    cells = {(w,): backend.encrypt(ctx, np.tile(values[:, w], S // n))
             for w in range(classes)}
    return PackedTensor(cells, FL_TYPE2, n, pi_sets=1, neurons=classes)


class TestLossHead:
    def test_uniform_logits_give_symmetric_gradient(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        logits = logits_tensor(backend, ctx, np.zeros((2, 4)), 2)
        loss, grad = tee.loss_head("alice", logits, np.array([1, 3]), 4)
        assert abs(loss - math.log(4)) < 1e-12
        slots = tee.backend.decrypt(tee._ctx, grad.cells[(0,)])
        for img, label in enumerate([1, 3]):
            for w in range(4):
                want = 0.25 - (1.0 if w == label else 0.0)
                assert abs(slots[w * 2 + img] - want) < 1e-12

    def test_closed_form_two_class_case(self, backend):
        # logits (ln 2, ln 1) with label 0: softmax (2/3, 1/3)
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        values = np.array([[math.log(2.0), 0.0]])
        logits = logits_tensor(backend, ctx, values, 1)
        loss, grad = tee.loss_head("alice", logits, np.array([0]), 2)
        assert abs(loss - (-math.log(2.0 / 3.0))) < 1e-12
        slots = tee.backend.decrypt(tee._ctx, grad.cells[(0,)])
        assert abs(slots[0] - (-1.0 / 3.0)) < 1e-12
        assert abs(slots[1] - (1.0 / 3.0)) < 1e-12

    def test_confident_correct_logits_near_zero_loss(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        values = np.array([[30.0, 0.0]])
        logits = logits_tensor(backend, ctx, values, 1)
        loss, _ = tee.loss_head("alice", logits, np.array([0]), 2)
        assert loss < 1e-12

    def test_gradient_rows_sum_to_zero(self, backend):
        tee = make_tee(backend, slots=32, levels=6)
        ctx = tee.attest("alice")
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 5))
        logits = logits_tensor(backend, ctx, values, 4)
        _, grad = tee.loss_head("alice", logits, np.array([0, 1, 2, 3]), 5)
        slots = tee.backend.decrypt(tee._ctx, grad.cells[(0,)])
        for img in range(4):
            total = sum(slots[w * 4 + img] for w in range(5))
            assert abs(total) < 1e-12

    def test_gradients_encrypted_at_top_level_and_counted(self, backend):
        tee = make_tee(backend, slots=16, levels=8)
        ctx = tee.attest("alice")
        logits = logits_tensor(backend, ctx, np.zeros((2, 3)), 2, layout=FL_TYPE2)
        before = tee.stats.reencryptions
        _, grad = tee.loss_head("alice", logits, np.array([0, 1]), 3)
        assert grad.layout == FL_TYPE2 and len(grad.cells) == 3
        assert grad.level() == 7
        assert tee.stats.reencryptions - before == 3  # one per output ciphertext

    def test_encrypted_labels_accepted(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        logits = logits_tensor(backend, ctx, np.zeros((2, 4)), 2)
        vec = np.zeros(16)
        vec[:2] = [1, 3]
        loss_ct, _ = tee.loss_head("alice", logits, backend.encrypt(ctx, vec), 4)
        loss_plain, _ = tee.loss_head("alice", logits, np.array([1, 3]), 4)
        assert abs(loss_ct - loss_plain) < 1e-12

    def test_label_out_of_range_rejected(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        logits = logits_tensor(backend, ctx, np.zeros((2, 4)), 2)
        with pytest.raises(ValueError):
            tee.loss_head("alice", logits, np.array([0, 4]), 4)

    def test_replicated_layout_roundtrip(self, backend):
        tee = make_tee(backend, slots=16, levels=6)
        ctx = tee.attest("alice")
        rng = np.random.default_rng(1)
        values = rng.normal(size=(2, 3))
        logits = logits_tensor(backend, ctx, values, 2, layout=FL_TYPE2)
        got = tee.reveal_outputs("alice", logits, 3)
        assert np.allclose(got, values, atol=0)


class TestSecrecyBoundary:
    def test_secret_context_not_reachable_from_public_api(self, backend):
        tee = make_tee(backend)
        ctx = tee.attest("alice")
        assert not ctx.secret
        assert tee.public_context().secret is False

    def test_ree_modules_cannot_decrypt(self, backend):
        from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer
        from lhecnn.oracle import init_params
        from lhecnn.refine import RefineSession

        tee = make_tee(backend, slots=32, levels=10)
        cfg = CnnConfig((ConvLayer(1, 4, 2, 2, 2),), (FcLayer(8, 3),), 4)
        sess = RefineSession(tee, cfg, tee.params, r_mode=1)
        sess.load_base_model(init_params(cfg, 0))
        ct = next(iter(sess.weights[0].cells.values()))
        with pytest.raises(SecrecyViolation):
            backend.decrypt(sess.ctx, ct)


class TestSocketTransport:
    @staticmethod
    def logits(backend, ctx, layout, values):
        """(n, classes) ``values`` packed as type I (all classes as pi-sets
        of one ciphertext) or type II (one replicated ciphertext per class)."""
        n, classes = values.shape
        if layout == FL_TYPE1:
            vec = np.zeros(16)
            vec[:n * classes] = values.T.reshape(-1)
            return PackedTensor({(0,): backend.encrypt(ctx, vec)}, FL_TYPE1, n,
                                pi_sets=16 // n, neurons=classes)
        return PackedTensor({(w,): backend.encrypt(ctx, np.tile(values[:, w], 16 // n))
                             for w in range(classes)}, FL_TYPE2, n, pi_sets=1,
                            neurons=classes)

    @pytest.mark.parametrize("layout", [FL_TYPE1, FL_TYPE2], ids=["type1", "type2"])
    def test_attest_reencrypt_and_loss_head_over_socket(self, backend, tmp_path, layout):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            client = TeeSocketClient(path, tee.public_context(), "remote")
            key_id = client.attest()
            assert key_id == tee.public_context().key_id

            ctx = tee.public_context()
            ct = backend.cmul(backend.encrypt(ctx, np.arange(16.0)), np.ones(16))
            out = client.reencrypt_batch([ct])
            assert out[0].level == 5
            assert np.array_equal(out[0].slots, np.arange(16.0))

            labels = np.array([1, 3])
            tensor = self.logits(backend, ctx, layout, np.zeros((2, 4)))
            loss, grads = client.loss_head(tensor, labels, 4)
            assert abs(loss - math.log(4)) < 1e-12
            assert len(grads) == len(tensor.cells) and grads[0].level == 5

            tensor = self.logits(backend, ctx, layout,
                                 np.random.default_rng(2).normal(size=(2, 4)))
            loss, grads = client.loss_head(tensor, labels, 4)
            client.close()
        want_loss, want = tee.loss_head("remote", tensor, labels, 4)
        assert loss == want_loss
        assert [g.slots.tobytes() for g in grads] == [g.slots.tobytes() for g in want.cts()]

    def test_multi_megabyte_batch_round_trips_exactly(self, backend, tmp_path):
        # 64 ciphertexts at S = 8192: a ~4 MB frame each way
        tee = make_tee(backend, slots=8192, levels=6)
        path = str(tmp_path / "tee.sock")
        ctx = tee.public_context()
        rng = np.random.default_rng(4)
        values = rng.normal(size=(64, 8192))
        cts = [backend.cmul(backend.encrypt(ctx, v), np.ones(8192)) for v in values]
        with TeeSocketServer(tee, path):
            client = TeeSocketClient(path, ctx, "remote")
            client.attest()
            out = client.reencrypt_batch(cts)
            client.close()
        assert len(out) == 64
        for ct, v in zip(out, values):
            assert ct.level == 5 and ct.slots.tobytes() == v.tobytes()

    def test_unattested_socket_caller_gets_error(self, backend, tmp_path):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            client = TeeSocketClient(path, tee.public_context(), "mallory")
            ct = backend.encrypt(tee.public_context(), np.zeros(16))
            with pytest.raises(RuntimeError, match="not attested"):
                client.reencrypt_batch([ct])
            client.close()

    def test_client_rejects_labels_wider_than_a_byte(self, backend, tmp_path):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            ctx = tee.public_context()
            client = TeeSocketClient(path, ctx, "remote")
            client.attest()
            tensor = PackedTensor({(0,): backend.encrypt(ctx, np.zeros(16))}, FL_TYPE1, 2,
                                  pi_sets=8, neurons=300)
            # label 300 would arrive as 300 % 256 = 44, a valid class
            with pytest.raises(ValueError, match="300 classes"):
                client.loss_head(tensor, np.array([300, 1]), 300)
            assert client.attest() == ctx.key_id  # nothing was half-sent
            client.close()

    def test_server_rejects_unknown_layout_code(self, backend, tmp_path):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            ctx = tee.public_context()
            client = TeeSocketClient(path, ctx, "remote")
            client.attest()
            party = b"remote"
            payload = (bytes([len(party)]) + party + struct.pack("<IIII", 2, 4, 3, 1)
                       + serialize(backend.encrypt(ctx, np.zeros(16))) + bytes([1, 3]))
            _send_frame(client._sock, OP_LOSS_HEAD, payload)
            opcode, body = _recv_frame(client._sock)
            assert opcode == OP_ERROR
            assert b"layout code 3" in body
            client.close()

    def test_ragged_reencrypt_blob_gets_an_error_and_the_connection_keeps_serving(
            self, backend, tmp_path):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            ctx = tee.public_context()
            client = TeeSocketClient(path, ctx, "remote")
            client.attest()
            party = b"remote"
            blob = serialize(backend.encrypt(ctx, np.zeros(16))) * 2
            _send_frame(client._sock, OP_REENCRYPT,
                        bytes([len(party)]) + party + blob[:-8])
            opcode, body = _recv_frame(client._sock)
            assert opcode == OP_ERROR
            assert b"280 bytes is not a whole number of 144-byte ciphertexts" in body
            assert tee.stats.requests == 0   # rejected before the service ran
            ct = backend.encrypt(ctx, np.ones(16))
            assert client.reencrypt_batch([ct]) == [ct]   # same connection, still in step
            client.close()

    def test_server_rejects_a_frame_short_of_its_labels(self, backend, tmp_path):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            ctx = tee.public_context()
            client = TeeSocketClient(path, ctx, "remote")
            client.attest()
            party = b"remote"
            payload = (bytes([len(party)]) + party + struct.pack("<IIII", 8, 4, 1, 1)
                       + serialize(backend.encrypt(ctx, np.zeros(16))) + bytes([1, 3]))
            _send_frame(client._sock, OP_LOSS_HEAD, payload)
            opcode, body = _recv_frame(client._sock)
            assert opcode == OP_ERROR
            assert b"expected 8 labels" in body
            client.close()

    def test_empty_frame_gets_an_error_and_the_connection_keeps_serving(
            self, backend, tmp_path, capsys):
        tee = make_tee(backend, slots=16, levels=6)
        path = str(tmp_path / "tee.sock")
        with TeeSocketServer(tee, path):
            ctx = tee.public_context()
            client = TeeSocketClient(path, ctx, "remote")
            client._sock.sendall(struct.pack("<I", 0))  # a header with no opcode
            opcode, body = _recv_frame(client._sock)
            assert opcode == OP_ERROR and b"empty frame" in body
            assert client.attest() == ctx.key_id  # same connection, still in step
            client.close()
            other = TeeSocketClient(path, ctx, "remote")
            assert other.attest() == ctx.key_id
            other.close()
        assert "Traceback" not in capsys.readouterr().err
