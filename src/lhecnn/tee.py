"""Simulated trusted execution environment.

The service is the sole holder of the decryption capability: untrusted code
receives only a public key context and interacts through attestation,
re-encryption, the plaintext loss head, and result revelation.  Every
ciphertext crossing the boundary is counted (ciphertexts, and bytes as the
backend's ``wire_size`` gives them, each way).

An optional local-socket mode exposes the same operations over a Unix domain
socket with length-prefixed frames.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, fields

import numpy as np

from .lhe import (
    Ciphertext,
    KeyContext,
    LheParams,
    SimulatorBackend,
    deserialize_many,
    serialize_many,
    serialized_size,
)
from .packing import FL_TYPE1, FL_TYPE2, PackedTensor

OP_REENCRYPT = 0x01
OP_LOSS_HEAD = 0x02
OP_ATTEST = 0x03
OP_ERROR = 0xFF


class NotAttested(PermissionError):
    """A party invoked a TEE service without completing attestation."""


@dataclass
class BoundaryStats:
    """Counters for REE <-> TEE traffic."""

    cts_in: int = 0
    cts_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    reencryptions: int = 0   # individual ciphertexts refreshed (incl. loss-head outputs)
    requests: int = 0

    def snapshot(self) -> "BoundaryStats":
        return BoundaryStats(**vars(self))

    def since(self, before: "BoundaryStats") -> "BoundaryStats":
        """Traffic counted after ``before`` was taken, field by field."""
        return BoundaryStats(**{f.name: getattr(self, f.name) - getattr(before, f.name)
                                for f in fields(self)})


class TeeService:
    """Key custody, re-encryption, and the plaintext loss head.

    Requests are serialized through one lock (a single logical enclave
    thread); callers may be concurrent.
    """

    def __init__(self, backend: SimulatorBackend, params: LheParams,
                 seed: int | None = None):
        self.backend = backend
        self._ctx = backend.keygen(params, seed)  # secret context, never exported
        self.params = params
        self.stats = BoundaryStats()
        self._parties: set[str] = set()
        self._lock = threading.Lock()

    # -- attestation and key distribution -----------------------------------

    def attest(self, party_id: str) -> KeyContext:
        """Stub attestation handshake: always succeeds, registers the party,
        and hands back public key material (idempotent)."""
        with self._lock:
            self._parties.add(party_id)
        return self._ctx.public()

    def public_context(self) -> KeyContext:
        """Public key material without the decryption capability."""
        return self._ctx.public()

    @property
    def attested_parties(self) -> frozenset[str]:
        return frozenset(self._parties)

    def _require(self, party_id: str) -> None:
        if party_id not in self._parties:
            raise NotAttested(f"party {party_id!r} has not attested")

    def _count_in(self, cts) -> None:
        self.stats.cts_in += len(cts)
        self.stats.bytes_in += sum(map(self.backend.wire_size, cts))

    def _count_out(self, cts) -> None:
        self.stats.cts_out += len(cts)
        self.stats.bytes_out += sum(map(self.backend.wire_size, cts))

    # -- services ------------------------------------------------------------

    def reencrypt_batch(self, party_id: str, cts: list[Ciphertext]) -> list[Ciphertext]:
        """Refresh each ciphertext to the top level (decrypt + encrypt inside)."""
        self._require(party_id)
        with self._lock:
            self.stats.requests += 1
            self._count_in(cts)
            out = [self.backend.reencrypt(self._ctx, ct) for ct in cts]
            self._count_out(out)
            self.stats.reencryptions += len(out)
            return out

    def loss_head(self, party_id: str, logits: PackedTensor, labels,
                  class_count: int) -> tuple[float, PackedTensor]:
        """Softmax cross-entropy over the decrypted logits.

        ``labels`` may be a ciphertext (one label value per image slot) or a
        plain integer array.  Returns the scalar mean loss and the per-image
        gradient (softmax - one-hot), repacked in the logits' layout and
        encrypted at the top level.  The gradient ciphertexts count as
        re-encryptions: each is a fresh encryption of decrypted data.
        """
        self._require(party_id)
        with self._lock:
            self.stats.requests += 1
            self._count_in(logits.cts())
            if isinstance(labels, Ciphertext):
                self._count_in([labels])
                vec = self.backend.decrypt(self._ctx, labels)
                labels = np.rint(vec[:logits.n]).astype(int)
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (logits.n,):
                raise ValueError(f"expected {logits.n} labels")
            if labels.min() < 0 or labels.max() >= class_count:
                raise ValueError(f"label outside [0, {class_count})")

            values = self._decode_outputs(logits, class_count)
            shifted = values - values.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            probs = exp / exp.sum(axis=1, keepdims=True)
            loss = float(-np.log(probs[np.arange(logits.n), labels]).mean())
            grad = probs
            grad[np.arange(logits.n), labels] -= 1.0

            out = self._encode_outputs(grad, logits)
            self._count_out(out.cts())
            self.stats.reencryptions += len(out.cells)
            return loss, out

    def reveal_outputs(self, party_id: str, logits: PackedTensor,
                       class_count: int) -> np.ndarray:
        """Decrypt final outputs for the data provider: (n, classes)."""
        self._require(party_id)
        with self._lock:
            self.stats.requests += 1
            self._count_in(logits.cts())
            return self._decode_outputs(logits, class_count)

    # -- layout bridges ------------------------------------------------------

    # Logits layouts: neuron ``j*p + w`` sits in pi-set ``w`` of cell ``(j,)``,
    # with ``p = tensor.pi_sets`` (S/n for type I, 1 for type II, whose one
    # pi-set is replicated over the ciphertext).

    def _decode_outputs(self, tensor: PackedTensor, classes: int) -> np.ndarray:
        if tensor.layout not in (FL_TYPE1, FL_TYPE2):
            raise ValueError(f"not a fully-connected output layout: {tensor.layout}")
        n, p = tensor.n, tensor.pi_sets
        neurons = [self.backend.decrypt(self._ctx, tensor.cells[(j,)])[:p * n]
                   for j in range(len(tensor.cells))]
        return np.concatenate(neurons).reshape(-1, n)[:classes].T.copy()

    def _encode_outputs(self, grad: np.ndarray, like: PackedTensor) -> PackedTensor:
        n, classes = grad.shape
        p, count = like.pi_sets, len(like.cells)
        neurons = np.zeros((count * p, n))
        neurons[:classes] = grad.T
        reps = self.params.slot_count // (p * n)
        cells = {}
        for j in range(count):
            block = neurons[j * p:(j + 1) * p].reshape(-1)
            cells[(j,)] = self.backend.encrypt(self._ctx, np.tile(block, reps))
        return PackedTensor(cells, like.layout, n, pi_sets=p)


# ---------------------------------------------------------------------------
# Optional local-socket transport
# ---------------------------------------------------------------------------

_LEN = struct.Struct("<I")


def _send_frame(sock: socket.socket, opcode: int, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload) + 1) + bytes([opcode]) + payload)


_RECV_START = 1 << 16
_ZEROS = bytes(_RECV_START)


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    """Exactly ``count`` bytes, received in place.  The buffer doubles as data
    arrives, so a frame costs time linear in its length and a length header
    alone reserves no more than the first 64 KB.  It grows by a 64 KB zero
    block at a time, so no temporary as large as the growth sits beside it."""
    buf = bytearray(min(count, _RECV_START))
    got = 0
    while got < count:
        if got == len(buf):
            grow = min(got, count - got)
            for done in range(0, grow, _RECV_START):
                buf += _ZEROS[:grow - done]
        with memoryview(buf) as view:
            received = sock.recv_into(view[got:])
        if not received:
            raise ConnectionError("peer closed")
        got += received
    return buf


def _recv_frame(sock: socket.socket) -> tuple[int, bytearray]:
    """One frame's opcode and payload.  The opcode is received on its own, so
    the payload is the receive buffer itself, never copied.  A zero-length
    frame, which lacks even the opcode, raises ``ValueError``; the next frame
    starts right after its header, so the stream stays in step."""
    (length,) = _LEN.unpack(_recv_exact(sock, 4))
    if not length:
        raise ValueError("empty frame: no opcode")
    opcode = _recv_exact(sock, 1)[0]
    return opcode, _recv_exact(sock, length - 1)


class _TeeHandler(socketserver.BaseRequestHandler):
    def handle(self):
        service: TeeService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                opcode, payload = _recv_frame(self.request)
            except ConnectionError:
                return
            except ValueError as exc:
                _send_frame(self.request, OP_ERROR, str(exc).encode())
                continue
            try:
                if opcode == OP_ATTEST:
                    ctx = service.attest(payload.decode())
                    _send_frame(self.request, OP_ATTEST, ctx.key_id.encode())
                elif opcode == OP_REENCRYPT:
                    party_len = payload[0]
                    party = payload[1:1 + party_len].decode()
                    cts = deserialize_many(memoryview(payload)[1 + party_len:],
                                           service._ctx)
                    out = service.reencrypt_batch(party, cts)
                    _send_frame(self.request, OP_REENCRYPT, serialize_many(out))
                elif opcode == OP_LOSS_HEAD:
                    _handle_loss_head(self.request, service, payload)
                else:
                    _send_frame(self.request, OP_ERROR, b"bad opcode")
            except Exception as exc:  # surface service errors to the client
                _send_frame(self.request, OP_ERROR, str(exc).encode())


def _handle_loss_head(sock, service: TeeService, payload: bytes):
    party_len = payload[0]
    party = payload[1:1 + party_len].decode()
    off = 1 + party_len
    n, classes, layout_code, ct_count = struct.unpack_from("<IIII", payload, off)
    if layout_code not in (1, 2):
        raise ValueError(f"unknown logits layout code {layout_code}")
    # the logits ciphertexts, then one label byte per image
    end = min(off + 16 + ct_count * serialized_size(service.params.slot_count), len(payload))
    cts = deserialize_many(memoryview(payload)[off + 16:end], service._ctx)
    labels = np.frombuffer(payload, dtype=np.uint8, offset=end).astype(int)
    if layout_code == 1:
        layout, pi_sets = FL_TYPE1, service.params.slot_count // n
    else:
        layout, pi_sets = FL_TYPE2, 1
    tensor = PackedTensor({(j,): ct for j, ct in enumerate(cts)}, layout, n, pi_sets=pi_sets)
    loss, grads = service.loss_head(party, tensor, labels, classes)
    _send_frame(sock, OP_LOSS_HEAD, struct.pack("<d", loss) + serialize_many(grads.cts()))


class TeeSocketServer:
    """Serve a :class:`TeeService` over a Unix domain socket."""

    def __init__(self, service: TeeService, path: str):
        self.path = path

        class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
            daemon_threads = True

        self._server = _Server(path, _TeeHandler)
        self._server.service = service  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()


class TeeSocketClient:
    """Client for the socket transport: attestation, re-encryption and the
    loss head of :class:`TeeService`, as the party named at construction, so
    no method takes a party.  It has no ``reveal_outputs``.  Its
    :meth:`loss_head` takes plaintext labels (one byte each) and returns the
    loss and the gradient ciphertexts as a list, in the order of
    ``logits.cts()``, not as a :class:`PackedTensor`.

    The connect and every send and receive wait at most :attr:`TIMEOUT`
    seconds, far above any reply the simulated service takes (milliseconds,
    even for the largest re-encryption batch of a refining round), so only a
    stalled or hung server reaches it.  A request that gets no reply within
    it raises ``TimeoutError`` and closes the client, since a late reply
    would otherwise be read as the answer to the next request.
    """

    TIMEOUT = 60.0

    def __init__(self, path: str, ctx: KeyContext, party_id: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(self.TIMEOUT)
            self._sock.connect(path)
        except BaseException:
            self._sock.close()
            raise
        self._ctx = ctx
        self.party = party_id

    def close(self):
        self._sock.close()

    def _call(self, opcode: int, payload: bytes) -> bytearray:
        """Send one request and return the payload of its reply."""
        try:
            _send_frame(self._sock, opcode, payload)
            reply, body = _recv_frame(self._sock)
        except TimeoutError:
            self.close()
            raise TimeoutError(f"no reply from the TEE within {self.TIMEOUT} s") from None
        self._check(reply, opcode, body)
        return body

    def attest(self) -> str:
        return self._call(OP_ATTEST, self.party.encode()).decode()

    def reencrypt_batch(self, cts: list[Ciphertext]) -> list[Ciphertext]:
        """Refresh ``cts`` through the service; raises ValueError, naming both
        counts, unless the reply holds one ciphertext per ciphertext sent."""
        party = self.party.encode()
        body = self._call(OP_REENCRYPT, bytes([len(party)]) + party + serialize_many(cts))
        out = deserialize_many(body, self._ctx)
        if len(out) != len(cts):
            raise ValueError(f"re-encryption reply holds {len(out)} ciphertexts "
                             f"for {len(cts)} sent")
        return out

    def loss_head(self, logits: PackedTensor, labels: np.ndarray,
                  classes: int) -> tuple[float, list[Ciphertext]]:
        if classes > 256:
            raise ValueError(f"{classes} classes do not fit the one-byte label encoding")
        party = self.party.encode()
        layout_code = 1 if logits.layout == FL_TYPE1 else 2
        cts = logits.cts()
        payload = (bytes([len(party)]) + party
                   + struct.pack("<IIII", logits.n, classes, layout_code, len(cts))
                   + serialize_many(cts)
                   + np.asarray(labels, dtype=np.uint8).tobytes())
        body = self._call(OP_LOSS_HEAD, payload)
        (loss,) = struct.unpack_from("<d", body)
        return loss, deserialize_many(memoryview(body)[8:], self._ctx)

    @staticmethod
    def _check(opcode: int, expected: int, payload: bytes) -> None:
        if opcode == OP_ERROR:
            raise RuntimeError(f"TEE error: {payload.decode(errors='replace')}")
        if opcode != expected:
            raise RuntimeError(f"unexpected opcode {opcode:#x}")
