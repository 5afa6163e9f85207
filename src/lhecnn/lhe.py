"""Slot-vector leveled homomorphic encryption, exact plaintext-simulator backend.

A ciphertext is a vector of ``S`` real slots plus an encryption-level counter.
All arithmetic is elementwise across slots (SIMD); ciphertext-ciphertext and
ciphertext-plaintext multiplications each consume one level, addition and
rotation are free, and re-encryption restores a ciphertext to the top level.

The simulator computes slot values exactly in double precision, so algorithm
correctness can be asserted bit-for-bit while level bookkeeping mirrors a real
leveled scheme.  The optional ``noise_sigma`` adds Gaussian noise to the slots
at ``encrypt`` and ``reencrypt`` only (it defaults to off); the homomorphic
primitives add no error of their own.

Rotation copies nothing in the simulator: a rotated ciphertext shares its
operand's slot array and records a shift, which ``add`` and ``mul`` read
directly.  It is still metered as one ``rot`` at the operand's meter level,
as a real key-switching rotation would be.

Slot buffers are recycled.  Every primitive that makes new slots (all but
``rot`` and ``decrypt``) writes into a buffer from its backend's free list,
and a buffer returns to that list when the last ciphertext holding it (the
one it was made for, or a rotation sharing it) is dropped, so a steady
pipeline reuses its working set instead of allocating and page-faulting it
anew on every pass.  An array anyone else still holds (``ct.slots``, or a
slice or view of it) is never reused, nor is an array passed to the public
:class:`Ciphertext` constructor or read by :func:`deserialize`.  The free
lists belong to the backend alone: it keeps its peak working set in them
until it is dropped, and a result that outlives it releases its buffer as
usual.

Two batched primitives run the pipeline's hot patterns with fewer Python
calls and the same arithmetic: ``mul_sum`` is the left fold of products
``acc + a0*b0 + a1*b1 + ...`` (kernel windows, weight rows), and
``rotate_add`` is a chain ``v <- v + rot(v, s)`` over a list of shifts (batch
sums, spreads, folds).  Each gives the slots, level and rescale flag of the
per-op loop it stands for, and meters the same ops at the same levels: one
``mul`` per product and one ``add`` per sum, recorded in batches, and one
``rot`` per chain step, each issued through :meth:`SimulatorBackend.rot`.

Level accounting for the meter follows lazy rescaling: the product of a
multiplication stays at its operands' modulus level until the next
multiplication rescales it, so additions and rotations applied to a
just-produced product physically run one level above the product's remaining
budget.  Ciphertexts carry this as :attr:`Ciphertext.pending_rescale`; the
``level`` field itself is always the remaining multiplicative budget.
"""

from __future__ import annotations

import secrets
import struct
import sys
import weakref
import zlib
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .metering import OpMeter

MAGIC = b"LHE1"
HEADER = struct.Struct("<4sIII")  # magic, slot count, level, key hash


class LheError(Exception):
    """Base class for simulator errors."""


class LevelExhausted(LheError):
    """A level-consuming operation was attempted on a level-0 ciphertext."""

    def __init__(self, op: str, level: int, scope: str = ""):
        self.op = op
        self.level = level
        self.scope = scope
        where = f" in scope {scope!r}" if scope else ""
        super().__init__(f"{op} needs level >= 1, operand at level {level}{where}")


class KeyMismatch(LheError):
    """Operands or context carry different key identities."""


class SecrecyViolation(LheError):
    """A secret-key operation was attempted with a public-only context."""


@dataclass(frozen=True)
class LheParams:
    """Scheme parameters: slot count S (power of two), level count L, noise."""

    slot_count: int
    max_level: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        s = self.slot_count
        if s < 2 or s & (s - 1):
            raise ValueError(f"slot_count must be a power of two >= 2, got {s}")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    @property
    def top_level(self) -> int:
        return self.max_level - 1


@dataclass(frozen=True)
class KeyContext:
    """Key identity for one key generation.

    The simulator holds no cryptographic material; ``key_id`` distinguishes
    independent generations and ``secret`` gates decryption/re-encryption.
    :meth:`public` strips the secret capability for handing to untrusted code.
    """

    params: LheParams
    key_id: str
    secret: bool = True
    _rng: np.random.Generator = field(default=None, repr=False, compare=False)

    def public(self) -> "KeyContext":
        return replace(self, secret=False)

    @property
    def key_hash(self) -> int:
        return zlib.crc32(self.key_id.encode())


def _alone_counts(getrefcount=sys.getrefcount) -> tuple[int, int]:
    """The reference counts :meth:`Ciphertext.__del__` reads for a pooled
    buffer nobody else holds: of a view held in one slot and copied to a
    local name, and of that view's owner.  Measured here with the same access
    pattern, so the test matches this interpreter's own counting."""
    holder = [np.empty(1).view()]
    base = holder[0]
    return getrefcount(base), getrefcount(base.base)


_VIEW_ALONE, _OWNER_ALONE = _alone_counts()


class Ciphertext:
    """Immutable slot vector with remaining-level budget and key identity.

    The vector is held as a base array plus a cyclic left shift, so a rotation
    shares its operand's array instead of copying it.  :attr:`slots` is the
    rotated vector; it is built on each read of a shifted ciphertext and is
    read-only either way.
    """

    __slots__ = ("_base", "_shift", "level", "key_id", "pending_rescale")
    _free = None  # no free list: the base array is released as usual

    def __init__(self, slots: np.ndarray, level: int, key_id: str,
                 pending_rescale: bool = False):
        slots.setflags(write=False)
        _set_base(self, slots)
        _set_shift(self, 0)
        _set_level(self, level)
        _set_key_id(self, key_id)
        _set_pending(self, pending_rescale)

    def __setattr__(self, name, value):
        raise AttributeError(f"Ciphertext is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Ciphertext is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Ciphertext, (self.slots, self.level, self.key_id, self.pending_rescale)

    def __repr__(self):
        return (f"Ciphertext(slots={self.slots!r}, level={self.level}, "
                f"key_id={self.key_id!r}, pending_rescale={self.pending_rescale})")

    def __eq__(self, other):
        return (
            isinstance(other, Ciphertext)
            and self.level == other.level
            and self.key_id == other.key_id
            and np.array_equal(self.slots, other.slots)
        )

    @property
    def slots(self) -> np.ndarray:
        base, shift = self._base, self._shift
        if not shift:
            return base
        out = np.concatenate((base[shift:], base[:shift]))
        out.setflags(write=False)
        return out

    @property
    def slot_count(self) -> int:
        return self._base.shape[0]

    def meter_level(self) -> int:
        """Level at which an add/rotate on this ciphertext physically runs."""
        return self.level + (1 if self.pending_rescale else 0)


class _FreeList(list):
    """Recycled slot buffers of one slot count, owned by one backend.  Its
    ciphertexts reach it only through :attr:`ref`, so it goes when the
    backend does."""

    __slots__ = ("ref", "__weakref__")

    def __init__(self):
        super().__init__()
        self.ref = weakref.ref(self)


class _Pooled(Ciphertext):
    """A ciphertext over a buffer from a backend's free list: the one it was
    made for, or a rotation sharing it."""

    __slots__ = ("_free",)  # weak reference to the free list

    def __del__(self, getrefcount=sys.getrefcount, view_alone=_VIEW_ALONE,
                owner_alone=_OWNER_ALONE):
        # The base is a pooled read-only view of a writable owner array.  It
        # is free once this slot and the local name are the view's only
        # references, and the view the owner's only one: numpy points a
        # caller's slices of ``slots`` at the owner, not at the view.
        free = self._free()
        if free is not None:
            base = self._base
            if getrefcount(base) == view_alone and getrefcount(base.base) == owner_alone:
                free.append(base)


_new = object.__new__
_set_base = Ciphertext._base.__set__
_set_shift = Ciphertext._shift.__set__
_set_level = Ciphertext.level.__set__
_set_key_id = Ciphertext.key_id.__set__
_set_pending = Ciphertext.pending_rescale.__set__
_set_free = _Pooled._free.__set__


def _make(base: np.ndarray, shift: int, level: int, key_id: str,
          pending_rescale: bool, free: weakref.ref | None) -> Ciphertext:
    """A ciphertext over ``base`` (already read-only) rotated left by ``shift``;
    ``base`` returns to the free list ``free`` refers to, if any, when its
    last holder is dropped."""
    if free is None:
        ct = _new(Ciphertext)
    else:
        ct = _new(_Pooled)
        _set_free(ct, free)
    _set_base(ct, base)
    _set_shift(ct, shift)
    _set_level(ct, level)
    _set_key_id(ct, key_id)
    _set_pending(ct, pending_rescale)
    return ct


def _buffer(pools: defaultdict, n: int) -> tuple[np.ndarray, np.ndarray, weakref.ref]:
    """A slot buffer of length ``n``: its writable owner, the read-only view a
    ciphertext holds, and a reference to the free list the view returns to."""
    free = pools[n]
    try:
        view = free.pop()
    except IndexError:
        owner = np.empty(n)
        view = owner.view()
        view.setflags(write=False)
        return owner, view, free.ref
    return view.base, view, free.ref


def _into(ufunc, x: np.ndarray, sx: int, y: np.ndarray, sy: int,
          out: np.ndarray) -> None:
    """``ufunc`` of ``x`` rotated left by ``sx`` and ``y`` rotated left by
    ``sy``, written into ``out``.

    The output is split at the operands' wrap points into at most three
    segments over which both arrays are contiguous, so no rotation is copied.
    ``ufunc`` is ``np.add`` or ``np.multiply``, which are commutative bit for
    bit, so the operands may be swapped to put the smaller shift first.
    """
    if sx == sy == 0:
        ufunc(x, y, out)
        return
    n = out.shape[0]
    if sx > sy:
        x, sx, y, sy = y, sy, x, sx
    wrap_y, wrap_x = n - sy, n - sx
    ufunc(x[sx:sx + wrap_y], y[sy:], out[:wrap_y])
    if sx != sy:
        ufunc(x[sx + wrap_y:], y[:sy - sx], out[wrap_y:wrap_x])
    if sx:
        ufunc(x[:sx], y[sy - sx:sy], out[wrap_x:])


def _check_pair(a: Ciphertext, b: Ciphertext) -> None:
    """Operands of one elementwise op share a key and a slot count."""
    if a.key_id != b.key_id:
        raise KeyMismatch(f"operands under different keys: {a.key_id} vs {b.key_id}")
    if a._base.shape[0] != b._base.shape[0]:
        raise ValueError(f"slot count mismatch: {a._base.shape[0]} vs {b._base.shape[0]}")


def _elementwise(ufunc, a: Ciphertext, b: Ciphertext,
                 pools: defaultdict) -> tuple[np.ndarray, weakref.ref]:
    """``ufunc(a.slots, b.slots)`` computed on the shifted bases into a buffer
    from ``pools``; returns the buffer's view and free-list reference."""
    _check_pair(a, b)
    out, view, free = _buffer(pools, a._base.shape[0])
    _into(ufunc, a._base, a._shift, b._base, b._shift, out)
    return view, free


def as_slots(values, slot_count: int) -> np.ndarray:
    """Coerce ``values`` to a float64 vector of exactly ``slot_count`` slots."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.shape[0] != slot_count:
        raise ValueError(f"expected {slot_count} slots, got {arr.shape[0]}")
    return arr


class SimulatorBackend:
    """Exact plaintext simulator implementing the primitive contracts.

    All operations are pure with respect to their ciphertext arguments.  The
    shared mutable state is the optional :class:`OpMeter` and the free lists
    of recycled slot buffers, one per slot count, which are only appended to
    and popped from (both atomic).  A real CKKS backend can replace this class
    behind the same method surface.
    """

    def __init__(self, meter: OpMeter | None = None):
        self.meter = meter
        self._free: defaultdict[int, _FreeList] = defaultdict(_FreeList)

    # -- internals --------------------------------------------------------

    def _record(self, kind: str, level: int) -> None:
        if self.meter is not None:
            self.meter.record(kind, level)

    def _scope(self) -> str:
        return self.meter.current_scope if self.meter is not None else ""

    def _fresh(self, ctx: KeyContext, values: np.ndarray) -> Ciphertext:
        """A top-level ciphertext of ``values``, perturbed when noise is on."""
        out, view, free = _buffer(self._free, values.shape[0])
        sigma = ctx.params.noise_sigma
        if sigma > 0 and ctx._rng is not None:
            np.add(values, ctx._rng.normal(0.0, sigma, size=values.shape), out)
        else:
            np.copyto(out, values)
        return _make(view, 0, ctx.params.top_level, ctx.key_id, False, free)

    # -- key management and data boundary ----------------------------------

    def keygen(self, params: LheParams, seed: int | None = None) -> KeyContext:
        """Fresh key identity; deterministic when ``seed`` is given."""
        if seed is None:
            key_id = f"key-{secrets.token_hex(8)}"
            rng = np.random.default_rng()
        else:
            key_id = f"key-{seed:016x}"
            rng = np.random.default_rng(seed)
        return KeyContext(params=params, key_id=key_id, _rng=rng)

    def encrypt(self, ctx: KeyContext, values) -> Ciphertext:
        values = as_slots(values, ctx.params.slot_count)
        self._record("encrypt", ctx.params.top_level)
        return self._fresh(ctx, values)

    def decrypt(self, ctx: KeyContext, ct: Ciphertext) -> np.ndarray:
        """Recover the slot vector; works at any level, requires the secret key."""
        if not ctx.secret:
            raise SecrecyViolation("decryption requires the secret key context")
        if ct.key_id != ctx.key_id:
            raise KeyMismatch(f"ciphertext under {ct.key_id}, context {ctx.key_id}")
        self._record("decrypt", ct.level)
        return ct.slots.copy()

    def reencrypt(self, ctx: KeyContext, ct: Ciphertext) -> Ciphertext:
        """Decrypt-then-encrypt: same slots, level restored to L-1."""
        if not ctx.secret:
            raise SecrecyViolation("re-encryption requires the secret key context")
        if ct.key_id != ctx.key_id:
            raise KeyMismatch(f"ciphertext under {ct.key_id}, context {ctx.key_id}")
        self._record("reencrypt", ct.level)
        return self._fresh(ctx, ct.slots)

    # -- homomorphic primitives --------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Elementwise sum; level = min of operand levels."""
        view, free = _elementwise(np.add, a, b, self._free)
        la, lb, pa, pb = a.level, b.level, a.pending_rescale, b.pending_rescale
        meter = self.meter
        if meter is not None:
            meter.record("add", min(la + pa, lb + pb))
        # Adding a rescaled operand to an unrescaled one aligns scales first,
        # so the sum stays unrescaled only when both operands are.
        return _make(view, 0, min(la, lb), a.key_id, pa and pb, free)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Elementwise ciphertext product; consumes one level."""
        level = min(a.level, b.level)
        view, free = _elementwise(np.multiply, a, b, self._free)
        if level < 1:
            raise LevelExhausted("mul", level, self._scope())
        meter = self.meter
        if meter is not None:
            meter.record("mul", level)
        return _make(view, 0, level - 1, a.key_id, True, free)

    def cmul(self, a: Ciphertext, pt) -> Ciphertext:
        """Elementwise plaintext product; consumes one level."""
        level = a.level
        if level < 1:
            raise LevelExhausted("cmul", level, self._scope())
        n = a._base.shape[0]
        vec = as_slots(pt, n)
        meter = self.meter
        if meter is not None:
            meter.record("cmul", level)
        out, view, free = _buffer(self._free, n)
        np.multiply(a.slots, vec, out)
        return _make(view, 0, level - 1, a.key_id, True, free)

    def rot(self, a: Ciphertext, m: int) -> Ciphertext:
        """Cyclic left rotation by ``m`` slots (negative = right); level unchanged.

        The result shares ``a``'s slot array and composes the shift, so no
        slots are copied; it is still metered as one rotation.
        """
        base, level, pending = a._base, a.level, a.pending_rescale
        shift = (a._shift + m) % base.shape[0]
        meter = self.meter
        if meter is not None:
            meter.record("rot", level + pending)
        return _make(base, shift, level, a.key_id, pending, a._free)

    # -- batched primitives ------------------------------------------------

    def mul_sum(self, pairs: Iterable[tuple[Ciphertext, Ciphertext]],
                acc: Ciphertext | None = None) -> Ciphertext:
        """``acc + a0*b0 + a1*b1 + ...`` over the ``(a, b)`` pairs, as the
        left fold of :meth:`mul` and :meth:`add` (from ``a0*b0`` when ``acc``
        is None), with that fold's slots, level, rescale flag and meter
        counts: a ``mul`` at ``min(a.level, b.level)`` per product and an
        ``add`` per sum at the level :meth:`add` records.  It raises what the
        fold raises, at the same term, after metering the terms before it.

        The products go through one scratch buffer and are summed in place
        into the result's buffer.
        """
        pools, counts = self._free, {}
        ref = acc  # the operand each later term is added to, for its checks
        if acc is not None:
            level, pending = acc.level, acc.pending_rescale
        out = tmp = None
        try:
            for a, b in pairs:
                _check_pair(a, b)
                lab = min(a.level, b.level)
                if lab < 1:
                    raise LevelExhausted("mul", lab, self._scope())
                key = ("mul", lab)
                counts[key] = counts.get(key, 0) + 1
                if ref is None:
                    ref = a
                else:
                    _check_pair(ref, a)
                if out is None:
                    out, view, free = _buffer(pools, a._base.shape[0])
                    _into(np.multiply, a._base, a._shift, b._base, b._shift, out)
                    if acc is None:  # the first product starts the sum
                        level, pending = lab - 1, True
                        continue
                    _into(np.add, acc._base, acc._shift, out, 0, out)
                else:
                    if tmp is None:
                        tmp, tmp_view, _ = _buffer(pools, out.shape[0])
                    _into(np.multiply, a._base, a._shift, b._base, b._shift, tmp)
                    np.add(out, tmp, out)
                # the product runs one level above its remaining budget ``lab - 1``
                key = ("add", min(level + pending, lab))
                counts[key] = counts.get(key, 0) + 1
                level = min(level, lab - 1)
        finally:
            meter = self.meter
            if meter is not None:
                for (kind, lv), c in counts.items():
                    meter.record_many(kind, lv, c)
        if out is None:
            raise ValueError("mul_sum needs at least one product")
        if tmp is not None:
            pools[out.shape[0]].append(tmp_view)
        return _make(view, 0, level, ref.key_id, pending, free)

    def rotate_add(self, ct: Ciphertext, shifts: Sequence[int]) -> Ciphertext:
        """``v <- v + rot(v, s)`` for each shift ``s`` in turn, from ``v = ct``:
        the chain of :meth:`rot` and :meth:`add` calls, with its slots, level
        and meter counts.

        Every step issues its rotation through :meth:`rot` (on ``ct``, whose
        level and rescale flag every step shares), so the meter and any
        subclass see one ``rot`` per step; the adds are metered together.
        The steps write into two buffers in turn.
        """
        if not shifts:
            return ct
        n = ct._base.shape[0]
        bufs = [_buffer(self._free, n) for _ in range(min(len(shifts), 2))]
        x, sx = ct._base, ct._shift
        for step, s in enumerate(shifts):
            self.rot(ct, s)
            out = bufs[step & 1][0]
            _into(np.add, x, sx, x, (sx + s) % n, out)
            x, sx = out, 0
        if self.meter is not None:
            self.meter.record_many("add", ct.meter_level(), len(shifts))
        last = len(shifts) - 1
        if last:  # hand back the buffer the last step read
            self._free[n].append(bufs[(last - 1) & 1][1])
        _, view, free = bufs[last & 1]
        return _make(view, 0, ct.level, ct.key_id, ct.pending_rescale, free)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def serialized_size(slot_count: int) -> int:
    return HEADER.size + 8 * slot_count


def serialize(ct: Ciphertext) -> bytes:
    """16-byte header (magic, S, level, key hash) + S little-endian float64 slots."""
    header = HEADER.pack(MAGIC, ct.slot_count, ct.level, zlib.crc32(ct.key_id.encode()))
    return header + ct.slots.astype("<f8", copy=False).tobytes()


def deserialize(data, ctx: KeyContext) -> Ciphertext:
    """Parse one serialized ciphertext from any bytes-like ``data``.  It must
    hold ``ctx``'s slot count, key hash and a level in ``0..top_level``.  The
    slots are a read-only view of ``data``: no copy on a little-endian host."""
    if len(data) < HEADER.size:
        raise ValueError("truncated ciphertext header")
    magic, s, level, key_hash = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if s != ctx.params.slot_count:
        raise ValueError(f"ciphertext holds {s} slots, expected {ctx.params.slot_count}")
    if len(data) != serialized_size(s):
        raise ValueError(f"expected {serialized_size(s)} bytes, got {len(data)}")
    if key_hash != ctx.key_hash:
        raise KeyMismatch("serialized ciphertext written under a different key")
    if not 0 <= level <= ctx.params.top_level:
        raise ValueError(f"level {level} outside [0, {ctx.params.top_level}]")
    slots = np.frombuffer(data, dtype="<f8", offset=HEADER.size).astype(np.float64,
                                                                          copy=False)
    return Ciphertext(slots, level, ctx.key_id)


def serialize_many(cts: Iterable[Ciphertext]) -> bytes:
    """The sequence format: each ciphertext serialized, back to back, with no
    count or framing, so the length in bytes fixes the count."""
    return b"".join(map(serialize, cts))


def write_many(fh, cts: Iterable[Ciphertext]) -> None:
    """Write the sequence format of ``cts`` to the binary file ``fh`` one
    ciphertext at a time, so no copy of the whole sequence is held."""
    for ct in cts:
        fh.write(serialize(ct))


def deserialize_many(buffer, ctx: KeyContext) -> list[Ciphertext]:
    """Parse the sequence format from any bytes-like ``buffer``, each
    ciphertext with the checks of :func:`deserialize`.  Nothing is copied:
    every ciphertext's slots are a read-only view of ``buffer``."""
    view = memoryview(buffer).cast("B")
    size = serialized_size(ctx.params.slot_count)
    if len(view) % size:
        raise ValueError(f"{len(view)} bytes is not a whole number of "
                         f"{size}-byte ciphertexts")
    return [deserialize(view[o:o + size], ctx) for o in range(0, len(view), size)]
