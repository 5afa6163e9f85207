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
operand's slot array and records a shift.  Only :attr:`Ciphertext.slots`
applies it, and every primitive reads its operands through it.  The pipeline
reads no rotated ciphertext: its chains add two slices of an unrotated
vector, or sum the slots of each block pairwise.

Slot buffers are recycled.  Every primitive that makes new slots (all but
``rot`` and ``decrypt``) writes into a buffer from its backend's free list,
and a buffer returns to that list when the last ciphertext holding it (the
one it was made for, or a rotation sharing it) is dropped, so a steady
pipeline reuses its working set instead of allocating and page-faulting it
anew on every pass.  An array anyone else still holds (``ct.slots``, or a
slice or view of it) is never reused, nor is an array passed to the public
:class:`Ciphertext` constructor, nor the slots the readers return:
:func:`deserialize` and :func:`deserialize_many` view the bytes they parse,
and :func:`map_many` maps a file and reads only its headers, so no slot page
is read until a stage reads it.  The free lists belong to the backend alone: it
keeps its peak working set in them until it is dropped, and a result that
outlives it releases its buffer as usual.

Batched primitives run the pipeline's hot patterns with fewer Python calls
and the same arithmetic: ``mul_sum`` is the left fold of products
``a0*b0 + a1*b1 + ...`` (kernel windows, weight rows, and every term an input
gradient cell gathers), and ``rotate_add`` is a chain ``v <- v + rot(v, s)``
over a list of shifts (the folds).  Two more run the noise-removal update a
packed ciphertext at a time with its mask folded in, computing only the slots
that survive it: ``pack_sums`` sums the n-slot blocks of up to n gradients,
gradient g into offset g, and keeps those slots times a scale, and
``unpack_spreads`` spreads offset g of a refreshed pack over its block, into
gradient g's parameter cell.  ``pack_sums`` reads its gradients once, in
order, so the update makes each one only as the pack takes it, and packs it
while its slots are still in cache.  Each primitive gives the level and
rescale flag of the per-op calls it stands for, their slots (the masked two
up to the sign of an exact zero), and meters the same ops at the same
levels.  The Python cost of a call is kept off its terms and steps: operand
keys and slot counts are checked inline, falling back to the per-op checks
only to raise their errors, and the counts are tallied per level and
recorded once per kind and level through :meth:`OpMeter.record_many`.  Only
the spread makes its rotations through :meth:`SimulatorBackend.rot`, one per
chain step, so that a traced backend can count them; no other chain step
makes a ``rot`` call.

Level accounting for the meter follows lazy rescaling: the product of a
multiplication stays at its operands' modulus level until the next
multiplication rescales it, so additions and rotations applied to a
just-produced product physically run one level above the product's remaining
budget.  Ciphertexts carry this as :attr:`Ciphertext.pending_rescale`; the
``level`` field itself is always the remaining multiplicative budget.
"""

from __future__ import annotations

import mmap
import os
import secrets
import struct
import sys
import weakref
import zlib
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain

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


def _check_pack(count: int, n: int, slot_count: int) -> None:
    """A pack holds gradient g at offset g of every n-slot block: raises
    ValueError unless ``1 <= count <= n`` and n is a power of two no larger
    than ``slot_count``."""
    if not 1 <= count <= n <= slot_count or n & (n - 1):
        raise ValueError(f"a pack holds 1 to n gradients, n a power of two of at most "
                         f"{slot_count} slots; got {count} gradients and n = {n}")


def _check_pair(a: Ciphertext, b: Ciphertext) -> None:
    """Operands of one elementwise op share a key and a slot count."""
    if a.key_id != b.key_id:
        raise KeyMismatch(f"operands under different keys: {a.key_id} vs {b.key_id}")
    if a._base.shape[0] != b._base.shape[0]:
        raise ValueError(f"slot count mismatch: {a._base.shape[0]} vs {b._base.shape[0]}")


def _elementwise(ufunc, a: Ciphertext, b: Ciphertext,
                 pools: defaultdict) -> tuple[np.ndarray, weakref.ref]:
    """``ufunc(a.slots, b.slots)`` computed into a buffer from ``pools``;
    returns the buffer's view and free-list reference."""
    _check_pair(a, b)
    out, view, free = _buffer(pools, a._base.shape[0])
    ufunc(a.slots, b.slots, out)
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
    shared mutable state is the :class:`OpMeter` every op is recorded on (the
    one passed in, or one of its own) and the free lists of recycled slot
    buffers, one per slot count, which are only appended to and popped from
    (both atomic).  A real CKKS backend can replace this class behind the
    same method surface.
    """

    def __init__(self, meter: OpMeter | None = None):
        self.meter = OpMeter() if meter is None else meter
        self._free: defaultdict[int, _FreeList] = defaultdict(_FreeList)

    @property
    def free_buffers(self) -> dict[int, int]:
        """Slot buffers the free lists hold, per slot count.  A buffer is made
        only when its list is empty, so this is the most buffers of a size
        ever alive at once, less those still held: after a pass that kept
        none, the pass's peak pooled working set."""
        return {n: len(free) for n, free in self._free.items()}

    # -- internals --------------------------------------------------------

    def _record_counts(self, counts: dict[tuple[str, int], int]) -> None:
        for (kind, level), c in counts.items():
            self.meter.record_many(kind, level, c)

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
        self.meter.record("encrypt", ctx.params.top_level)
        return self._fresh(ctx, values)

    def decrypt(self, ctx: KeyContext, ct: Ciphertext) -> np.ndarray:
        """Recover the slot vector; works at any level, requires the secret key."""
        if not ctx.secret:
            raise SecrecyViolation("decryption requires the secret key context")
        if ct.key_id != ctx.key_id:
            raise KeyMismatch(f"ciphertext under {ct.key_id}, context {ctx.key_id}")
        self.meter.record("decrypt", ct.level)
        return ct.slots.copy()

    def reencrypt(self, ctx: KeyContext, ct: Ciphertext) -> Ciphertext:
        """Decrypt-then-encrypt: same slots, level restored to L-1."""
        if not ctx.secret:
            raise SecrecyViolation("re-encryption requires the secret key context")
        if ct.key_id != ctx.key_id:
            raise KeyMismatch(f"ciphertext under {ct.key_id}, context {ctx.key_id}")
        self.meter.record("reencrypt", ct.level)
        return self._fresh(ctx, ct.slots)

    # -- homomorphic primitives --------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Elementwise sum; level = min of operand levels."""
        view, free = _elementwise(np.add, a, b, self._free)
        la, lb, pa, pb = a.level, b.level, a.pending_rescale, b.pending_rescale
        self.meter.record("add", min(la + pa, lb + pb))
        # Adding a rescaled operand to an unrescaled one aligns scales first,
        # so the sum stays unrescaled only when both operands are.
        return _make(view, 0, min(la, lb), a.key_id, pa and pb, free)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Elementwise ciphertext product; consumes one level."""
        level = min(a.level, b.level)
        view, free = _elementwise(np.multiply, a, b, self._free)
        if level < 1:
            raise LevelExhausted("mul", level, self.meter.current_scope)
        self.meter.record("mul", level)
        return _make(view, 0, level - 1, a.key_id, True, free)

    def cmul(self, a: Ciphertext, pt) -> Ciphertext:
        """Elementwise plaintext product; consumes one level."""
        level = a.level
        if level < 1:
            raise LevelExhausted("cmul", level, self.meter.current_scope)
        n = a._base.shape[0]
        vec = as_slots(pt, n)
        self.meter.record("cmul", level)
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
        self.meter.record("rot", level + pending)
        return _make(base, shift, level, a.key_id, pending, a._free)

    # -- batched primitives ------------------------------------------------

    def mul_sum(self, pairs: Iterable[tuple[Ciphertext, Ciphertext]]) -> Ciphertext:
        """``a0*b0 + a1*b1 + ...`` over the ``(a, b)`` pairs, as the left fold
        of :meth:`mul` and :meth:`add` from ``a0*b0``, with that fold's
        slots, level, rescale flag and meter counts: a ``mul`` at
        ``min(a.level, b.level)`` per product and an ``add`` per sum at the
        level :meth:`add` records.  It raises what the fold raises, at the
        same term, after metering the terms before it.

        The products go through one scratch buffer and are summed in place
        into the result's buffer.  The counts are tallied per level and
        recorded once per kind and level, when the call ends.
        """
        muls, adds = {}, {}
        pairs = iter(pairs)
        try:
            for a, b in pairs:  # the first product starts the sum
                first, key, size = a, a.key_id, a._base.shape[0]
                low = a.level if a.level < b.level else b.level
                if b.key_id != key or b._base.shape[0] != size or low < 1:
                    self._term_error(a, a, b, low, muls)
                muls[low] = 1
                out, view, free = _buffer(self._free, size)
                np.multiply(a.slots, b.slots, out)
                break
            else:
                raise ValueError("mul_sum needs at least one product")
            tmp = None
            for a, b in pairs:
                lab = a.level if a.level < b.level else b.level
                if (a.key_id != key or b.key_id != key or a._base.shape[0] != size
                        or b._base.shape[0] != size or lab < 1):
                    self._term_error(first, a, b, lab, muls)
                muls[lab] = muls.get(lab, 0) + 1
                if tmp is None:
                    tmp, tmp_view, _ = _buffer(self._free, size)
                np.multiply(a.slots, b.slots, tmp)
                np.add(out, tmp, out)
                # both summands have a rescale pending: the add runs at the
                # lowest product level so far, one above the sum's budget
                if lab < low:
                    low = lab
                adds[low] = adds.get(low, 0) + 1
        finally:
            record = self.meter.record_many
            for level, count in muls.items():
                record("mul", level, count)
            for level, count in adds.items():
                record("add", level, count)
        if tmp is not None:
            self._free[size].append(tmp_view)
        return _make(view, 0, low - 1, key, True, free)

    def _term_error(self, first: Ciphertext, a: Ciphertext, b: Ciphertext,
                    level: int, muls: dict[int, int]) -> None:
        """Raise what the per-op fold raises at the term ``a * b`` of a sum
        that ``first * ...`` started: the pair's own mismatch, then its
        level's exhaustion, then, its product metered, the add's mismatch
        with the sum."""
        _check_pair(a, b)
        if level < 1:
            raise LevelExhausted("mul", level, self.meter.current_scope)
        muls[level] = muls.get(level, 0) + 1
        _check_pair(first, a)

    def rotate_add(self, ct: Ciphertext, shifts: Sequence[int]) -> Ciphertext:
        """``v <- v + rot(v, s)`` for each shift ``s`` in turn, from ``v = ct``:
        the chain of :meth:`rot` and :meth:`add` calls, with its slots, level
        and meter counts.  Every step runs at ``ct``'s meter level, so its
        rotations and adds are metered in one batch each, and none goes
        through :meth:`rot`.  The steps write into two buffers in turn, each
        step as two slice adds split where its rotation wraps, so the
        rotation is not copied.
        """
        steps = len(shifts)
        if not steps:
            return ct
        size, pools = ct._base.shape[0], self._free
        even, even_view, free = _buffer(pools, size)
        odd, odd_view, _ = _buffer(pools, size) if steps > 1 else (None, None, None)
        x = ct.slots
        for s, out in zip(shifts, (even, odd) * (steps + 1 >> 1)):
            cut = size - s % size
            np.add(x[:cut], x[-cut:], out[:cut])
            np.add(x[cut:], x[:-cut], out[cut:])
            x = out
        level = ct.meter_level()
        self.meter.record_many("rot", level, steps)
        self.meter.record_many("add", level, steps)
        # the last step wrote the even buffer when the step count is odd
        last, spare = (even_view, odd_view) if steps & 1 else (odd_view, even_view)
        if spare is not None:
            pools[size].append(spare)
        return _make(last, 0, ct.level, ct.key_id, ct.pending_rescale, free)

    def pack_sums(self, cts: Iterable[Ciphertext], n: int, scale: float) -> Ciphertext:
        """One ciphertext holding ``scale`` times the n-slot block sums of
        each ``cts[g]`` at offset g: the per-op calls ``rotate_add(cts[g],
        shifts)`` by the signed rotation plan of offset g, a ``cmul`` by the
        selector that is ``scale`` at ``g::n`` and an ``add`` into the pack so
        far.  It gives those calls' level, rescale flag, errors (at the same
        ciphertext, after metering the ones before it) and meter counts, but
        no chain step goes through :meth:`rot`.  :func:`_check_pack` checks
        the pack's shape, ``len(cts)`` and the first ciphertext's slot count,
        before any op.  ``cts`` is iterated once, in order, so each
        ciphertext can be made as the pack takes it and dropped once packed.

        Only the kept slots are computed.  Chain step k adds to each slot
        ``o`` that reaches ``g`` the slot ``o ^ 2**k`` (``o`` shares bit k
        with ``g``, so the signed shift flips it), and IEEE addition commutes,
        so the chain leaves at ``g`` the pairwise sum ``x <- x[0::2] +
        x[1::2]``, K times, of its block, whatever ``g`` is.  Those halvings
        run through one pooled scratch buffer, and the scaled sums go straight
        into their column of the output: the chain's bit for bit (up to the
        sign of an exact zero).  The other slots are zero where the per-op
        products write ``x * 0.0``: equal, for finite slots.
        """
        count, cts = len(cts), iter(cts)
        first = next(cts, None)
        size = 0 if first is None else first._base.shape[0]
        _check_pack(count, n, size)
        pools, counts, steps = self._free, defaultdict(int), n.bit_length() - 1
        out, view, free = _buffer(pools, size)
        if count < n:  # offsets no ciphertext fills
            out.fill(0.0)
        scratch, scratch_view, _ = _buffer(pools, size)
        # step k writes its size >> (k + 1) sums after those of the steps before
        halves = [scratch[size - (size >> k):size - (size >> (k + 1))]
                  for k in range(steps)]
        try:
            for g, ct in enumerate(chain((first,), cts)):
                level = ct.level
                counts[("rot", ct.meter_level())] += steps
                counts[("add", ct.meter_level())] += steps
                if level < 1:
                    raise LevelExhausted("cmul", level, self.meter.current_scope)
                counts[("cmul", level)] += 1
                if g:  # added into the pack, which has a rescale pending
                    _check_pair(first, ct)
                    counts[("add", min(out_level + 1, level))] += 1
                    out_level = min(out_level, level - 1)
                else:
                    out_level = level - 1
                x = ct.slots
                for half in halves:
                    np.add(x[0::2], x[1::2], half)
                    x = half
                np.multiply(x, scale, out.reshape(-1, n)[:, g])
        finally:
            self._record_counts(counts)
        pools[size].append(scratch_view)
        return _make(view, 0, out_level, first.key_id, True, free)

    def unpack_spreads(self, ct: Ciphertext, n: int,
                       accs: Sequence[Ciphertext]) -> list[Ciphertext]:
        """``accs[g] + repeat(ct[g::n], n)`` for each accumulator g: the
        per-op calls, gradient by gradient, of a ``cmul`` by the selector that
        is 1.0 at ``g::n``, ``rotate_add`` by the reversed shifts of offset
        g's signed plan and an ``add`` into ``accs[g]``.  The level, rescale
        flag, errors (at the same gradient, after metering the ones before
        it) and meter counts are those calls', and every chain step makes
        its rotation through :meth:`rot`: ``2**k`` where bit k of g is set,
        else ``-2**k``.  :func:`_check_pack` checks the pack's shape first.

        A signed plan's reversed chain carries every slot of a block to ``g``
        by exactly one term, so it adds each kept value to exact zeros only:
        the result is the chain's bit for bit where the value is not zero,
        and up to the sign of an exact zero elsewhere, for finite slots.
        """
        size, level = ct._base.shape[0], ct.level
        _check_pack(len(accs), n, size)
        if level < 1:
            raise LevelExhausted("cmul", level, self.meter.current_scope)
        # the masked product each chain rotates: one level down, rescale pending
        masked = _make(ct._base, ct._shift, level - 1, ct.key_id, True, None)
        blocks, counts, out = ct.slots.reshape(-1, n), defaultdict(int), []
        steps = n.bit_length() - 1
        try:
            for g, acc in enumerate(accs):
                counts[("cmul", level)] += 1
                for k in range(steps):
                    self.rot(masked, 1 << k if g >> k & 1 else -1 << k)
                counts[("add", level)] += steps
                _check_pair(acc, ct)
                counts[("add", min(acc.level + acc.pending_rescale, level))] += 1
                cell, view, free = _buffer(self._free, size)
                np.add(acc.slots.reshape(-1, n), blocks[:, g, None],
                       cell.reshape(-1, n))
                out.append(_make(view, 0, min(acc.level, level - 1), ct.key_id,
                                 acc.pending_rescale, free))
        finally:
            self._record_counts(counts)
        return out


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
    (level,) = _check_headers(memoryview(data)[:HEADER.size], HEADER.size, ctx)
    if len(data) != serialized_size(ctx.params.slot_count):
        raise ValueError(f"expected {serialized_size(ctx.params.slot_count)} bytes, "
                         f"got {len(data)}")
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


def _check_headers(headers, itemsize: int, ctx: KeyContext) -> list[int]:
    """The levels of the cell headers that begin every ``itemsize`` bytes of
    ``headers``, after the wire format's header rule: magic, slot count, key
    hash and a level in ``0..top_level``, each field checked for every header
    at once.  The first cell that fails raises the error of its first
    failing field, in that order."""
    fields = np.frombuffer(headers, np.dtype({
        "names": ["magic", "slots", "level", "key_hash"], "formats": ["<u4"] * 4,
        "offsets": [0, 4, 8, 12], "itemsize": itemsize}))
    magic, slots, levels = fields["magic"], fields["slots"], fields["level"]
    s, top = ctx.params.slot_count, ctx.params.top_level
    failed = [magic != int.from_bytes(MAGIC, "little"), slots != s,
              fields["key_hash"] != ctx.key_hash, levels > top]
    bad = np.logical_or.reduce(failed)
    if bad.any():
        k = int(bad.argmax())
        errors = [ValueError(f"bad magic {int(magic[k]).to_bytes(4, 'little')!r}"),
                  ValueError(f"ciphertext holds {slots[k]} slots, expected {s}"),
                  KeyMismatch("serialized ciphertext written under a different key"),
                  ValueError(f"level {levels[k]} outside [0, {top}]")]
        raise next(error for fails, error in zip(failed, errors) if fails[k])
    return levels.tolist()


def _cell_count(nbytes: int, size: int) -> int:
    if nbytes % size:
        raise ValueError(f"{nbytes} bytes is not a whole number of "
                         f"{size}-byte ciphertexts")
    return nbytes // size


def _views(buffer, levels: list[int], ctx: KeyContext) -> list[Ciphertext]:
    """One ciphertext per level, its slots a read-only row view of the cells
    that fill ``buffer``; making them reads no byte of ``buffer``."""
    s = ctx.params.slot_count
    rows = np.ndarray((len(levels), s), "<f8", buffer, HEADER.size,
                      (serialized_size(s), 8)).astype(np.float64, copy=False)
    rows.setflags(write=False)
    key_id = ctx.key_id
    return [_make(row, 0, level, key_id, False, None) for row, level in zip(rows, levels)]


def deserialize_many(buffer, ctx: KeyContext) -> list[Ciphertext]:
    """Parse the sequence format from any bytes-like ``buffer``, each
    ciphertext with the checks of :func:`deserialize`, all headers checked
    together.  Nothing is copied: every ciphertext's slots are a read-only
    view of ``buffer``."""
    view = memoryview(buffer).cast("B")
    size = serialized_size(ctx.params.slot_count)
    if not _cell_count(len(view), size):
        return []
    return _views(view, _check_headers(view, size, ctx), ctx)


def map_many(fh, ctx: KeyContext) -> list[Ciphertext]:
    """Read the sequence format from the binary file ``fh`` by its headers
    alone, with the checks of :func:`deserialize_many`.  Each header comes
    from one ``os.pread``; every ciphertext's slots are a read-only row of one
    read-only mapping of the file, and no page of it is read until a
    ciphertext's slots are.  Reading the headers through the mapping would
    make the whole file resident, since the kernel maps the pages around
    each one it faults in.

    The mapping goes with the last ciphertext that uses it.  A writer that
    rewrites the file in place changes what those ciphertexts read, and one
    that truncates it makes the next read past the new end raise SIGBUS."""
    fd = fh.fileno()
    size = serialized_size(ctx.params.slot_count)
    count = _cell_count(os.fstat(fd).st_size, size)
    if not count:
        return []
    heads = [os.pread(fd, HEADER.size, k * size) for k in range(count)]
    headers = b"".join(heads)
    if len(headers) != count * HEADER.size:
        k = next(k for k, head in enumerate(heads) if len(head) != HEADER.size)
        raise ValueError(f"cell {k}: read {len(heads[k])} of its {HEADER.size} header "
                         f"bytes; the file shrank while it was read")
    levels = _check_headers(headers, HEADER.size, ctx)
    return _views(mmap.mmap(fd, count * size, access=mmap.ACCESS_READ), levels, ctx)
