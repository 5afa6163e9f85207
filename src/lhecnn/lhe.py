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
:class:`Ciphertext` constructor, nor the slots the readers return, which
view the bytes they parse or the file they map.  The free lists belong to
the backend alone: it keeps its peak working set in them until it is
dropped, and a result that outlives it releases its buffer as usual.

The pipeline stores and sizes ciphertexts only through the backend, so how
the simulator keeps slots is known in this module alone.
:meth:`~SimulatorBackend.save_cells` writes a sequence of cells and returns
what reading it back needs, :meth:`~SimulatorBackend.open_cells` reads it
back, :meth:`~SimulatorBackend.retire` takes a read cell its holder has
replaced, :meth:`~SimulatorBackend.zero_like` makes an exact zero and
:meth:`~SimulatorBackend.wire_size` sizes a ciphertext crossing to the TEE.

Batched primitives run the pipeline's hot patterns with fewer Python calls
and the same arithmetic: ``mul_sum`` is the left fold of products
``a0*b0 + a1*b1 + ...`` (kernel windows, weight rows, and every term an input
gradient cell gathers), and ``rotate_add`` is a chain ``v <- v + rot(v, s)``
over a list of shifts (the folds).  Two more run the noise-removal update
with its mask folded in, computing only the slots that survive it:
``pack_sums`` sums the n-slot blocks of up to n gradients into one packed
ciphertext, gradient g into offset g, and keeps those slots times a scale,
and ``unpack_spread`` spreads offset g of a refreshed pack over its block,
into gradient g's parameter cell, one gradient a call.  ``pack_sums`` reads
its gradients once, in order, so the update makes each one only as the pack
takes it, and packs it while its slots are still in cache.  Each primitive
gives the level and rescale flag of the per-op calls it stands for, their
slots (the masked two up to the sign of an exact zero), and meters the same
ops at the same levels.  The Python cost of a call is kept off its terms and
steps: operand keys and slot counts are checked inline, falling back to the
per-op checks only to raise their errors, and the counts of the sums and
chains are tallied per level and recorded once per kind and level through
:meth:`OpMeter.record_many`.  Only the spread makes its rotations through
:meth:`SimulatorBackend.rot`, one per chain step, so that a traced backend
can count them; no other chain step makes a ``rot`` call.

Products skip zero tails.  A packed ciphertext often fills only a prefix of
its slots: a type I weight cell holds ``pi_per_ct * n`` values of a segment
replicated ``r`` times, an fc layer's last output cell fewer, and the rest
are zeros.  Every ciphertext therefore carries a bound from the moment it
is made, a slot from which on every slot is an exact zero, derived from
the data alone, so no layout is passed in and noise or a changed cell
cannot make it wrong.  ``encrypt``, ``reencrypt``, the public constructor
(so ``deserialize`` and unpickling too) and ``deserialize_many`` measure
it from the slots (one read when the last slot is not zero, as with any
noise, a scan otherwise), and fresh ones leave their zero tails unwritten
(see :meth:`SimulatorBackend._fresh`).  ``add``, ``cmul``, ``rot``,
``rotate_add`` and ``pack_sums`` give the full slot count: a prefix does
not survive a rotation.  ``save_cells`` returns the cells' bounds and leaves
each zero tail a file hole, and ``open_cells`` takes the bounds back and
reads no slot, so no page of a cell's zero tail is ever read.  Such a bound
is taken as given, so a cells file rewritten outside the library can make
it wrong.  ``mul`` and each term of ``mul_sum`` compute a product only up
to the smaller of its operands' bounds, and ``unpack_spread`` only the
blocks the refreshed gradient or the cell it adds into reaches.  Past a product's bound the per-op product
is ``x * 0.0``, so the slots equal the full computation's up to the sign
of an exact zero, for finite slots, and the meter records the same ops at
the same levels.

Folds compute only their run.  ``rotate_add`` reads its operand's bound as
a product does, and tracks, inside the call alone, the run: the cyclic arc
of slots that can be nonzero.  It starts as ``[0, bound)``, and a step by
``s`` (``out[i] = x[i] + x[i + s]``) grows it to the shorter arc that covers
it and it shifted by ``s``.  A type I fc fold at S=32768, n=128 whose input
fills 64 of its 256 blocks thus runs over 65, 67, 71, 79, 95, 127 and 191
blocks, and only its last step covers them all.  Each step computes only
its new run, at the start of a buffer: an add where both terms lie in the
old run, and ``v + 0.0`` where one does.  The step that covers every slot,
or would leave a gap of zeros inside the run, or the chain's last, writes
its buffer in full, zero where neither term lies in the run, and the steps
after it add whole vectors, as every step of a full-bound operand's chain
does.  For an operand whose tail is +0.0, as every product's is, each slot
is the full chain's bit for bit, the sign of zero included.

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
import re
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
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)  # None where the host lacks it


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
    read-only either way.  ``_bound`` is the slot from which on every slot
    of :attr:`slots` is an exact zero, set when the ciphertext is made; the
    constructor measures it (see the module docstring).
    """

    __slots__ = ("_base", "_shift", "level", "key_id", "pending_rescale", "_bound")
    _free = None  # no free list: the base array is released as usual

    def __init__(self, slots: np.ndarray, level: int, key_id: str,
                 pending_rescale: bool = False):
        slots.setflags(write=False)
        _set_base(self, slots)
        _set_shift(self, 0)
        _set_level(self, level)
        _set_key_id(self, key_id)
        _set_pending(self, pending_rescale)
        _set_bound(self, _extent(slots))

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
_set_bound = Ciphertext._bound.__set__
_set_free = _Pooled._free.__set__


def _make(base: np.ndarray, shift: int, level: int, key_id: str,
          pending_rescale: bool, free: weakref.ref | None, bound: int) -> Ciphertext:
    """A ciphertext over ``base`` (already read-only) rotated left by ``shift``,
    every slot of it from ``bound`` on an exact zero; ``base`` returns to the
    free list ``free`` refers to, if any, when its last holder is dropped."""
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
    _set_bound(ct, bound)
    return ct


def _extent(slots: np.ndarray) -> int:
    """One past the last slot that is not an exact zero (NaN counts as not
    zero), 0 when every slot is: one read when the last slot is not zero,
    a scan otherwise."""
    size = len(slots)
    if slots[size - 1] != 0:
        return size
    return (slots != 0).tobytes().rfind(1) + 1


def _multiply(a: Ciphertext, b: Ciphertext, out: np.ndarray, size: int) -> int:
    """Write ``a * b`` into ``out`` (``size`` slots) up to the smaller of the
    operands' bounds, past which the product is an exact zero, and return
    that bound; ``out`` past it is left as it was."""
    top, other = a._bound, b._bound
    if other < top:
        top = other
    if top == size:
        np.multiply(a.slots, b.slots, out)
    else:
        np.multiply(a.slots[:top], b.slots[:top], out[:top])
    return top


def _run_steps(x: np.ndarray, bound: int, shifts: Sequence[int],
               outs: Sequence[np.ndarray]) -> int:
    """The first steps of :meth:`SimulatorBackend.rotate_add`'s chain over
    ``x``, whose slots from ``bound`` on are zeros, step k by ``shifts[k]``
    (not empty) writing ``outs[k]``; returns how many it ran, the last of
    which wrote its buffer in full (see the module docstring).

    The run, the cyclic arc of slots that can be nonzero, starts as ``[0,
    bound)``, and each step grows it to the shorter arc that covers it and
    it shifted by ``s``.  A step that leaves some slot outside it writes
    only its new run, at the start of its buffer.  The step that would
    cover every slot, or leave a gap of zeros inside the run (a shift
    longer than the run), or the chain's last, writes its buffer in
    full."""
    size = len(x)
    run, start, length = x, 0, bound  # run[:length] holds slots start, start + 1, ...
    last = len(shifts) - 1
    for k, (s, out) in enumerate(zip(shifts, outs)):
        t = s % size
        left = t <= size - t  # the new run begins t before the old one
        d = t if left else size - t
        if k == last or d > length or length + d >= size:
            _lay_out(run, start, length, t, out)
            return k + 1
        # run[j] lies at offset j of the new run, and at offset j + d: the
        # term x[i + s] at the first when the run grows left, else x[i]
        np.add(run[:d], 0.0, out[:d])
        if left:
            np.add(run[:length - d], run[d:length], out[d:length])
        else:
            np.add(run[d:length], run[:length - d], out[d:length])
        np.add(run[length - d:length], 0.0, out[length:length + d])
        if left:
            start = (start - t) % size
        run, length = out, length + d


def _lay_out(run: np.ndarray, start: int, length: int, t: int, out: np.ndarray) -> None:
    """Write every slot of ``x + rot(x, t)`` into ``out``, where ``x`` holds
    ``run[:length]`` at the cyclic run of slots from ``start`` and zeros
    elsewhere: ``x[i] + x[i + t]`` where both terms lie in the run,
    ``v + 0.0`` where one does, and zero where neither does."""
    size = len(out)
    # x[i] lies in the run from slot a on, x[i + t] from slot b on
    a, b = start, (start - t) % size
    cuts = sorted({0, size, a, (a + length) % size, b, (b + length) % size})
    for p, q in zip(cuts, cuts[1:]):
        i, j = (p - a) % size, (p - b) % size  # run offsets of x[p] and x[p + t]
        if i < length:
            np.add(run[i:i + q - p], run[j:j + q - p] if j < length else 0.0, out[p:q])
        elif j < length:
            np.add(run[j:j + q - p], 0.0, out[p:q])
        else:
            out[p:q] = 0.0


def _new_slots(n: int) -> np.ndarray:
    """A new writable slot array of length ``n`` over its own private
    anonymous mapping: page-aligned, so an elementwise op writing it is not
    slowed by a misaligned output, and zero pages until written."""
    return np.frombuffer(mmap.mmap(-1, 8 * n, mmap.MAP_PRIVATE), np.float64)


def _buffer(pools: defaultdict, n: int) -> tuple[np.ndarray, np.ndarray, weakref.ref]:
    """A slot buffer of length ``n``: its writable owner, the read-only view a
    ciphertext holds, and a reference to the free list the view returns to."""
    free = pools[n]
    try:
        view = free.pop()
    except IndexError:
        owner = _new_slots(n)
        view = owner.view()
        view.setflags(write=False)
        return owner, view, free.ref
    return view.base, view, free.ref


# what save_cells returns: integers, comma-separated (none for no cells)
_BOUNDS = re.compile("(?:-?[0-9]+(?:,-?[0-9]+)*)?")


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

    def _fresh(self, ctx: KeyContext, values: np.ndarray) -> Ciphertext:
        """A top-level ciphertext of ``values``, perturbed first when noise
        is on.

        A buffer made here (:func:`_new_slots`) is zero pages until
        written, and only the written prefix is copied into it: the
        slots up to the last whose bits are not all zero, so a -0.0 in the
        tail is copied too.  The pages of its tail are never written, so
        they never become resident, whatever state the allocator is in; a
        read of one, as ``serialize`` makes, maps the kernel's shared zero
        page, which is not resident either.  A recycled buffer takes every
        slot.  The bound is measured from the
        slots, so an exact zero of either sign counts as zero."""
        size, sigma = values.shape[0], ctx.params.noise_sigma
        if sigma > 0 and ctx._rng is not None:
            values = values + ctx._rng.normal(0.0, sigma, size=values.shape)
        pool = self._free[size]
        try:
            view = pool.pop()
        except IndexError:
            top = _extent(values.view(np.uint64))  # by the bits: a -0.0 is written
            out = _new_slots(size)
            out[:top] = values[:top]
            view = out.view()
            view.setflags(write=False)
            bound = _extent(out[:top]) if top else 0
        else:
            out = view.base
            np.copyto(out, values)
            bound = _extent(out)
        return _make(view, 0, ctx.params.top_level, ctx.key_id, False, pool.ref, bound)

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
        _check_pair(a, b)
        size = len(a._base)
        out, view, free = _buffer(self._free, size)
        np.add(a.slots, b.slots, out)
        la, lb, pa, pb = a.level, b.level, a.pending_rescale, b.pending_rescale
        self.meter.record("add", min(la + pa, lb + pb))
        # Adding a rescaled operand to an unrescaled one aligns scales first,
        # so the sum stays unrescaled only when both operands are.
        return _make(view, 0, min(la, lb), a.key_id, pa and pb, free, size)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Elementwise ciphertext product; consumes one level.

        The product is computed only up to the smaller of the operands'
        bounds and is zero past it, which is then its bound: equal to the
        full product up to the sign of an exact zero, for finite slots.
        """
        level = a.level if a.level < b.level else b.level
        size = len(a._base)
        if a.key_id != b.key_id or len(b._base) != size:
            _check_pair(a, b)
        if level < 1:
            raise LevelExhausted("mul", level, self.meter.current_scope)
        self.meter.record("mul", level)
        out, view, free = _buffer(self._free, size)
        top = _multiply(a, b, out, size)
        if top < size:
            out[top:] = 0.0
        return _make(view, 0, level - 1, a.key_id, True, free, top)

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
        return _make(view, 0, level - 1, a.key_id, True, free, n)

    def rot(self, a: Ciphertext, m: int) -> Ciphertext:
        """Cyclic left rotation by ``m`` slots (negative = right); level unchanged.

        The result shares ``a``'s slot array and composes the shift, so no
        slots are copied, and its bound is the slot count; it is still
        metered as one rotation.
        """
        base, level, pending = a._base, a.level, a.pending_rescale
        size = len(base)
        shift = (a._shift + m) % size
        self.meter.record("rot", level + pending)
        return _make(base, shift, level, a.key_id, pending, a._free, size)

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

        Each product is computed and added only up to the smaller of its
        operands' bounds (see the module docstring): the result is zero past
        the first product's bound until a later product writes there, and
        its bound is the largest of any product's.  Past a product's bound
        the per-op fold adds exact zeros, so the slots equal the fold's up
        to the sign of an exact zero, for finite slots.
        """
        muls, adds = {}, {}
        pairs = iter(pairs)
        try:
            for a, b in pairs:  # the first product starts the sum
                first, key, size = a, a.key_id, len(a._base)
                low = a.level if a.level < b.level else b.level
                if b.key_id != key or len(b._base) != size or low < 1:
                    self._term_error(a, a, b, low, muls)
                muls[low] = 1
                out, view, free = _buffer(self._free, size)
                high = _multiply(a, b, out, size)
                if high < size:
                    out[high:] = 0.0
                break
            else:
                raise ValueError("mul_sum needs at least one product")
            tmp = None
            for a, b in pairs:
                lab = a.level if a.level < b.level else b.level
                if (a.key_id != key or b.key_id != key or len(a._base) != size
                        or len(b._base) != size or lab < 1):
                    self._term_error(first, a, b, lab, muls)
                muls[lab] = muls.get(lab, 0) + 1
                if tmp is None:
                    tmp, tmp_view, _ = _buffer(self._free, size)
                # _multiply and the add, inline: this loop runs every term
                top, other = a._bound, b._bound
                if other < top:
                    top = other
                if top == size:
                    np.multiply(a.slots, b.slots, tmp)
                    np.add(out, tmp, out)
                else:
                    np.multiply(a.slots[:top], b.slots[:top], tmp[:top])
                    np.add(out[:top], tmp[:top], out[:top])
                if top > high:
                    high = top
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
        return _make(view, 0, low - 1, key, True, free, high)

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
        through :meth:`rot`.  The steps write into two buffers in turn, and
        no rotation is copied.

        An operand with a zero tail (a bound below its slot count) starts
        the steps of :func:`_run_steps`, each computing only the run of
        slots that can be nonzero, until one covers every slot or the chain
        ends (see the module docstring).  Every later step, and
        every step over a full-bound operand, adds two slices of the whole
        vector, split where its rotation wraps.  The result's bound is its
        slot count.
        """
        steps = len(shifts)
        if not steps:
            return ct
        size, pools = ct._base.shape[0], self._free
        even, even_view, free = _buffer(pools, size)
        odd, odd_view, _ = _buffer(pools, size) if steps > 1 else (None, None, None)
        outs, x, done = (even, odd) * (steps + 1 >> 1), ct.slots, 0
        if ct._bound < size:
            done = _run_steps(x, ct._bound, shifts, outs)
            x = outs[done - 1]
        for s, out in zip(shifts[done:], outs[done:]):
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
        return _make(last, 0, ct.level, ct.key_id, ct.pending_rescale, free, size)

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
            for (kind, level), c in counts.items():
                self.meter.record_many(kind, level, c)
        pools[size].append(scratch_view)
        return _make(view, 0, out_level, first.key_id, True, free, size)

    def unpack_spread(self, ct: Ciphertext, n: int, g: int,
                      acc: Ciphertext) -> Ciphertext:
        """``acc + repeat(ct[g::n], n)``: the per-op calls of a ``cmul`` by
        the selector that is 1.0 at ``g::n``, ``rotate_add`` by the reversed
        shifts of offset g's signed plan and an ``add`` into ``acc``.  The
        level, rescale flag, errors and meter counts are those calls', and
        every chain step makes its rotation through :meth:`rot`: ``2**k``
        where bit k of g is set, else ``-2**k``.  :func:`_check_pack` checks
        the pack's shape and that ``0 <= g < n`` first.

        A signed plan's reversed chain carries every slot of a block to ``g``
        by exactly one term, so it adds each kept value to exact zeros only:
        the result is the chain's bit for bit where the value is not zero,
        and up to the sign of an exact zero elsewhere, for finite slots.
        The spread is zero from the first block wholly past the pack's
        bound, so the result's bound is the larger of ``acc``'s and that
        block's first slot, and only the blocks below it are computed.
        """
        size, level = len(ct._base), ct.level
        _check_pack(g + 1, n, size)
        if level < 1:
            raise LevelExhausted("cmul", level, self.meter.current_scope)
        self.meter.record("cmul", level)
        # the masked product the chain rotates: one level down, rescale pending
        masked = _make(ct._base, ct._shift, level - 1, ct.key_id, True, None, size)
        steps = n.bit_length() - 1
        for k in range(steps):
            self.rot(masked, 1 << k if g >> k & 1 else -1 << k)
        self.meter.record_many("add", level, steps)
        if acc.key_id != ct.key_id or len(acc._base) != size:
            _check_pair(acc, ct)
        self.meter.record("add", min(acc.level + acc.pending_rescale, level))
        pack = -(-ct._bound // n) * n  # where the blocks the spread leaves zero begin
        bound = acc._bound if acc._bound > pack else pack
        top = -(-bound // n) * n  # the whole blocks that hold the result
        cell, view, free = _buffer(self._free, size)
        np.add(acc.slots[:top].reshape(-1, n), ct.slots[:top].reshape(-1, n)[:, g, None],
               cell[:top].reshape(-1, n))
        if top < size:
            cell[top:] = 0.0
        return _make(view, 0, min(acc.level, level - 1), ct.key_id,
                     acc.pending_rescale, free, bound)

    # -- storage -------------------------------------------------------------

    def zero_like(self, ct: Ciphertext) -> Ciphertext:
        """An exact zero with ``ct``'s key, slot count, level and rescale
        flag: the additive identity, which needs no encryption and meters
        nothing."""
        zeros = np.zeros(ct.slot_count)
        zeros.setflags(write=False)
        return _make(zeros, 0, ct.level, ct.key_id, ct.pending_rescale, None, 0)

    def wire_size(self, ct: Ciphertext) -> int:
        """Bytes ``ct`` takes in the wire format: ``16 + 8 * S`` at any level."""
        return serialized_size(ct.slot_count)

    def save_cells(self, fh, cts: Iterable[Ciphertext]) -> str:
        """Write the sequence format of ``cts`` to the seekable binary file
        ``fh``, from its position on, one ciphertext at a time, so no copy of
        the whole sequence is held; the file then ends where the sequence
        does.  Returns what :meth:`open_cells` needs besides the file: each
        cell's bound, in order, comma-separated.

        Each ciphertext's zero tail is left as a file hole: its header and its
        slots up to the last whose bits are not all zero go out in one write
        (so a -0.0 in a tail is written), and the writer seeks past the rest.
        A hole reads back as +0.0, so the file holds :func:`serialize_many`'s
        bytes, but a filesystem that stores holes allocates no block for them
        and keeps no page of them in its cache."""
        bounds = []
        for ct in cts:
            slots = ct.slots.astype("<f8", copy=False)
            top = _extent(slots.view(np.uint64))  # by the bits: a -0.0 is written
            fh.write(_header(ct) + slots[:top].tobytes())
            fh.seek(8 * (len(slots) - top), os.SEEK_CUR)
            bounds.append(str(ct._bound))
        fh.truncate()
        return ",".join(bounds)

    def open_cells(self, path, ctx: KeyContext, count: int, meta: str) -> list[Ciphertext]:
        """The ``count`` ciphertexts :meth:`save_cells` wrote to the file at
        ``path``, given ``meta``, the value it returned (a saved session keeps
        it as its manifest's ``bounds``).  ``meta`` must hold ``count``
        integers in ``0..S``, comma-separated, each ASCII decimal digits with
        an optional minus sign and nothing around them, checked before the
        file is opened; then the file
        must hold ``count`` cells whose headers pass :func:`deserialize`'s
        checks, all checked together.

        Each header comes from one ``os.pread``; every ciphertext's slots are
        a read-only row of one read-only mapping of the file, and no page of
        it is read until a ciphertext's slots are.  A read fault maps the
        cached pages around the one it faults in, so reading the headers
        through the mapping would make every cached page resident; the holes
        are in no cached page, so a read of a cell's prefix maps written
        pages only.  Each cell takes its bound from ``meta`` as given, so no
        page of its zero tail is ever read.

        The mapping goes with the last ciphertext that uses it, and every page
        read stays resident until then: a holder that replaces the cells one
        by one passes each old one to :meth:`retire`.  A writer that rewrites
        the file in place changes what those ciphertexts read, and can make a
        bound wrong (a product then leaves out slots that are no longer zero);
        one that truncates it makes the next read past the new end raise
        SIGBUS."""
        s = ctx.params.slot_count
        if not _BOUNDS.fullmatch(meta):
            raise ValueError("session manifest bounds is not a list of integers")
        bounds = np.fromstring(meta, dtype=np.int64, sep=",")
        if len(bounds) != count:
            raise ValueError(f"session manifest bounds holds {len(bounds)} bounds, "
                             f"the model has {count} cells")
        outside = bounds.view(np.uint64) > s  # and every negative one
        if outside.any():
            raise ValueError(f"session manifest bounds holds {bounds[outside.argmax()]}, "
                             f"outside 0..{s}")
        size = serialized_size(s)
        with open(path, "rb") as fh:
            fd = fh.fileno()
            stored = os.fstat(fd).st_size
            if stored != count * size:
                raise ValueError(f"{os.path.basename(path)} holds {stored / size:g} cells "
                                 f"of {size} bytes, the model has {count}")
            if not count:
                return []
            heads = [os.pread(fd, HEADER.size, k * size) for k in range(count)]
            headers = b"".join(heads)
            if len(headers) != count * HEADER.size:
                k = next(k for k, head in enumerate(heads) if len(head) != HEADER.size)
                raise ValueError(f"cell {k}: read {len(heads[k])} of its {HEADER.size} "
                                 f"header bytes; the file shrank while it was read")
            levels = _check_headers(headers, HEADER.size, ctx)
            rows = _rows(mmap.mmap(fd, count * size, access=mmap.ACCESS_READ), count, ctx)
        return _views(rows, levels, bounds.tolist(), ctx.key_id)

    def retire(self, ct: Ciphertext) -> None:
        """Take a cell its holder has replaced.  A cell :meth:`open_cells`
        read gives back its resident pages: ``madvise(MADV_DONTNEED)`` on the
        whole pages strictly inside its row of the mapping, so the pages it
        shares with its neighbours' rows are left alone.  Any other
        ciphertext, one over a writable mapping among them (``DONTNEED``
        would zero or revert its pages), or a host without
        ``MADV_DONTNEED``, is left as it is.

        The mapping is read-only and shared, so this changes no slot: a later
        read of the cell, by anyone still holding it, faults its pages back
        in from the file.  The mapping is found through the row's base chain,
        so a load records nothing per cell.  The mapping itself goes only
        with its last row, which is why a holder that replaces the rows one
        by one retires each."""
        owner = row = ct._base
        while isinstance(owner, np.ndarray):
            owner = owner.base
        if _DONTNEED is None or not isinstance(owner, mmap.mmap):
            return
        whole = np.frombuffer(owner, np.uint8, 0)
        if whole.flags.writeable:  # not a read-only file mapping: DONTNEED would zero it
            return
        page = mmap.PAGESIZE
        begin = row.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
        start = -(-begin // page) * page
        stop = (begin + row.nbytes) // page * page
        if start < stop:
            owner.madvise(_DONTNEED, start, stop - start)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def serialized_size(slot_count: int) -> int:
    return HEADER.size + 8 * slot_count


def _header(ct: Ciphertext) -> bytes:
    """The 16-byte wire header of ``ct``: magic, S, level, key hash."""
    return HEADER.pack(MAGIC, ct.slot_count, ct.level, zlib.crc32(ct.key_id.encode()))


def serialize(ct: Ciphertext) -> bytes:
    """16-byte header (magic, S, level, key hash) + S little-endian float64 slots."""
    return _header(ct) + ct.slots.astype("<f8", copy=False).tobytes()


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


def _rows(buffer, count: int, ctx: KeyContext) -> np.ndarray:
    """The read-only slot rows of the ``count`` cells that fill ``buffer``,
    as views of it; making them reads no byte of ``buffer``."""
    s = ctx.params.slot_count
    rows = np.ndarray((count, s), "<f8", buffer, HEADER.size,
                      (serialized_size(s), 8)).astype(np.float64, copy=False)
    rows.setflags(write=False)
    return rows


def _views(rows: np.ndarray, levels: list[int], bounds: Iterable[int],
           key_id: str) -> list[Ciphertext]:
    """One ciphertext per row of ``rows``, with its level and its bound."""
    cells = []
    for row, level, bound in zip(rows, levels, bounds):
        ct = _new(Ciphertext)  # _make inlined: a load pays it per cell
        _set_base(ct, row)
        _set_shift(ct, 0)
        _set_level(ct, level)
        _set_key_id(ct, key_id)
        _set_pending(ct, False)
        _set_bound(ct, bound)
        cells.append(ct)
    return cells


def deserialize_many(buffer, ctx: KeyContext) -> list[Ciphertext]:
    """Parse the sequence format from any bytes-like ``buffer``, each
    ciphertext with the checks of :func:`deserialize`, all headers checked
    together, and its bound measured from its slots.  Nothing is copied:
    every ciphertext's slots are a read-only view of ``buffer``."""
    view = memoryview(buffer).cast("B")
    size = serialized_size(ctx.params.slot_count)
    if len(view) % size:
        raise ValueError(f"{len(view)} bytes is not a whole number of {size}-byte "
                         f"ciphertexts")
    if not view:
        return []
    levels = _check_headers(view, size, ctx)
    rows = _rows(view, len(levels), ctx)
    return _views(rows, levels, map(_extent, rows), ctx.key_id)
