import os
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from lhecnn.geometry import CnnConfig, CombinedGeometry, ConvLayer, FcLayer
from lhecnn.lhe import HEADER, Ciphertext, LheParams, SimulatorBackend, serialized_size
from lhecnn.metering import OpMeter
from lhecnn.packing import (
    CONV_BASIC,
    PackedFilters,
    _checked_span,
    compute_rotation_plan,
    empty_weights,
    encode_params,
)
from lhecnn.tee import TeeService


@pytest.fixture
def meter():
    return OpMeter()


@pytest.fixture
def backend(meter):
    return SimulatorBackend(meter)


def mappings() -> list[tuple[int, int, int]]:
    """The start and end address and the resident kB of each mapping of this
    process, from ``/proc/self/smaps``."""
    found = []
    for line in Path("/proc/self/smaps").read_text().splitlines():
        head = line.split(None, 1)[0]
        if "-" in head and not head.endswith(":"):
            start, end = (int(part, 16) for part in head.split("-"))
        elif head == "Rss:":
            found.append((start, end, int(line.split()[1])))
    return found


def mapping_resident_kb(array: np.ndarray) -> int:
    """Resident kB of the mapping of this process that holds ``array``'s
    first byte, from ``/proc/self/smaps``."""
    address = array.__array_interface__["data"][0]
    for start, end, resident in mappings():
        if start <= address < end:
            return resident
    raise LookupError(f"no mapping holds address {address:#x}")


def written_bytes(ct: Ciphertext) -> int:
    """The bytes a saved cells file holds written for ``ct``: its header and
    its slots up to the last whose bits are not all zero; the rest of its
    cell is a hole."""
    bits = ct.slots.view(np.uint64)
    nonzero = np.flatnonzero(bits)
    return HEADER.size + 8 * (int(nonzero[-1]) + 1 if len(nonzero) else 0)


def written_pages_kb(cts: list[Ciphertext]) -> tuple[int, int]:
    """For a cells file saved from ``cts``, in file order: the kB of the
    pages that hold the first slot of a cell whose bound is not 0, and of
    the pages that hold any written byte.  A read of each such cell's
    first slot through a mapping of the file makes the first resident; no
    read of it can make more than the second resident, since its holes
    are in no page."""
    page, size = os.sysconf("SC_PAGE_SIZE"), serialized_size(cts[0].slot_count)
    first, written = set(), set()
    for k, ct in enumerate(cts):
        start = k * size
        if ct._bound:
            first.add((start + HEADER.size) // page)
        written.update(range(start // page, (start + written_bytes(ct) - 1) // page + 1))
    return len(first) * page // 1024, len(written) * page // 1024


def stores_holes(directory: Path) -> bool:
    """Whether the filesystem holding ``directory`` allocates no block for
    a hole: a 1 MiB file written only at its ends takes less than 1 MiB."""
    probe = directory / "holes-probe"
    with open(probe, "wb") as fh:
        fh.write(b"x")
        fh.seek(2**20)
        fh.write(b"x")
        fh.flush()
        os.fsync(fh.fileno())
    try:
        return os.stat(probe).st_blocks * 512 < 2**20
    finally:
        probe.unlink()


def encode_filters(backend: SimulatorBackend, ctx, filters: np.ndarray,
                   geo: CombinedGeometry, layout: str = CONV_BASIC,
                   r: int = 1) -> PackedFilters:
    """Encrypt one conv layer's filter elements, of shape (filter_count,
    channels, side, side), to match an input layout."""
    _checked_span(layout, r, geo)
    eps, alpha, gamma, _ = filters.shape
    return encode_params(backend, ctx, filters, PackedFilters(
        {}, layout, eps, alpha, gamma, geo.seg_slots, group_size=r))


def loop_mul_sum(backend, pairs, acc=None):
    """The per-op fold :meth:`SimulatorBackend.mul_sum` replaces, continued
    from the sum ``acc`` when it is given."""
    for a, b in pairs:
        term = backend.mul(a, b)
        acc = term if acc is None else backend.add(acc, term)
    return acc


def loop_mul_sums(backend, cts, rows):
    """The per-op folds :meth:`SimulatorBackend.mul_sums` replaces, one
    :func:`loop_mul_sum` fold per row, run input-major: every row takes its
    term of an input before the next input is read."""
    accs = [None] * len(rows)
    for i, ct in enumerate(cts):
        for j, row in enumerate(rows):
            accs[j] = loop_mul_sum(backend, [(ct, row[i])], accs[j])
    return accs


def loop_rotate_add(backend, ct, shifts):
    """The per-op chain :meth:`SimulatorBackend.rotate_add` replaces."""
    for s in shifts:
        ct = backend.add(ct, backend.rot(ct, s))
    return ct


class PerOpBackend(SimulatorBackend):
    """The reference for the batched primitives: ``mul_sum``, ``mul_sums``
    and ``rotate_add`` run as the per-op ``mul``/``add``/``rot`` loops they
    stand for, one call per op."""

    def mul_sum(self, pairs):
        return loop_mul_sum(self, pairs)

    def mul_sums(self, cts, rows):
        return loop_mul_sums(self, cts, rows)

    def rotate_add(self, ct, shifts):
        return loop_rotate_add(self, ct, shifts)


class FullProductBackend(SimulatorBackend):
    """The reference for products over zero tails: ``mul`` multiplies every
    slot, whatever its operands' bounds, and ``mul_sum`` and ``mul_sums``
    are the per-op folds of that ``mul`` and ``add``.  Checks, errors, levels
    and meter counts are :class:`SimulatorBackend`'s."""

    def mul(self, a, b):
        out = super().mul(a, b)
        return Ciphertext(a.slots * b.slots, out.level, out.key_id, out.pending_rescale)

    def mul_sum(self, pairs):
        return loop_mul_sum(self, pairs)

    def mul_sums(self, cts, rows):
        return loop_mul_sums(self, cts, rows)


def encode_weights(backend, ctx, matrix, kind, n, in_cts=0, pi_per_ct=0):
    """Encrypt a weight matrix into an fc container of ``kind``."""
    return encode_params(backend, ctx, matrix, empty_weights(
        kind, matrix.shape, n, ctx.params.slot_count, in_cts, pi_per_ct))


def make_selector(p, n, slot_count, beta):
    """Plaintext mask: value ``beta`` at every slot congruent to p mod n."""
    if not 0 <= p < n <= slot_count:
        raise ValueError(f"need 0 <= p < n <= S, got p={p} n={n} S={slot_count}")
    sel = np.zeros(slot_count)
    sel[p::n] = beta
    return sel


def plan_shifts(g, n):
    """The batch sum's shifts for offset ``g`` of n-slot blocks, from the
    signed rotation plan ``compute_rotation_plan(g, n)``: ``directions[k] <<
    k`` (the spread uses their negations)."""
    return [d << k for k, d in enumerate(compute_rotation_plan(g, n).directions)]


def per_op_rotate_add_select(backend, ct, g, n, scale, acc=None):
    """Gradient ``g`` of ``SimulatorBackend.pack_sums`` as per-op calls: the
    chain of offset g, a selector ``cmul`` and an ``add`` into ``acc``."""
    masked = backend.cmul(backend.rotate_add(ct, plan_shifts(g, n)),
                          make_selector(g, n, ct.slot_count, scale))
    return masked if acc is None else backend.add(acc, masked)


def per_op_unpack_spread(backend, ct, n, g, acc):
    """What ``SimulatorBackend.unpack_spread`` computes, as per-op calls: a
    selector ``cmul``, the reversed chain of offset g and an ``add`` into
    ``acc``."""
    spread = backend.rotate_add(backend.cmul(ct, make_selector(g, n, ct.slot_count, 1.0)),
                                [-s for s in plan_shifts(g, n)])
    return backend.add(acc, spread)


def per_op_pack_sums(backend, cts, n, scale):
    """What ``SimulatorBackend.pack_sums`` computes, as the per-op calls of
    :func:`per_op_rotate_add_select` for each ciphertext g in turn, added
    into the pack so far."""
    acc = None
    for g, ct in enumerate(cts):
        acc = per_op_rotate_add_select(backend, ct, g, n, scale, acc)
    return acc


def per_op_refresh_gradients(backend, reencrypt, raw_grads, lr, n):
    """``backward.refresh_gradients`` from per-op calls: each gradient, in
    insertion order, has its batch sum made by a ``rotate_add`` chain masked
    by a selector ``cmul`` and added into its pack; the packs are refreshed
    in one call and queued, one entry (key, pack, offset) per gradient."""
    order = list(raw_grads)
    packed = {}
    for idx, key in enumerate(order):
        packed[idx // n] = per_op_rotate_add_select(
            backend, raw_grads.pop(key)(), idx % n, n, -lr / n, packed.get(idx // n))
    fresh = reencrypt(list(packed.values())) if packed else []
    return deque((key, fresh[idx // n], idx % n) for idx, key in enumerate(order))


def per_op_apply_refreshed(backend, refreshed, target_cells, n):
    """``backward.apply_refreshed`` from per-op calls: each refreshed
    gradient is masked again, spread by the reversed chain and added into
    the parameter cell its key names, and leaves the queue."""
    while refreshed:
        key, ct, g = refreshed[0]
        target_cells[key] = per_op_unpack_spread(backend, ct, n, g, target_cells[key])
        refreshed.popleft()


def update_with(refresh, apply):
    """The whole update from its halves: refresh the packs, then apply them;
    returns the number of packs re-encrypted (the queue's entries at
    offset 0, where each pack starts)."""
    def update(backend, reencrypt, raw_grads, target_cells, lr, n):
        refreshed = refresh(backend, reencrypt, raw_grads, lr, n)
        count = sum(g == 0 for _, _, g in refreshed)
        apply(backend, refreshed, target_cells, n)
        return count
    return update


per_op_noise_removal_update = update_with(per_op_refresh_gradients, per_op_apply_refreshed)


def make_tee(backend, slots=32, levels=8, seed=7, sigma=0.0):
    return TeeService(backend, LheParams(slots, levels, sigma), seed=seed)


def random_small_config(rng: np.random.Generator) -> tuple[CnnConfig, LheParams]:
    """A random feasible config with c, f <= 2, input side <= 10, n in {2,4,8}."""
    while True:
        c = int(rng.integers(1, 3))
        n = int(rng.choice([2, 4, 8]))
        beta = int(rng.integers(5, 11))
        conv = []
        side, channels = beta, int(rng.integers(1, 3))
        ok = True
        for _ in range(c):
            if side < 2:
                ok = False
                break
            gamma = int(rng.integers(2, min(4, side) + 1))
            delta = int(rng.integers(1, gamma + 1))
            filters = int(rng.integers(1, 4))
            conv.append(ConvLayer(channels, side, filters, gamma, delta))
            side = 1 + (side - gamma) // delta
            channels = filters
        if not ok or side < 1:
            continue
        flat = conv[-1].filters * side**2
        f = int(rng.integers(1, 3))
        fc, inputs = [], flat
        for k in range(f):
            outputs = int(rng.integers(2, 6))
            fc.append(FcLayer(inputs, outputs))
            inputs = outputs
        try:
            cfg = CnnConfig(tuple(conv), tuple(fc), n)
        except Exception:
            continue
        # headroom for the exact backward pass; slots sized to fit the grid
        from lhecnn.geometry import combined_geometry, GeometryError

        slots = 16
        while True:
            try:
                combined_geometry(cfg, LheParams(slots, 24))
                break
            except GeometryError:
                slots *= 2
                if slots > 4096:
                    break
        if slots > 4096:
            continue
        return cfg, LheParams(slots, 24)
