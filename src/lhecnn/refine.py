"""Session orchestration: encrypted model onboarding, inference, refining.

A :class:`RefineSession` owns the encrypted parameters of one model, attests
against a :class:`~lhecnn.tee.TeeService`, and runs metered forward passes and
full refining rounds (forward, TEE loss head, backward, gradient aggregation,
TEE noise removal, additive update).  Both run one forward pass, whose
layers drop each input cell after its last read.  An inference streams it:
it encrypts each input cell as CL1 first reads it, and makes each output of
an fc layer but the last only as the next layer reads it.  A refining round
caches every layer's input and pre-activations until its backward stage
reads them, so it makes every input cell before it encrypts the labels and
each layer's output whole.  A saved session is ``session.manifest``
(``key = value`` lines) plus one cells file: every parameter ciphertext in the
wire format's sequence form, in ``cell_keys()`` order, written by the
backend's ``save_cells`` and read back by its ``open_cells``.  The manifest's
``bounds`` holds the value ``save_cells`` returned, which ``open_cells``
takes back.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import backward as bwd
from . import forward as fwd
from .config import model_dict, model_from_dict
from .geometry import CnnConfig, CombinedGeometry, combined_geometry
from .lhe import LheParams
from .metering import CostTable, OpReport, build_report
from .oracle import PlainParams
from .packing import (
    CONV_BASIC,
    CONV_CROSS_CHANNEL,
    CONV_CROSS_FILTER,
    PackedFilters,
    PackedTensor,
    PackedWeights,
    as_fl_input,
    conv_cell_counts,
    conv_output_layout,
    conv_output_pi_sets,
    empty_weights,
    encode_inputs,
    encode_params,
)
from .tee import BoundaryStats, TeeService

MANIFEST_NAME = "session.manifest"
FORMAT_TAG = "lhecnn-session-v3"
MANIFEST_KEYS = ("key_hash", "model", "lhe", "n", "r", "layouts", "weight_kinds",
                 "exact_activation_grad", "cells", "bounds")


def _manifest_object(entries: dict[str, str], key: str, build):
    """``build`` applied to the JSON object the manifest holds at ``key``.
    A value that is not a JSON object, or lacks a field ``build`` reads or
    holds one it cannot take, raises ValueError naming the key."""
    text = entries[key]
    try:
        value = json.loads(text)
        if not isinstance(value, dict):
            raise TypeError("not a JSON object")
        return build(value)
    except KeyError as exc:
        raise ValueError(f"session manifest {key} is {text!r}: it lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"session manifest {key} is {text!r}: {exc}") from None


def _manifest_int(entries: dict[str, str], key: str, power_of_two: bool = False) -> int:
    """The integer the manifest holds at ``key``: ASCII decimal digits, with
    an optional minus sign.  Any other value, or with ``power_of_two`` one
    that is not a positive power of two, raises ValueError naming the key."""
    text = entries[key]
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"session manifest {key} is {text!r}: not an integer")
    value = int(text)
    if power_of_two and (value < 1 or value & (value - 1)):
        raise ValueError(f"session manifest {key} is {text!r}: not a positive power of two")
    return value


def plan_layouts(cfg: CnnConfig, geo: CombinedGeometry, r_mode="auto") -> tuple[int, list[str]]:
    """Pick the packing factor and a per-conv-layer layout.

    With r = 1 every layer uses the basic layout.  Otherwise the first layer
    packs across channels when it has several, or replicates inputs for
    cross-filter processing when it does not, and each later layer takes the
    layout its predecessor outputs (:func:`~lhecnn.packing.conv_output_layout`).
    """
    if r_mode == "auto":
        r = geo.packing_factor
    else:
        r = int(r_mode)
        if r < 1 or r & (r - 1) or r > geo.packing_factor:
            raise ValueError(f"r must be a power of two <= {geo.packing_factor}")
    if r == 1:
        return 1, [CONV_BASIC] * cfg.c
    layouts = [CONV_CROSS_CHANNEL if cfg.conv[0].channels > 1 else CONV_CROSS_FILTER]
    for _ in range(1, cfg.c):
        layouts.append(conv_output_layout(layouts[-1], r, geo.seg_slots, geo.slot_count)[0])
    return r, layouts


@dataclass
class RefineResult:
    losses: list[float]
    report: OpReport
    tee_delta: BoundaryStats
    rounds: int


class RefineSession:
    """Encrypted model state plus the machinery to run it."""

    def __init__(self, tee: TeeService, cfg: CnnConfig, params: LheParams, *,
                 r_mode="auto", exact_activation_grad: bool = True):
        if params != tee.params:
            raise ValueError(f"session parameters {params} differ from its TEE's {tee.params}")
        self.tee = tee
        self.backend = tee.backend
        self.meter = tee.backend.meter
        self.cfg = cfg
        self.params = params
        self.party = "refine-session"
        self.ctx = tee.attest(self.party)
        self.geo = combined_geometry(cfg, params)
        self.r, self.layouts = plan_layouts(cfg, self.geo, r_mode)
        self.exact_activation_grad = exact_activation_grad
        self.filters: list[PackedFilters] = []
        self.weights: list[PackedWeights] = []

    # -- model onboarding ----------------------------------------------------

    def _empty_params(self) -> tuple[list[PackedFilters], list[PackedWeights]]:
        """Empty filter and weight containers in the planned layouts; fc layers
        alternate type I and type II, each taking its predecessor's output."""
        geo, cfg, r = self.geo, self.cfg, self.r
        filters = [PackedFilters({}, layout, layer.filters, layer.channels,
                                 layer.filter_side, geo.seg_slots, group_size=r)
                   for layout, layer in zip(self.layouts, cfg.conv)]
        last = cfg.conv[-1]
        in_cts, _ = conv_cell_counts(self.layouts[-1], r, last.filters, last.channels)
        out_layout, group = conv_output_layout(self.layouts[-1], r, geo.seg_slots,
                                               geo.slot_count)
        pi = conv_output_pi_sets(out_layout, group, geo.grid_side)
        weights = []
        for k, layer in enumerate(cfg.fc):
            packed = empty_weights("type1" if k % 2 == 0 else "type2",
                                   (layer.outputs, layer.inputs), cfg.n,
                                   self.params.slot_count, in_cts, pi)
            weights.append(packed)
            in_cts, pi = packed.out_cts, packed.pi_per_ct
        return filters, weights

    def load_base_model(self, plain: PlainParams) -> None:
        """Encrypt and install a plaintext model (replaces any existing one)."""
        if len(plain.filters) != self.cfg.c or len(plain.weights) != self.cfg.f:
            raise ValueError("model does not match the configured layer counts")
        filters, weights = self._empty_params()
        for l, (mats, packed) in enumerate(zip(plain.filters, filters)):
            if mats.shape != packed.shape:
                raise ValueError(f"conv layer {l} filter shape mismatch")
        for k, (mat, packed) in enumerate(zip(plain.weights, weights)):
            if mat.shape != packed.shape:
                raise ValueError(f"fc layer {k} weight shape mismatch")
        with self.meter.scope("enc.filters"):
            for mats, packed in zip(plain.filters, filters):
                encode_params(self.backend, self.ctx, mats, packed)
        for k, (mat, packed) in enumerate(zip(plain.weights, weights)):
            with self.meter.scope(f"enc.weights.FL{k + 1}"):
                encode_params(self.backend, self.ctx, mat, packed)
        self.filters, self.weights = filters, weights  # atomic swap

    def decrypted_model(self) -> PlainParams:
        """Recover the plaintext model through the TEE (model-provider path):
        each parameter is read from the first slot of its range."""
        values = []
        for packed in self.filters + self.weights:
            array = np.zeros(packed.shape)
            for key, ct in packed.cells.items():
                slots = self.tee.backend.decrypt(self.tee._ctx, ct)
                for start, _, index in packed.slot_map(key):
                    array[index] = slots[start]
            values.append(array)
        return PlainParams(values[:self.cfg.c], values[self.cfg.c:])

    # -- forward -------------------------------------------------------------

    def encrypt_inputs(self, images: np.ndarray, lazy: bool = True) -> PackedTensor:
        """The packed input tensor of ``images``, metered under
        ``enc.inputs`` (:func:`~lhecnn.packing.encode_inputs`).  Its cells
        are gathered from ``images`` and encrypted as they are first read,
        so ``images`` must not change until every cell is read; with
        ``lazy=False`` they are all made here, in key order."""
        images = np.asarray(images, dtype=np.float64)
        with self.meter.scope("enc.inputs"):
            return encode_inputs(self.backend, self.ctx, images, self.geo,
                                 self.layouts[0], self.r, lazy)

    def _forward(self, tensor: PackedTensor,
                 cache: list[tuple] | None = None) -> PackedTensor:
        """Forward pass to the logits.  Each layer consumes its input tensor,
        dropping each cell after its last reader (see :mod:`~lhecnn.forward`),
        and each square its pre-activations.

        Without a ``cache`` the pass streams: every fc layer but the last
        makes, folds and squares each of its outputs only as the next layer
        first reads it (``fl_squares``), so a next layer of one output cell,
        as in both presets, holds one at a time.  With a ``cache`` every
        layer's output is made whole, and each layer appends the pair
        (input, pre-activation) to it, conv layers first, each under a dict
        of its own.  The pre-activation is ``None`` unless activation
        gradients are exact (they read it)."""
        meter, backend, geo, cfg = self.meter, self.backend, self.geo, self.cfg
        keep = self.exact_activation_grad

        def held(t: PackedTensor) -> PackedTensor:
            return replace(t, cells=dict(t.cells))

        for l, layer in enumerate(cfg.conv):
            inputs = held(tensor) if cache is not None else None
            with meter.scope(f"CL{l + 1}"):
                out = fwd.conv_forward(backend, tensor, self.filters[l],
                                       geo.kernel_side_after(l), layer.stride)
            if cache is not None:
                cache.append((inputs, held(out) if keep else None))
            with meter.scope(f"Square{l + 1}"):
                tensor = fwd.square_activation(backend, out)
        tensor = as_fl_input(tensor)
        for k, weights in enumerate(self.weights):
            square = f"Square{cfg.c + k + 1}" if k < cfg.f - 1 else None
            if cache is None and square:
                tensor = fwd.fl_squares(backend, tensor, weights, f"FL{k + 1}", square)
                continue
            inputs = held(tensor) if cache is not None else None
            with meter.scope(f"FL{k + 1}"):
                out = fwd.fl_forward(backend, tensor, weights)
            if cache is not None:
                cache.append((inputs, held(out) if keep else None))
            tensor = out
            if square:  # no activation after the final layer
                with meter.scope(square):
                    tensor = fwd.square_activation(backend, tensor)
        return tensor

    def infer(self, images: np.ndarray) -> tuple[PackedTensor, OpReport]:
        """Encrypted forward pass; returns the logits tensor and an op report
        covering exactly this call.  Each input cell is encrypted as the pass
        first reads it, so with noise on, its noise is drawn in read
        order."""
        if not self.filters:
            raise RuntimeError("no model loaded")
        mark = self.meter.checkpoint()
        logits = self._forward(self.encrypt_inputs(images))
        report = build_report(self.meter, CostTable.default(self.params.top_level),
                              self.cfg.n, counts=self.meter.since(mark))
        return logits, report

    def reveal_outputs(self, logits: PackedTensor) -> np.ndarray:
        return self.tee.reveal_outputs(self.party, logits, self.cfg.fc[-1].outputs)

    # -- refining ------------------------------------------------------------

    def refine(self, images: np.ndarray, labels: np.ndarray, lr: float,
               epochs: int = 1) -> RefineResult:
        """Run ``epochs`` passes over the data in batches of n images each.

        Each round: forward, TEE loss head, layer-by-layer backward with
        gradient packing and TEE noise removal, then the additive parameter
        update of every layer.  The labels are checked before anything is
        encrypted, and each round is applied whole or not at all: one that
        raises before its update (on a re-encryption reply that the update
        could not spread, say) leaves the parameters as it found them, and
        one interrupted during its update finishes the update first.
        """
        if not self.filters:
            raise RuntimeError("no model loaded")
        images = np.asarray(images, dtype=np.float64)
        labels, classes = np.asarray(labels), self.cfg.fc[-1].outputs
        if labels.shape != images.shape[:1]:
            raise ValueError(f"{labels.size} labels for {images.shape[0]} images")
        if not np.all((labels == np.rint(labels)) & (labels >= 0) & (labels < classes)):
            raise ValueError(f"labels must be integers in [0, {classes})")
        labels = labels.astype(int)
        n = self.cfg.n
        if images.shape[0] % n:
            raise ValueError(f"batch count {images.shape[0]} not divisible by n={n}")
        if any(layout != CONV_BASIC for layout in self.layouts):
            raise ValueError("refining supports the basic conv layout (r = 1)")
        mark = self.meter.checkpoint()
        tee_before = self.tee.stats.snapshot()
        losses, rounds = [], 0
        for _ in range(epochs):
            for start in range(0, images.shape[0], n):
                losses.append(self._refine_round(images[start:start + n],
                                                 labels[start:start + n], lr))
                rounds += 1
        report = build_report(self.meter, CostTable.default(self.params.top_level), n,
                              counts=self.meter.since(mark))
        return RefineResult(losses, report, self.tee.stats.since(tee_before), rounds)

    def _refine_round(self, images: np.ndarray, labels: np.ndarray, lr: float) -> float:
        """One round in two phases, so it is applied whole or not at all and
        holds one model, not two.  The stages (forward, loss head, backward)
        change no parameter cell: each backward stage keeps only its
        refreshed gradient packs, so a failure in any stage leaves nothing
        to restore.  The commit after the last stage then spreads every
        stage's refreshed gradients into its parameter cells."""
        loss, stages = self._run_stages(images, labels, lr)
        self._commit(stages)
        return loss

    def _run_stages(self, images: np.ndarray, labels: np.ndarray,
                    lr: float) -> tuple[float, list[tuple]]:
        """Forward, loss head and backward stages of a round.  Returns the
        loss and, per backward stage in order, its meter scope, the parameter
        cells it updates and the queue of its refreshed gradients."""
        meter, cfg, geo = self.meter, self.cfg, self.geo
        # the cache holds every input until bwd.CL1: make them all now
        enc = self.encrypt_inputs(images, lazy=False)
        with meter.scope("enc.labels"):
            vec = np.zeros(self.params.slot_count)
            vec[:cfg.n] = labels
            label_ct = self.backend.encrypt(self.ctx, vec)
        cache = []
        logits = self._forward(enc, cache)
        del enc  # CL1 emptied it: the cache holds the inputs for bwd.CL1
        with meter.scope("tee.loss_head"):
            loss, grad = self.tee.loss_head(self.party, logits, label_ct,
                                            cfg.fc[-1].outputs)
        del logits, label_ct
        reenc = lambda cts: self.tee.reencrypt_batch(self.party, cts)
        stages = []

        # Each layer's (input, pre-activation) pair is popped from the end of
        # the cache as its backward stage starts, fc layers first, and
        # dropped once the makers of its raw gradients hold the operands
        # they need.  The packs call the makers at once, before the layer's
        # input gradients are made: each gradient goes into its pack while
        # it is fresh, no layer's gradients are ever all alive at once, and
        # a cached input dies as the last pack that reads it is made, so it
        # is gone before the input gradients are allocated.  The activation
        # gradient consumes the previous stage's input gradients, so each
        # dies as its replacement is made.
        for k in reversed(range(cfg.f)):
            inputs, pre = cache.pop()
            weights, scope = self.weights[k], f"bwd.FL{k + 1}"
            with meter.scope(scope):
                if k < cfg.f - 1:
                    grad = bwd.activation_gradient(self.backend, grad, pre,
                                                   self.exact_activation_grad)
                raw = bwd.fl_weight_gradients(self.backend, grad, inputs, weights)
                del pre, inputs
                refreshed = bwd.refresh_gradients(self.backend, reenc, raw, lr, cfg.n)
                grad = bwd.fl_backward(self.backend, grad, weights)
                stages.append((scope, weights.cells, refreshed))

        grad = self._as_conv_grad(grad)
        for l in reversed(range(cfg.c)):
            inputs, pre = cache.pop()
            out_grid, scope = geo.kernel_side_after(l), f"bwd.CL{l + 1}"
            with meter.scope(scope):
                grad = bwd.activation_gradient(self.backend, grad, pre,
                                               self.exact_activation_grad)
                raw = bwd.conv_kernel_gradients(self.backend, inputs, grad,
                                                self.filters[l], out_grid,
                                                cfg.conv[l].stride)
                del pre, inputs
                refreshed = bwd.refresh_gradients(self.backend, reenc, raw, lr, cfg.n)
                if l > 0:
                    grad = bwd.conv_backward(self.backend, grad, self.filters[l],
                                             out_grid, cfg.conv[l].stride,
                                             geo.kernel_sides[l])
                else:
                    del grad  # no later stage reads bwd.CL1's gradients
                stages.append((scope, self.filters[l].cells, refreshed))
        return loss, stages

    def _commit(self, stages: list[tuple]) -> None:
        """Spread each stage's refreshed gradients into its parameter cells,
        in stage order and inside that stage's meter scope.  Each old cell
        is retired as its new one replaces it.  The stages have checked
        every reply the spreads read, so only an exception from outside the
        data (a KeyboardInterrupt, say) can stop the commit part-way; it
        does not leave the round half applied: the gradients not yet
        applied, the interrupted one among them, are applied once each
        before it propagates.  If the interrupt stopped a spread, that one
        gradient is spread again, so the round's meter counts its ops
        twice."""
        try:
            self._apply(stages)
        except BaseException:
            self._apply(stages)
            raise

    def _apply(self, stages: list[tuple]) -> None:
        """Apply the gradients still queued in ``stages``."""
        for scope, cells, refreshed in stages:
            with self.meter.scope(scope):
                bwd.apply_refreshed(self.backend, refreshed, cells, self.cfg.n)

    def _as_conv_grad(self, tensor: PackedTensor) -> PackedTensor:
        """Reshape fully-connected input gradients back onto the conv grid."""
        cells = {(key[0], 0, 0): ct for key, ct in tensor.cells.items()}
        return PackedTensor(cells, CONV_BASIC, self.cfg.n, self.geo.grid_side,
                            self.geo.seg_slots)

    def expected_reencryptions_per_round(self) -> int:
        """Loss-head outputs plus one per packed gradient ciphertext, where
        each parameter cell takes one gradient."""
        total = self.weights[-1].out_cts
        for packed in self.filters + self.weights:
            total += bwd.pack_count(len(packed.cells), self.cfg.n)
        return total

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the session to directory ``path``, replacing any session there
        whole: a new cells file and the manifest naming it reach the disk, then
        one ``os.replace`` of the manifest commits.  One writer at a time."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        cells = f"cells-{os.urandom(8).hex()}.lhe"
        cts = [packed.cells[key] for packed in self.filters + self.weights
               for key in packed.cell_keys()]
        lines = [
            f"format = {FORMAT_TAG}",
            f"key_hash = {self.ctx.key_hash}",
            f"model = {json.dumps(model_dict(self.cfg))}",
            f"lhe = {json.dumps({'slots': self.params.slot_count, 'levels': self.params.max_level, 'noise_sigma': self.params.noise_sigma})}",
            f"n = {self.cfg.n}",
            f"r = {self.r}",
            f"layouts = {','.join(self.layouts)}",
            f"weight_kinds = {','.join(w.kind for w in self.weights)}",
            f"exact_activation_grad = {str(self.exact_activation_grad).lower()}",
        ]
        with open(root / cells, "xb") as fh:
            bounds = self.backend.save_cells(fh, cts)
            fh.flush()
            os.fsync(fh.fileno())
        lines += [f"cells = {cells}", f"bounds = {bounds}"]
        staged = root / (MANIFEST_NAME + ".tmp")
        with open(staged, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staged, root / MANIFEST_NAME)
        for stale in root.glob("cells-*.lhe"):
            if stale.name != cells:
                stale.unlink()

    @classmethod
    def load(cls, tee: TeeService, path: str | Path, *,
             threads: int = 1) -> "RefineSession":
        """Read a session written by :meth:`save`: the manifest, each value
        checked by key and a key given twice refused, then the cells through
        the backend's ``open_cells``.  The pipeline runs on one thread;
        ``threads`` stays only so that callers passing 1 keep working."""
        if threads != 1:
            raise ValueError(f"threads={threads}: the pipeline runs on one thread")
        root = Path(path)
        entries = {}
        lines = (root / MANIFEST_NAME).read_text(encoding="utf-8").splitlines()
        for key, _, value in (line.partition(" = ") for line in lines if line.strip()):
            if key in entries:
                raise ValueError(f"session manifest holds {key} twice")
            entries[key] = value
        if entries.get("format") != FORMAT_TAG:
            raise ValueError(f"unsupported session format {entries.get('format')!r}")
        missing = [key for key in MANIFEST_KEYS if key not in entries]
        if missing:
            raise ValueError(f"session manifest lacks {', '.join(missing)}")
        params = _manifest_object(entries, "lhe", lambda lhe: LheParams(
            lhe["slots"], lhe["levels"], lhe.get("noise_sigma", 0.0)))
        n = _manifest_int(entries, "n", power_of_two=True)
        cfg = _manifest_object(entries, "model", lambda model: model_from_dict(model, n))
        exact = entries["exact_activation_grad"]
        if exact not in ("true", "false"):
            raise ValueError(f"session manifest exact_activation_grad is {exact!r}, "
                             f"not true or false")
        cells_name = entries["cells"]
        if cells_name in ("", "..") or Path(cells_name).name != cells_name:
            raise ValueError(f"session manifest cells is {cells_name!r}, not a bare file name")
        r = _manifest_int(entries, "r", power_of_two=True)
        key_hash = _manifest_int(entries, "key_hash")
        session = cls(tee, cfg, params, r_mode=r, exact_activation_grad=exact == "true")
        if key_hash != session.ctx.key_hash:
            raise ValueError("session was written under a different key")
        stored_layouts = entries["layouts"].split(",")
        if stored_layouts != session.layouts:
            raise ValueError(
                f"stored layouts {stored_layouts} do not match planned {session.layouts}")
        packed_filters, packed_weights = session._empty_params()
        stored_kinds = entries["weight_kinds"].split(",")
        expected_kinds = [packed.kind for packed in packed_weights]
        if stored_kinds != expected_kinds:
            raise ValueError(
                f"stored weight kinds {stored_kinds} do not match expected {expected_kinds}")
        groups = [(packed.cells, packed.cell_keys())
                  for packed in packed_filters + packed_weights]
        count = sum(len(keys) for _, keys in groups)
        cts = iter(session.backend.open_cells(root / cells_name, session.ctx, count,
                                              entries["bounds"]))
        for cells, keys in groups:  # zip takes a key first: no cell is skipped
            cells.update(zip(keys, cts))
        session.filters, session.weights = packed_filters, packed_weights
        return session
