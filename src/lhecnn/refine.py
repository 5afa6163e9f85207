"""Session orchestration: encrypted model onboarding, inference, refining.

A :class:`RefineSession` owns the encrypted parameters of one model, attests
against a :class:`~lhecnn.tee.TeeService`, and runs metered forward passes and
full refining rounds (forward, TEE loss head, backward, gradient aggregation,
TEE noise removal, additive update).  A saved session is ``session.manifest``
(``key = value`` lines) plus one cells file: every parameter ciphertext in the
wire format's sequence form, in ``cell_keys()`` order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backward as bwd
from . import forward as fwd
from .geometry import CnnConfig, CombinedGeometry, ConvLayer, FcLayer, combined_geometry
from .lhe import LheParams, deserialize_many, serialized_size, write_many
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
    conv_segments,
    encode_filters,
    encode_fl_weights_type1,
    encode_fl_weights_type2,
    encode_inputs,
    fl_segments,
)
from .tee import BoundaryStats, TeeService

MANIFEST_NAME = "session.manifest"
FORMAT_TAG = "lhecnn-session-v2"


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
    tiles = r * geo.seg_slots == geo.slot_count
    layouts = [CONV_CROSS_CHANNEL if cfg.conv[0].channels > 1 else CONV_CROSS_FILTER]
    for _ in range(1, cfg.c):
        layouts.append(conv_output_layout(layouts[-1], r, tiles)[0])
    return r, layouts


@dataclass
class RefineResult:
    losses: list[float]
    report: OpReport
    tee_delta: BoundaryStats
    rounds: int


@dataclass
class _ForwardCache:
    conv_inputs: list[PackedTensor] = field(default_factory=list)
    conv_pre: list[PackedTensor] = field(default_factory=list)
    fl_inputs: list[PackedTensor] = field(default_factory=list)
    fl_pre: list[PackedTensor] = field(default_factory=list)


class RefineSession:
    """Encrypted model state plus the machinery to run it."""

    def __init__(self, tee: TeeService, cfg: CnnConfig, params: LheParams, *,
                 r_mode="auto", exact_activation_grad: bool = True,
                 party: str = "refine-session"):
        self.tee = tee
        self.backend = tee.backend
        self.meter = tee.backend.meter
        self.cfg = cfg
        self.params = params
        self.party = party
        self.ctx = tee.attest(party)
        self.geo = combined_geometry(cfg, params)
        self.r, self.layouts = plan_layouts(cfg, self.geo, r_mode)
        self.exact_activation_grad = exact_activation_grad
        self.filters: list[PackedFilters] = []
        self.weights: list[PackedWeights] = []

    # -- model onboarding ----------------------------------------------------

    def fl_shapes(self) -> list[tuple[str, int, int, int]]:
        """Per fc layer: (kind, input ciphertext count, output ciphertext
        count, pi-sets per input ciphertext)."""
        geo, cfg, r = self.geo, self.cfg, self.r
        last = cfg.conv[-1]
        in_cts, _ = conv_cell_counts(self.layouts[-1], r, last.filters, last.channels)
        out_layout, group = conv_output_layout(self.layouts[-1], r,
                                               r * geo.seg_slots == geo.slot_count)
        pi = conv_output_pi_sets(out_layout, group, geo.grid_side)
        shapes = []
        block = self.params.slot_count // cfg.n
        for k, layer in enumerate(cfg.fc):
            if k % 2 == 0:
                shapes.append(("type1", in_cts, layer.outputs, pi))
                in_cts, pi = layer.outputs, 1
            else:
                out_cts = -(-layer.outputs // block)
                shapes.append(("type2", in_cts, out_cts, pi))
                in_cts, pi = out_cts, block
        return shapes

    def load_base_model(self, plain: PlainParams) -> None:
        """Encrypt and install a plaintext model (replaces any existing one)."""
        if len(plain.filters) != self.cfg.c or len(plain.weights) != self.cfg.f:
            raise ValueError("model does not match the configured layer counts")
        meter = self.meter
        filters: list[PackedFilters] = []
        with meter.scope("enc.filters"):
            for l, mats in enumerate(plain.filters):
                layer = self.cfg.conv[l]
                if mats.shape != (layer.filters, layer.channels,
                                  layer.filter_side, layer.filter_side):
                    raise ValueError(f"conv layer {l} filter shape mismatch")
                filters.append(encode_filters(self.backend, self.ctx, mats, self.geo,
                                              layout=self.layouts[l], r=self.r))
        weights: list[PackedWeights] = []
        for k, (mat, (kind, in_cts, _, pi)) in enumerate(zip(plain.weights,
                                                             self.fl_shapes())):
            layer = self.cfg.fc[k]
            if mat.shape != (layer.outputs, layer.inputs):
                raise ValueError(f"fc layer {k} weight shape mismatch")
            with meter.scope(f"enc.weights.FL{k + 1}"):
                if kind == "type1":
                    weights.append(encode_fl_weights_type1(
                        self.backend, self.ctx, mat, in_cts, pi, self.cfg.n))
                else:
                    weights.append(encode_fl_weights_type2(
                        self.backend, self.ctx, mat, self.cfg.n))
        self.filters, self.weights = filters, weights  # atomic swap

    def decrypted_model(self) -> PlainParams:
        """Recover the plaintext model through the TEE (model-provider path)."""
        seg = self.geo.seg_slots
        filters = []
        for l, packed in enumerate(self.filters):
            layer = self.cfg.conv[l]
            mats = np.zeros((layer.filters, layer.channels,
                             layer.filter_side, layer.filter_side))
            for (a, b, x, y), ct in packed.cells.items():
                slots = self.tee.backend.decrypt(self.tee._ctx, ct)
                for q, k, i in conv_segments(packed.layout, packed.group_size, a, b):
                    if k < layer.filters and i < layer.channels:
                        mats[k, i, x, y] = slots[q * seg]
            filters.append(mats)
        weights = []
        block = self.params.slot_count // self.cfg.n
        for k, packed in enumerate(self.weights):
            layer = self.cfg.fc[k]
            mat = np.zeros((layer.outputs, layer.inputs))
            per_ct = packed.pi_per_ct if packed.kind == "type1" else block
            for (a, b), ct in packed.cells.items():
                slots = self.tee.backend.decrypt(self.tee._ctx, ct)
                for w, row, col in fl_segments(packed.kind, per_ct, a, b):
                    if row < layer.outputs and col < layer.inputs:
                        mat[row, col] = slots[w * self.cfg.n]
            weights.append(mat)
        return PlainParams(filters, weights)

    # -- forward -------------------------------------------------------------

    def encrypt_inputs(self, images: np.ndarray) -> PackedTensor:
        images = np.asarray(images, dtype=np.float64)
        with self.meter.scope("enc.inputs"):
            return encode_inputs(self.backend, self.ctx, images, self.geo,
                                 self.layouts[0], self.r)

    def _forward(self, tensor: PackedTensor,
                 cache: _ForwardCache | None = None) -> PackedTensor:
        """Forward pass to the logits; each layer's input and pre-activation
        go into ``cache`` when one is given (the backward pass reads them),
        and are dropped as soon as the next layer has read them otherwise."""
        meter, geo, cfg = self.meter, self.geo, self.cfg
        square_idx = 0
        for l, layer in enumerate(cfg.conv):
            if cache is not None:
                cache.conv_inputs.append(tensor)
            out_grid = geo.kernel_side_after(l)
            with meter.scope(f"CL{l + 1}"):
                pre = fwd.conv_forward(self.backend, tensor, self.filters[l],
                                       out_grid, layer.stride)
            if cache is not None:
                cache.conv_pre.append(pre)
            square_idx += 1
            with meter.scope(f"Square{square_idx}"):
                tensor = fwd.square_activation(self.backend, pre)
            del pre
        tensor = as_fl_input(tensor, cfg.fc[0].inputs)
        for k in range(cfg.f):
            if cache is not None:
                cache.fl_inputs.append(tensor)
            with meter.scope(f"FL{k + 1}"):
                if self.weights[k].kind == "type1":
                    tensor = fwd.fl_forward_type1(self.backend, tensor, self.weights[k])
                else:
                    tensor = fwd.fl_forward_type2(self.backend, tensor, self.weights[k])
            if cache is not None:
                cache.fl_pre.append(tensor)
            if k < cfg.f - 1:  # no activation after the final layer
                square_idx += 1
                with meter.scope(f"Square{square_idx}"):
                    tensor = fwd.square_activation(self.backend, tensor)
        return tensor

    def infer(self, images: np.ndarray,
              cost: CostTable | None = None) -> tuple[PackedTensor, OpReport]:
        """Encrypted forward pass; returns the logits tensor and an op report
        covering exactly this call."""
        if not self.filters:
            raise RuntimeError("no model loaded")
        mark = self.meter.checkpoint()
        logits = self._forward(self.encrypt_inputs(images))
        report = build_report(self.meter, cost or CostTable.default(), self.cfg.n,
                              counts=self.meter.since(mark))
        return logits, report

    def reveal_outputs(self, logits: PackedTensor) -> np.ndarray:
        return self.tee.reveal_outputs(self.party, logits, self.cfg.fc[-1].outputs)

    # -- refining ------------------------------------------------------------

    def refine(self, images: np.ndarray, labels: np.ndarray, lr: float,
               epochs: int = 1, cost: CostTable | None = None) -> RefineResult:
        """Run ``epochs`` passes over the data in batches of n images each.

        Each round: forward, TEE loss head, layer-by-layer backward with
        gradient packing and TEE noise removal, additive parameter update.
        The labels are checked before anything is encrypted, and a round
        that raises leaves the parameters as that round found them.
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
        report = build_report(self.meter, cost or CostTable.default(), n,
                              counts=self.meter.since(mark))
        return RefineResult(losses, report, self.tee.stats.since(tee_before), rounds)

    def _refine_round(self, images: np.ndarray, labels: np.ndarray, lr: float) -> float:
        """One round, applied whole or not at all: if anything raises, every
        parameter cell is put back as it was and the error propagates.
        Ciphertexts are immutable, so copying the cell dicts suffices."""
        saved = [dict(packed.cells) for packed in self.filters + self.weights]
        try:
            return self._run_round(images, labels, lr)
        except BaseException:
            for packed, cells in zip(self.filters + self.weights, saved):
                packed.cells.clear()
                packed.cells.update(cells)
            raise

    def _run_round(self, images: np.ndarray, labels: np.ndarray, lr: float) -> float:
        meter, cfg, geo = self.meter, self.cfg, self.geo
        enc = self.encrypt_inputs(images)
        with meter.scope("enc.labels"):
            vec = np.zeros(self.params.slot_count)
            vec[:cfg.n] = labels
            label_ct = self.backend.encrypt(self.ctx, vec)
        cache = _ForwardCache()
        logits = self._forward(enc, cache)
        with meter.scope("tee.loss_head"):
            loss, grad = self.tee.loss_head(self.party, logits, label_ct,
                                            cfg.fc[-1].outputs)
        reenc = lambda cts: self.tee.reencrypt_batch(self.party, cts)

        # Each layer's cached tensors are popped as its backward stage starts,
        # and the noise-removal update pops its raw gradients as it packs them,
        # so neither stays alive through the stages after it.
        for k in reversed(range(cfg.f)):
            pre, inputs = cache.fl_pre.pop(), cache.fl_inputs.pop()
            with meter.scope(f"bwd.FL{k + 1}"):
                if k < cfg.f - 1:
                    grad = bwd.activation_gradient(self.backend, grad, pre,
                                                   self.exact_activation_grad)
                raw = bwd.fl_weight_gradients(self.backend, grad, inputs, self.weights[k])
                if self.weights[k].kind == "type1":
                    grad = bwd.fl_backward_type1(self.backend, grad, self.weights[k])
                else:
                    grad = bwd.fl_backward_type2(self.backend, grad, self.weights[k])
                bwd.fl_noise_removal_update(self.backend, reenc, raw,
                                            self.weights[k], lr, cfg.n)

        grad = self._as_conv_grad(grad)
        for l in reversed(range(cfg.c)):
            pre, inputs = cache.conv_pre.pop(), cache.conv_inputs.pop()
            out_grid = geo.kernel_side_after(l)
            with meter.scope(f"bwd.CL{l + 1}"):
                grad = bwd.activation_gradient(self.backend, grad, pre,
                                               self.exact_activation_grad)
                raw = bwd.conv_kernel_gradients(self.backend, inputs, grad,
                                                self.filters[l], out_grid,
                                                cfg.conv[l].stride)
                if l > 0:
                    grad = bwd.conv_backward(self.backend, grad, self.filters[l],
                                             out_grid, cfg.conv[l].stride,
                                             geo.kernel_sides[l])
                bwd.conv_noise_removal_update(self.backend, reenc, raw,
                                              self.filters[l], lr, cfg.n)
        return loss

    def _as_conv_grad(self, tensor: PackedTensor) -> PackedTensor:
        """Reshape fully-connected input gradients back onto the conv grid."""
        cells = {(key[0], 0, 0): ct for key, ct in tensor.cells.items()}
        return PackedTensor(cells, CONV_BASIC, self.cfg.n, self.geo.grid_side,
                            self.geo.seg_slots)

    def expected_reencryptions_per_round(self) -> int:
        """Loss-head outputs plus one per packed gradient ciphertext."""
        total = self.weights[-1].out_cts
        for w in self.weights:
            total += bwd.pack_count(w.out_cts * w.in_cts, self.cfg.n)
        for layer in self.cfg.conv:
            total += bwd.pack_count(layer.filters * layer.channels * layer.filter_side**2,
                                    self.cfg.n)
        return total

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the session to directory ``path``, replacing any session there
        whole: a new cells file and the manifest naming it reach the disk, then
        one ``os.replace`` of the manifest commits.  One writer at a time."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        cells = f"cells-{os.urandom(8).hex()}.lhe"
        lines = [
            f"format = {FORMAT_TAG}",
            f"key_hash = {self.ctx.key_hash}",
            f"model = {json.dumps(_model_dict(self.cfg))}",
            f"lhe = {json.dumps({'slots': self.params.slot_count, 'levels': self.params.max_level, 'noise_sigma': self.params.noise_sigma})}",
            f"n = {self.cfg.n}",
            f"r = {self.r}",
            f"layouts = {','.join(self.layouts)}",
            f"weight_kinds = {','.join(w.kind for w in self.weights)}",
            f"exact_activation_grad = {str(self.exact_activation_grad).lower()}",
            f"cells = {cells}",
        ]
        with open(root / cells, "xb") as fh:
            write_many(fh, (packed.cells[key] for packed in self.filters + self.weights
                            for key in packed.cell_keys()))
            fh.flush()
            os.fsync(fh.fileno())
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
             threads: int = 1, party: str = "refine-session") -> "RefineSession":
        """Read a session written by :meth:`save`.  The pipeline runs on one
        thread; ``threads`` stays only so that callers passing 1 keep working."""
        if threads != 1:
            raise ValueError(f"threads={threads}: the pipeline runs on one thread")
        root = Path(path)
        entries = dict(line.partition(" = ")[::2] for line in
                       (root / MANIFEST_NAME).read_text(encoding="utf-8").splitlines()
                       if line.strip())
        if entries.get("format") != FORMAT_TAG:
            raise ValueError(f"unsupported session format {entries.get('format')!r}")
        lhe = json.loads(entries["lhe"])
        params = LheParams(lhe["slots"], lhe["levels"], lhe.get("noise_sigma", 0.0))
        cfg = _model_from_dict(json.loads(entries["model"]), int(entries["n"]))
        session = cls(tee, cfg, params, r_mode=int(entries["r"]),
                      exact_activation_grad=entries["exact_activation_grad"] == "true",
                      party=party)
        if int(entries["key_hash"]) != session.ctx.key_hash:
            raise ValueError("session was written under a different key")
        stored_layouts = entries["layouts"].split(",")
        if stored_layouts != session.layouts:
            raise ValueError(
                f"stored layouts {stored_layouts} do not match planned {session.layouts}")
        stored_kinds = entries["weight_kinds"].split(",")
        shapes = session.fl_shapes()
        expected_kinds = [shape[0] for shape in shapes]
        if stored_kinds != expected_kinds:
            raise ValueError(
                f"stored weight kinds {stored_kinds} do not match expected {expected_kinds}")

        packed_filters = [
            PackedFilters({}, session.layouts[l], layer.filters, layer.channels,
                          layer.filter_side, group_size=session.r)
            for l, layer in enumerate(cfg.conv)]
        packed_weights = [
            PackedWeights({}, kind, layer.outputs, layer.inputs, in_cts, out_cts, pi, cfg.n)
            for layer, (kind, in_cts, out_cts, pi) in zip(cfg.fc, shapes)]
        targets = [(packed.cells, key) for packed in packed_filters + packed_weights
                   for key in packed.cell_keys()]
        # Every cell is a view of one array holding the file: a load is one
        # allocation, which numpy backs with huge pages, so no load re-faults.
        size = serialized_size(params.slot_count)
        with open(root / entries["cells"], "rb") as fh:
            stored = os.fstat(fh.fileno()).st_size
            if stored != len(targets) * size:
                raise ValueError(f"{entries['cells']} holds {stored / size:g} cells of "
                                 f"{size} bytes, the model has {len(targets)}")
            data = np.empty(stored, dtype=np.uint8)
            if fh.readinto(data) != stored:
                raise ValueError(f"{entries['cells']} shrank while it was read")
        for (cells, key), ct in zip(targets, deserialize_many(data, session.ctx)):
            cells[key] = ct
        session.filters, session.weights = packed_filters, packed_weights
        return session


def _model_dict(cfg: CnnConfig) -> dict:
    return {
        "conv": [{"channels": c.channels, "input_side": c.input_side,
                  "filters": c.filters, "filter_side": c.filter_side,
                  "stride": c.stride} for c in cfg.conv],
        "fc": [{"inputs": f.inputs, "outputs": f.outputs} for f in cfg.fc],
    }


def _model_from_dict(data: dict, n: int) -> CnnConfig:
    return CnnConfig(
        conv=tuple(ConvLayer(c["channels"], c["input_side"], c["filters"],
                             c["filter_side"], c["stride"]) for c in data["conv"]),
        fc=tuple(FcLayer(f["inputs"], f["outputs"]) for f in data["fc"]),
        n=n,
    )
