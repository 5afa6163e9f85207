"""Run configuration parsing and the binary dataset format.

Config files are JSON::

    {"model": {"conv": [{"channels": 1, "input_side": 28, "filters": 4,
                         "filter_side": 7, "stride": 3}],
               "fc": [{"inputs": 256, "outputs": 64}, {"inputs": 64, "outputs": 10}]},
     "lhe": {"slots": 4096, "levels": 6, "noise_sigma": 0},
     "run": {"n": 64, "r_mode": "auto", "lr": 0.05, "epochs": 1, "seed": 7}}

``--config preset:NAME`` loads a named preset instead of a file (only presets
that ship with a full model definition can be run).

Datasets are binary: a 32-bit little-endian image count, then per image
``channels * side * side`` float64 pixel values row-major, then one label byte
per image.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CnnConfig, ConvLayer, FcLayer, preset
from .lhe import LheParams, check_floats, check_ints


@dataclass(frozen=True)
class RunSettings:
    r_mode: str | int = "auto"
    lr: float = 0.05
    epochs: int = 1
    seed: int = 0
    exact_activation_grad: bool = True

    def __post_init__(self):
        ints = ("epochs", "seed") if self.r_mode == "auto" else ("epochs", "seed", "r_mode")
        check_ints(self, *ints)
        check_floats(self, "lr")


@dataclass(frozen=True)
class RunConfig:
    model: CnnConfig
    lhe: LheParams
    run: RunSettings


def model_dict(cfg: CnnConfig) -> dict:
    """The ``model`` block of a config file (also a saved session's ``model``)."""
    return {
        "conv": [{"channels": c.channels, "input_side": c.input_side,
                  "filters": c.filters, "filter_side": c.filter_side,
                  "stride": c.stride} for c in cfg.conv],
        "fc": [{"inputs": f.inputs, "outputs": f.outputs} for f in cfg.fc],
    }


def model_from_dict(model: dict, n: int) -> CnnConfig:
    """Inverse of :func:`model_dict`, for ``n`` parallel inputs."""
    return CnnConfig(
        conv=tuple(ConvLayer(c["channels"], c["input_side"], c["filters"],
                             c["filter_side"], c["stride"]) for c in model["conv"]),
        fc=tuple(FcLayer(f["inputs"], f["outputs"]) for f in model["fc"]),
        n=n,
    )


def parse_config(data: dict) -> RunConfig:
    run, defaults = data.get("run", {}), RunSettings()
    cfg = model_from_dict(data["model"], run.get("n", 1))
    lhe = data.get("lhe", {})
    params = LheParams(lhe.get("slots", 4096), lhe.get("levels", 6),
                       lhe.get("noise_sigma", 0.0))
    exact = run.get("exact_activation_grad", defaults.exact_activation_grad)
    if not isinstance(exact, bool):
        raise ValueError(f"run.exact_activation_grad must be true or false, got {exact!r}")
    settings = RunSettings(
        r_mode=run.get("r_mode", defaults.r_mode),
        lr=run.get("lr", defaults.lr),
        epochs=run.get("epochs", defaults.epochs),
        seed=run.get("seed", defaults.seed),
        exact_activation_grad=exact,
    )
    return RunConfig(cfg, params, settings)


def load_config(spec: str) -> RunConfig:
    """Load a JSON config file, or a preset via ``preset:NAME``."""
    if spec.startswith("preset:"):
        p = preset(spec.split(":", 1)[1])
        if p.model is None:
            raise ValueError(
                f"preset {p.name!r} carries LHE parameters only (no model definition)")
        return RunConfig(p.model, p.lhe, RunSettings())
    data = json.loads(Path(spec).read_text(encoding="utf-8"))
    return parse_config(data)


def write_dataset(path: str | Path, images: np.ndarray, labels: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    count = images.shape[0]
    if labels.shape[0] != count:
        raise ValueError("image and label counts differ")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", count))
        fh.write(images.astype("<f8").tobytes())
        fh.write(labels.astype(np.uint8).tobytes())


def read_dataset(path: str | Path, cfg: CnnConfig) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ValueError("dataset file truncated")
    (count,) = struct.unpack_from("<I", raw)
    per_image = cfg.conv[0].channels * cfg.conv[0].input_side ** 2
    expect = 4 + count * per_image * 8 + count
    if len(raw) != expect:
        raise ValueError(f"dataset size {len(raw)} != expected {expect} bytes "
                         f"({count} images of {per_image} pixels)")
    pixels = np.frombuffer(raw, dtype="<f8", count=count * per_image, offset=4)
    images = pixels.reshape(count, cfg.conv[0].channels, cfg.conv[0].input_side,
                            cfg.conv[0].input_side).astype(np.float64)
    labels = np.frombuffer(raw, dtype=np.uint8, offset=4 + count * per_image * 8)
    return images, labels.astype(int)
