import numpy as np
import pytest

from lhecnn.geometry import CnnConfig, ConvLayer, FcLayer
from lhecnn.lhe import LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.packing import empty_weights, encode_params
from lhecnn.tee import TeeService


@pytest.fixture
def meter():
    return OpMeter()


@pytest.fixture
def backend(meter):
    return SimulatorBackend(meter)


def encode_weights(backend, ctx, matrix, kind, n, in_cts=0, pi_per_ct=0):
    """Encrypt a weight matrix into an fc container of ``kind``."""
    return encode_params(backend, ctx, matrix, empty_weights(
        kind, matrix.shape, n, ctx.params.slot_count, in_cts, pi_per_ct))


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
