"""The benchmark workloads: configuration, one step, its correctness check and
its exact pins.

Every workload drives the public library API the way a caller would: a model
directory is written once, sessions are opened with ``RefineSession.load``,
and one step is one batch of ``n`` images through ``infer`` +
``reveal_outputs`` or through one ``refine`` round.  The session always runs
with ``threads=1``.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from lhecnn import (
    LheParams,
    OpMeter,
    RefineSession,
    SimulatorBackend,
    TeeService,
    init_params,
    plain_forward,
    preset,
)
from lhecnn.geometry import CnnConfig
from lhecnn.metering import OpReport
from lhecnn.oracle import PlainParams, softmax_cross_entropy
from lhecnn.tee import BoundaryStats

from reference import constant_slope_step

LR = 0.05
FORWARD_TOL = 1e-9   # revealed logits and round loss against the oracle
ROUND_TOL = 1e-8     # refined parameters against the plaintext SGD step


@dataclass(frozen=True)
class Pins:
    """Exact per-step figures; a step that differs fails the run."""

    ops: tuple[int, int, int, int]   # (add, mul, rot, cmul)
    modelled_us: float               # CostTable.default() latency, steady state
    bytes_in: int                    # BoundaryStats bytes into the TEE
    bytes_out: int
    reencryptions: int
    first_modelled_us: float | None = None  # first step, where it differs


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: CnnConfig
    lhe: LheParams
    r_mode: object
    refine: bool
    warmup: int   # steps run and checked but left out of the timings
    pins: Pins


_CNN12 = preset("cnn-1-2")
_R22 = preset("refining-2-2")

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "infer-cnn12", _CNN12.model, _CNN12.lhe, "auto", refine=False, warmup=5,
            pins=Pins((831, 584, 384, 0), 10_030_337.0, 32_784, 0, 0)),
        Workload(
            "infer-r22-wide", _R22.model, LheParams(32768, 10), "auto",
            refine=False, warmup=5,
            pins=Pins((435, 252, 264, 0), 10_045_237.0, 262_160, 0, 0)),
        Workload(
            "refine-r22", _R22.model, _R22.lhe, 1, refine=True, warmup=2,
            pins=Pins((5735, 1012, 4624, 572), 127_024_443.0, 393_312, 327_760, 5,
                      first_modelled_us=145_370_595.0)),
    )
}


def make_batch(wl: Workload, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` images with N(0, 0.2^2) pixels and uniform labels."""
    first = wl.cfg.conv[0]
    images = rng.normal(size=(wl.cfg.n, first.channels, first.input_side,
                              first.input_side)) * 0.2
    labels = rng.integers(0, wl.cfg.fc[-1].outputs, size=wl.cfg.n)
    return images, labels


def write_model(wl: Workload, seed: int, path: Path) -> PlainParams:
    """Encrypt the seed's initial model and save it as a session directory."""
    tee = TeeService(SimulatorBackend(OpMeter()), wl.lhe, seed=seed)
    session = RefineSession(tee, wl.cfg, wl.lhe, r_mode=wl.r_mode,
                            exact_activation_grad=False)
    plain = init_params(wl.cfg, seed)
    session.load_base_model(plain)
    session.save(path)
    return plain


@dataclass(frozen=True)
class Kit:
    """Constructors for the objects a session is built from."""

    meter: Callable[[], OpMeter] = OpMeter
    backend: Callable[[OpMeter], SimulatorBackend] = SimulatorBackend
    tee: Callable[..., TeeService] = TeeService


def open_session(wl: Workload, seed: int, path: Path,
                 kit: Kit = Kit()) -> tuple[RefineSession, int]:
    """Key generation, session construction and load; returns the session
    and the nanoseconds the load alone took."""
    tee = kit.tee(kit.backend(kit.meter()), wl.lhe, seed=seed)
    start = time.perf_counter_ns()
    session = RefineSession.load(tee, path, threads=1)
    return session, time.perf_counter_ns() - start


def _stats_delta(after: BoundaryStats, before: BoundaryStats) -> BoundaryStats:
    return BoundaryStats(**{k: getattr(after, k) - v for k, v in vars(before).items()})


@dataclass
class Step:
    ns: int
    counts: Counter         # meter delta of the timed step
    tee: BoundaryStats      # boundary delta of the timed step
    modelled_us: float
    rel_err: float


class StepFailed(Exception):
    """The step ran but its output or its counts are wrong."""


class Runner:
    """One closed-loop caller: submit a batch, wait, check, repeat."""

    def __init__(self, wl: Workload, session: RefineSession, model: PlainParams,
                 seed: int, around=contextlib.nullcontext):
        self.wl = wl
        self.around = around  # context entered around the timed part only
        self.session = session
        self.model = model   # plaintext model the next step starts from
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0

    def step(self) -> Step | None:
        """Run and check one step; returns None when it failed."""
        wl, session = self.wl, self.session
        images, labels = make_batch(wl, self.rng)
        first = self.attempted == 0
        self.attempted += 1
        try:
            mark = session.meter.checkpoint()
            before = session.tee.stats.snapshot()
            with self.around():
                start = time.perf_counter_ns()
                if wl.refine:
                    result = session.refine(images, labels, lr=LR)
                    output, report = result.losses[0], result.report
                else:
                    logits, report = session.infer(images)
                    output = session.reveal_outputs(logits)
                ns = time.perf_counter_ns() - start
            counts = session.meter.since(mark)
            tee = _stats_delta(session.tee.stats, before)
            self._check_pins(report, tee, first)
            rel_err = self._check_output(output, images, labels)
        except Exception:  # a failed step is counted, never fatal
            self.failed += 1
            print(f"{wl.name}: step {self.attempted} failed", flush=True)
            traceback.print_exc()
            return None
        return Step(ns, counts, tee, report.est_latency_us, rel_err)

    def _check_pins(self, report: OpReport, tee: BoundaryStats, first: bool) -> None:
        pins = self.wl.pins
        want_us = pins.first_modelled_us if first and pins.first_modelled_us else pins.modelled_us
        got = (report.total_tuple(), report.est_latency_us, tee.bytes_in,
               tee.bytes_out, tee.reencryptions)
        want = (pins.ops, want_us, pins.bytes_in, pins.bytes_out, pins.reencryptions)
        if got != want:
            raise StepFailed(f"pins differ: (ops, modelled us, bytes in, bytes out, "
                             f"re-encryptions) = {got}, expected {want}")

    def _check_output(self, output, images, labels) -> float:
        """Largest relative error against the plaintext reference."""
        wl = self.wl
        if not wl.refine:
            want = plain_forward(wl.cfg, self.model, images).logits
            err = float(np.abs(output - want).max() / np.abs(want).max())
            if not err < FORWARD_TOL:
                raise StepFailed(f"logits differ from the oracle by {err:.3g}")
            return err
        oracle_loss, _ = softmax_cross_entropy(
            plain_forward(wl.cfg, self.model, images).logits, labels)
        loss_err = abs(output - oracle_loss)
        if not loss_err < FORWARD_TOL:
            raise StepFailed(f"round loss differs from the oracle by {loss_err:.3g}")
        want, _ = constant_slope_step(wl.cfg, self.model, images, labels, LR)
        got = self.session.decrypted_model()
        param_err = max(
            float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())
            for a, b in zip(got.filters + got.weights, want.filters + want.weights))
        if not param_err < ROUND_TOL:
            raise StepFailed(f"refined parameters differ from the plaintext step "
                             f"by {param_err:.3g}")
        self.model = got
        return max(loss_err, param_err)
