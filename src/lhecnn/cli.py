"""Command-line interface.

Commands: ``plan`` (geometry, and the counts of a dry run of inference and
of a refining round on zero images), ``init-model`` (create an
encrypted base model directory), ``infer``, ``refine``, and
``selftest-example`` (golden check of the worked packing example).

Exit codes: 0 success, 2 configuration error, 3 level exhaustion, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, read_dataset
from .geometry import CnnConfig, ConvLayer, FcLayer, GeometryError, combined_geometry
from .lhe import LevelExhausted, LheParams, SimulatorBackend
from .metering import PRIMITIVE_KINDS, OpMeter
from .oracle import init_params
from .packing import empty_weights, encode_inputs, encode_params
from .refine import RefineSession
from .tee import TeeService

EXIT_CONFIG = 2
EXIT_LEVELS = 3
EXIT_IO = 4


def _tee(rc: RunConfig) -> TeeService:
    """A TEE over a fresh metered backend, keyed by the run's seed."""
    return TeeService(SimulatorBackend(OpMeter()), rc.lhe, seed=rc.run.seed)


def _session(rc: RunConfig) -> RefineSession:
    return RefineSession(_tee(rc), rc.model, rc.lhe, r_mode=rc.run.r_mode,
                         exact_activation_grad=rc.run.exact_activation_grad)


def _print_stages(per_scope: dict[str, dict[str, int]]) -> None:
    for scope, per in per_scope.items():
        if scope.startswith("enc."):
            print(f"  {scope:<18} {per['encrypt']} encryptions")
        else:
            print(f"  {scope:<18} {tuple(per[k] for k in PRIMITIVE_KINDS)}")


def cmd_plan(args) -> int:
    """Dry run: the real pipeline on zero images, printing the meter's counts."""
    rc = load_config(args.config)
    session = _session(rc)
    geo, cfg = session.geo, rc.model
    print(f"combined kernel sides: {geo.kernel_sides}")
    print(f"combined strides:      {geo.strides}")
    print(f"grid side:             {geo.grid_side} "
          f"({cfg.n} x {geo.grid_side}^2 = {geo.seg_slots} slots per channel)")
    print(f"packing factor r:      {geo.packing_factor} (using {session.r})")
    print(f"conv layouts:          {', '.join(session.layouts)}")
    session.load_base_model(init_params(cfg, rc.run.seed))
    first = cfg.conv[0]
    images = np.zeros((cfg.n, first.channels, first.input_side, first.input_side))
    logits, _ = session.infer(images)
    used = rc.lhe.max_level - min(ct.level for ct in logits.cts())
    print(f"inference uses {used} of {rc.lhe.max_level} levels")
    print("inference stage counts (add, mul, rot, cmul):")
    _print_stages(session.meter.scope_totals())
    if session.r > 1:
        print("refining round: not planned, refining needs r = 1")
        return 0
    # The first round leaves the parameters below the top level, where every
    # later round starts, so only the second round shows the steady levels.
    for rnd in (1, 2):
        try:
            result = session.refine(images, np.zeros(cfg.n, dtype=int), lr=rc.run.lr)
        except LevelExhausted as exc:
            print(f"refining round does not fit: {exc} (round {rnd})")
            return 0
    report, t = result.report, result.tee_delta
    print("refining round stage counts, steady state (add, mul, rot, cmul):")
    _print_stages({scope: per for scope, per in report.per_scope.items()
                   if scope.startswith("bwd.")})
    print(f"  {'round total':<18} {report.total_tuple()}")
    print(f"  {'re-encryptions':<18} {t.reencryptions}")
    print(f"  {'TEE in':<18} {t.cts_in} cts / {t.bytes_in} bytes")
    print(f"  {'TEE out':<18} {t.cts_out} cts / {t.bytes_out} bytes")
    print(f"  {'lowest level':<18} {min(report.per_level)}")
    return 0


def cmd_init_model(args) -> int:
    rc = load_config(args.config)
    session = _session(rc)
    session.load_base_model(init_params(rc.model, rc.run.seed))
    session.save(args.model)
    print(f"encrypted base model written to {args.model}")
    return 0


def cmd_infer(args) -> int:
    rc = load_config(args.config)
    session = RefineSession.load(_tee(rc), args.model)
    images, _labels = read_dataset(args.inputs, session.cfg)
    if images.shape[0] != session.cfg.n:
        raise ValueError(f"inference takes exactly n={session.cfg.n} images")
    logits, report = session.infer(images)
    values = session.reveal_outputs(logits)
    if args.out:
        np.savetxt(args.out, values, delimiter=",")
        print(f"logits written to {args.out}")
    if args.report:
        Path(args.report).write_text(report.to_csv(), encoding="utf-8")
        print(f"report written to {args.report}")
    print(report.to_csv() if args.format == "csv" else report.to_text(), end="")
    return 0


def cmd_refine(args) -> int:
    rc = load_config(args.config)
    session = RefineSession.load(_tee(rc), args.model)
    images, labels = read_dataset(args.data, session.cfg)
    lr = args.lr if args.lr is not None else rc.run.lr
    epochs = args.epochs if args.epochs is not None else rc.run.epochs
    result = session.refine(images, labels, lr=lr, epochs=epochs)
    for i, loss in enumerate(result.losses):
        print(f"round {i + 1}: loss {loss:.6f}")
    t = result.tee_delta
    print(f"TEE accounting: {t.reencryptions} re-encryptions in {t.requests} requests "
          f"({result.rounds} rounds, {session.expected_reencryptions_per_round()} per round)")
    print(f"TEE traffic: {t.cts_in} cts / {t.bytes_in} bytes in, "
          f"{t.cts_out} cts / {t.bytes_out} bytes out")
    session.save(args.out or args.model)
    print(f"refined model written to {args.out or args.model}")
    if args.report:
        Path(args.report).write_text(result.report.to_csv(), encoding="utf-8")
        print(f"report written to {args.report}")
    return 0


def _example_config() -> tuple[CnnConfig, LheParams]:
    # Two 8x8 inputs, two 2x2 stride-2 conv layers, then 4 -> 2 -> 2 dense.
    cfg = CnnConfig(
        conv=(ConvLayer(1, 8, 2, 2, 2), ConvLayer(2, 4, 1, 2, 2)),
        fc=(FcLayer(4, 2), FcLayer(2, 2)),
        n=2,
    )
    return cfg, LheParams(8, 6)


def cmd_selftest(args) -> int:
    cfg, params = _example_config()
    backend = SimulatorBackend(OpMeter())
    ctx = backend.keygen(params, seed=1)
    geo = combined_geometry(cfg, params)

    failures: list[str] = []

    def check(name: str, got, want) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.array_equal(got, want):
            failures.append(f"{name}: got {got.tolist()}, want {want.tolist()}")
        else:
            print(f"  ok: {name} = {np.asarray(got).tolist()}")

    # Input packing: 16 ciphertexts of 8 slots, 4 pi-sets of 2 images each.
    images = np.arange(2 * 1 * 8 * 8, dtype=float).reshape(2, 1, 8, 8)
    packed = encode_inputs(backend, ctx, images, geo)
    check("input ciphertext count", [len(packed.cells)], [16])
    check("slots per ciphertext", [packed.cells[(0, 0, 0)].slot_count], [8])
    expect00 = [images[j, 0, 4 * s, 4 * t] for s in range(2) for t in range(2)
                for j in range(2)]
    check("cell (0,0,0) slot layout", backend.decrypt(ctx, packed.cells[(0, 0, 0)]),
          expect00)

    # Dense layer walk-through on the documented values.
    fl_input = backend.encrypt(ctx, [20, 40, 28, 56, 84, 168, 92, 184])
    weights_row = np.array([[1.0, 0.0, 0.0, 1.0]])
    if args.corrupt_weight:
        weights_row[0, 0] = 9.0  # negative control: must make the chain fail
    packed_w = encode_params(backend, ctx, weights_row, empty_weights(
        "type1", weights_row.shape, cfg.n, params.slot_count, in_cts=1, pi_per_ct=4))
    check("weight ciphertext", backend.decrypt(ctx, packed_w.cells[(0, 0)]),
          [1, 1, 0, 0, 0, 0, 1, 1])

    masked = backend.mul(fl_input, packed_w.cells[(0, 0)])
    check("after multiply", backend.decrypt(ctx, masked),
          [20, 40, 0, 0, 0, 0, 92, 184])
    step1 = backend.add(masked, backend.rot(masked, 2))
    check("after rotate-add by one pi-set", backend.decrypt(ctx, step1),
          [20, 40, 0, 0, 92, 184, 112, 224])
    step2 = backend.add(step1, backend.rot(step1, 4))
    check("after rotate-add by two pi-sets", backend.decrypt(ctx, step2),
          [112, 224, 112, 224, 112, 224, 112, 224])

    from .forward import fl_forward
    from .packing import FL_TYPE1, PackedTensor

    tensor = PackedTensor({(0,): fl_input}, FL_TYPE1, 2, pi_sets=4)
    out = fl_forward(backend, tensor, packed_w)
    check("dense-layer operation output", backend.decrypt(ctx, out.cells[(0,)]),
          backend.decrypt(ctx, step2))

    if failures:
        print("selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("selftest passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhecnn",
        description="Packed leveled-HE CNN inference and TEE-assisted refining (simulator)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print geometry and the op counts of a dry run")
    p.add_argument("--config", required=True, help="JSON config file or preset:NAME")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("init-model", help="create an encrypted base model directory")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="output directory")
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser("infer", help="run encrypted inference")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="encrypted model directory")
    p.add_argument("--inputs", required=True, help="binary dataset file")
    p.add_argument("--report", help="write the CSV op report here")
    p.add_argument("--out", help="write decrypted logits (CSV) here")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("refine", help="run encrypted refining rounds")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="binary dataset file")
    p.add_argument("--lr", type=float, help="learning rate (default from config)")
    p.add_argument("--epochs", type=int, help="epochs (default from config)")
    p.add_argument("--out", help="write the refined model here instead of in place")
    p.add_argument("--report", help="write the CSV op report here")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("selftest-example",
                       help="verify the worked dense-layer example end to end")
    p.add_argument("--corrupt-weight", action="store_true",
                   help="negative control: corrupt one weight slot and expect failure")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LevelExhausted as exc:
        print(f"error: level exhausted: {exc}", file=sys.stderr)
        return EXIT_LEVELS
    except (GeometryError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
