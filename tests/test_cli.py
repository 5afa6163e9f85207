import json
import time
from pathlib import Path

import numpy as np
import pytest

from lhecnn.cli import main
from lhecnn.config import (
    RunSettings,
    load_config,
    parse_config,
    read_dataset,
    write_dataset,
)
from lhecnn.geometry import preset
from lhecnn.lhe import serialized_size


def mnist_config(tmp_path, n=8, slots=512, levels=6, lr=0.3, epochs=1, seed=3):
    # a scaled-down single-conv model
    data = {
        "model": {
            "conv": [{"channels": 1, "input_side": 8, "filters": 2,
                      "filter_side": 3, "stride": 3}],
            "fc": [{"inputs": 2 * 4, "outputs": 4}, {"inputs": 4, "outputs": 3}],
        },
        "lhe": {"slots": slots, "levels": levels, "noise_sigma": 0},
        "run": {"n": n, "r_mode": 1, "lr": lr, "epochs": epochs, "seed": seed},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def make_dataset(tmp_path, cfg_path, count, seed=0, name="data.bin"):
    rc = load_config(cfg_path)
    rng = np.random.default_rng(seed)
    side = rc.model.conv[0].input_side
    images = rng.normal(size=(count, rc.model.conv[0].channels, side, side)) * 0.5
    labels = rng.integers(0, rc.model.fc[-1].outputs, size=count)
    path = tmp_path / name
    write_dataset(path, images, labels)
    return str(path), images, labels


class TestDatasetFormat:
    def test_roundtrip(self, tmp_path):
        cfg_path = mnist_config(tmp_path)
        rc = load_config(cfg_path)
        path, images, labels = make_dataset(tmp_path, cfg_path, 8)
        got_images, got_labels = read_dataset(path, rc.model)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_header_is_little_endian_count(self, tmp_path):
        cfg_path = mnist_config(tmp_path)
        path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        raw = Path(path).read_bytes()
        assert int.from_bytes(raw[:4], "little") == 8
        assert len(raw) == 4 + 8 * 64 * 8 + 8

    def test_truncated_file_rejected(self, tmp_path):
        cfg_path = mnist_config(tmp_path)
        rc = load_config(cfg_path)
        path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-3])
        with pytest.raises(ValueError):
            read_dataset(path, rc.model)


class TestConfigParsing:
    def test_an_empty_run_block_parses_to_the_run_defaults(self, tmp_path):
        data = json.loads(Path(mnist_config(tmp_path)).read_text())
        data["run"] = {}
        assert parse_config(data).run == RunSettings()
        del data["run"]
        assert parse_config(data).run == RunSettings()

    @pytest.mark.parametrize("value", ["false", "true", 0, None])
    def test_exact_activation_grad_must_be_a_boolean(self, tmp_path, capsys, value):
        path = mnist_config(tmp_path)
        data = json.loads(Path(path).read_text())
        data["run"]["exact_activation_grad"] = value
        with pytest.raises(ValueError, match="must be true or false"):
            parse_config(data)
        Path(path).write_text(json.dumps(data))
        assert main(["plan", "--config", path]) == 2
        assert "must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, False])
    def test_exact_activation_grad_reads_a_boolean(self, tmp_path, value):
        data = json.loads(Path(mnist_config(tmp_path)).read_text())
        data["run"]["exact_activation_grad"] = value
        assert parse_config(data).run.exact_activation_grad is value


class TestPlan:
    def test_plan_prints_reference_counts(self, tmp_path, capsys):
        cfg = {
            "model": {
                "conv": [{"channels": 1, "input_side": 28, "filters": 4,
                          "filter_side": 7, "stride": 3}],
                "fc": [{"inputs": 256, "outputs": 64}, {"inputs": 64, "outputs": 10}],
            },
            "lhe": {"slots": 4096, "levels": 6},
            "run": {"n": 64},
        }
        path = tmp_path / "cnn12.json"
        path.write_text(json.dumps(cfg))
        assert main(["plan", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(192, 196, 0, 0)" in out      # CL1
        assert "(576, 256, 384, 0)" in out    # FL1
        assert "(63, 64, 0, 0)" in out        # FL2
        assert "49 encryptions" in out
        # the logits of the dry run sit at level 0: all six levels are spent
        assert "inference uses 6 of 6 levels" in out.splitlines()

    def test_plan_refining_preset_geometry(self, capsys):
        assert main(["plan", "--config", "preset:refining-2-2"]) == 0
        out = capsys.readouterr().out
        assert "(6, 2)" in out
        assert "grid side:             8" in out
        assert "inference uses 8 of 10 levels" in out.splitlines()

    @staticmethod
    def constant_slope_r22(tmp_path, levels=10):
        p = preset("refining-2-2")
        path = tmp_path / "r22.json"
        path.write_text(json.dumps({
            "model": {"conv": [vars(c) for c in p.model.conv],
                      "fc": [vars(f) for f in p.model.fc]},
            "lhe": {"slots": p.lhe.slot_count, "levels": levels},
            "run": {"n": p.model.n, "r_mode": 1, "exact_activation_grad": False},
        }))
        return str(path)

    def test_plan_runs_a_refining_round(self, tmp_path, capsys):
        assert main(["plan", "--config", self.constant_slope_r22(tmp_path)]) == 0
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        # the refine-r22 benchmark pins, here on zero inputs
        assert "round total (5735, 1012, 4624, 572)" in lines
        assert "re-encryptions 5" in lines
        assert "TEE in 6 cts / 393312 bytes" in lines
        assert "TEE out 5 cts / 327760 bytes" in lines
        assert "lowest level 0" in lines
        stages = [line.split()[0] for line in lines if line.startswith("bwd.")]
        assert stages == ["bwd.FL2", "bwd.FL1", "bwd.CL2", "bwd.CL1"]

    def test_plan_catches_a_round_that_fits_only_from_fresh_parameters(self, tmp_path,
                                                                       capsys):
        # at 9 levels the first round fits; the second, whose parameters start
        # below the top level, runs out in bwd.FL2
        assert main(["plan", "--config", self.constant_slope_r22(tmp_path, 9)]) == 0
        out = capsys.readouterr().out
        assert "refining round does not fit:" in out
        assert "in scope 'bwd.FL2' (round 2)" in out

    def test_plan_reports_a_refining_round_that_does_not_fit(self, capsys):
        # exact gradients need more than the preset's 10 levels
        assert main(["plan", "--config", "preset:refining-2-2"]) == 0
        out = capsys.readouterr().out
        assert "refining round does not fit:" in out
        assert "in scope 'bwd.CL2'" in out

    def test_plan_skips_refining_with_cross_layouts(self, tmp_path, capsys):
        path = mnist_config(tmp_path, slots=64)
        data = json.loads(Path(path).read_text())
        data["run"]["r_mode"] = "auto"
        Path(path).write_text(json.dumps(data))
        assert main(["plan", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "(using 2)" in out and "refining needs r = 1" in out

    def test_plan_inference_level_exhaustion_exits_3(self, tmp_path, capsys):
        assert main(["plan", "--config", mnist_config(tmp_path, levels=3)]) == 3
        assert "level exhausted" in capsys.readouterr().err

    def test_infeasible_config_exits_2(self, tmp_path, capsys):
        # the second layer's kernel exceeds its input side
        cfg = {
            "model": {
                "conv": [{"channels": 1, "input_side": 4, "filters": 1,
                          "filter_side": 3, "stride": 1},
                         {"channels": 1, "input_side": 2, "filters": 1,
                          "filter_side": 3, "stride": 1}],
                "fc": [{"inputs": 1, "outputs": 2}],
            },
            "lhe": {"slots": 64, "levels": 8},
            "run": {"n": 2},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["plan", "--config", str(path)]) == 2

    def test_slot_overflow_exits_2(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "model": {
                "conv": [{"channels": 1, "input_side": 10, "filters": 1,
                          "filter_side": 2, "stride": 1}],
                "fc": [{"inputs": 81, "outputs": 2}],
            },
            "lhe": {"slots": 64, "levels": 8},
            "run": {"n": 8},
        }))
        assert main(["plan", "--config", str(path)]) == 2

    def test_missing_file_exits_4(self):
        assert main(["plan", "--config", "/nonexistent/x.json"]) == 4


class TestInferCommand:
    def test_infer_report_matches_plan_and_levels(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path)
        model_dir = str(tmp_path / "model")
        assert main(["init-model", "--config", cfg_path, "--model", model_dir]) == 0
        data_path, images, _ = make_dataset(tmp_path, cfg_path, 8)
        report_path = str(tmp_path / "report.csv")
        out_path = str(tmp_path / "logits.csv")
        assert main(["infer", "--config", cfg_path, "--model", model_dir,
                     "--inputs", data_path, "--report", report_path,
                     "--out", out_path, "--format", "csv"]) == 0
        rows = Path(report_path).read_text().strip().splitlines()
        assert rows[0] == "scope,level,add,mul,rot,cmul"
        # stage rows appear with the counts the static plan predicts
        assert any(r.startswith("CL1,5,16,18,0,0") for r in rows)
        logits = np.loadtxt(out_path, delimiter=",")
        assert logits.shape == (8, 3)

    def test_text_format_renders_amortized_row(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path)
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--model", model_dir,
                     "--inputs", data_path, "--format", "text"]) == 0
        assert "amortized:" in capsys.readouterr().out

    def test_wrong_input_count_exits_2(self, tmp_path):
        cfg_path = mnist_config(tmp_path)
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 5)
        assert main(["infer", "--config", cfg_path, "--model", model_dir,
                     "--inputs", data_path]) == 2

    @pytest.mark.parametrize("key, value", [("exact_activation_grad", "yes"), ("cells", "")])
    def test_a_bad_manifest_flag_or_cells_name_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = mnist_config(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["init-model", "--config", cfg_path, "--model", str(model_dir)]) == 0
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        manifest = model_dir / "session.manifest"
        manifest.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                    else line for line in manifest.read_text().splitlines(True)))
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--model", str(model_dir),
                     "--inputs", data_path]) == 2
        assert f"bad configuration: session manifest {key} is" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lhe", "-1"), ("model", "-1"), ("lhe", "{}"), ("model", "{}"),
        ("lhe", '{"slots": 4096}'),
    ], ids=["lhe-number", "model-number", "lhe-empty", "model-empty", "lhe-without-levels"])
    def test_a_manifest_lhe_or_model_without_its_fields_exits_2(self, tmp_path, capsys,
                                                                 key, value):
        cfg_path = mnist_config(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["init-model", "--config", cfg_path, "--model", str(model_dir)]) == 0
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        manifest = model_dir / "session.manifest"
        manifest.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                    else line for line in manifest.read_text().splitlines(True)))
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--model", str(model_dir),
                     "--inputs", data_path]) == 2
        assert (f"bad configuration: session manifest {key} is {value!r}: "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("n", "x"), ("r", "x"), ("key_hash", "x"), ("n", "0"), ("n", " 8"), ("n", "٨"),
    ], ids=["n-word", "r-word", "key-hash-word", "n-zero", "n-leading-space",
            "n-arabic-indic-digit"])
    def test_a_manifest_integer_that_is_not_one_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = mnist_config(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["init-model", "--config", cfg_path, "--model", str(model_dir)]) == 0
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        manifest = model_dir / "session.manifest"
        manifest.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                    else line for line in manifest.read_text().splitlines(True)))
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--model", str(model_dir),
                     "--inputs", data_path]) == 2
        assert (f"bad configuration: session manifest {key} is {value!r}: "
                in capsys.readouterr().err)

    def test_a_manifest_key_given_twice_exits_2(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["init-model", "--config", cfg_path, "--model", str(model_dir)]) == 0
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        manifest = model_dir / "session.manifest"
        manifest.write_text(manifest.read_text() + "n = 8\n")
        capsys.readouterr()
        assert main(["infer", "--config", cfg_path, "--model", str(model_dir),
                     "--inputs", data_path]) == 2
        assert "bad configuration: session manifest holds n twice" in capsys.readouterr().err

    def test_a_config_whose_lhe_block_differs_from_the_models_exits_2(self, tmp_path,
                                                                       capsys):
        # The model was written at 10 levels; a 16-level config would build a
        # TEE whose parameters are not the session's, and refine the model
        # under them.  Both commands refuse it before any image is
        # encrypted, naming both parameter sets, and the model is left as it
        # was.
        cfg_path = mnist_config(tmp_path, levels=10)
        model_dir = str(tmp_path / "model")
        assert main(["init-model", "--config", cfg_path, "--model", model_dir]) == 0
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        (tmp_path / "other").mkdir()
        other = mnist_config(tmp_path / "other", levels=16)
        before = sorted((p.name, p.read_bytes()) for p in (tmp_path / "model").iterdir())
        capsys.readouterr()
        for args in (["infer", "--inputs", data_path], ["refine", "--data", data_path]):
            assert main([*args[:1], "--config", other, "--model", model_dir, *args[1:]]) == 2
            err = capsys.readouterr().err
            assert "max_level=16" in err and "max_level=10" in err
        assert sorted((p.name, p.read_bytes()) for p in (tmp_path / "model").iterdir()) == before


class TestRefineCommand:
    def test_lr_zero_persists_identical_model(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path, levels=16)
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        (before,) = (tmp_path / "model").glob("cells-*.lhe")
        before = before.read_bytes()
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        out_dir = str(tmp_path / "refined")
        assert main(["refine", "--config", cfg_path, "--model", model_dir,
                     "--data", data_path, "--lr", "0", "--out", out_dir]) == 0
        (after,) = (tmp_path / "refined").glob("cells-*.lhe")
        after = after.read_bytes()
        # one row per cell: its 16-byte header (two float64 widths), then its
        # slots; only the slots are compared, not the levels in the headers
        size = serialized_size(load_config(cfg_path).lhe.slot_count)
        got, want = (np.frombuffer(raw, "<f8").reshape(-1, size // 8)[:, 2:]
                     for raw in (after, before))
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_prints_tee_accounting_matching_closed_form(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path, levels=16)
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        capsys.readouterr()
        assert main(["refine", "--config", cfg_path, "--model", model_dir,
                     "--data", data_path, "--lr", "0.1", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        # loss head 1 + fc grads ceil(4*2/8) + ceil(1*4/8) + conv ceil(2*9/8) = 6
        assert "6 re-encryptions" in out
        assert "6 per round" in out

    def test_three_epochs_loss_trend(self, tmp_path, capsys):
        cfg_path = mnist_config(tmp_path, levels=16, lr=0.5)
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8, seed=5)
        capsys.readouterr()
        assert main(["refine", "--config", cfg_path, "--model", model_dir,
                     "--data", data_path, "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        losses = [float(line.split()[-1]) for line in out.splitlines()
                  if line.startswith("round")]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_level_exhaustion_exits_3(self, tmp_path):
        cfg_path = mnist_config(tmp_path, levels=6)  # too few for a round
        model_dir = str(tmp_path / "model")
        main(["init-model", "--config", cfg_path, "--model", model_dir])
        data_path, _, _ = make_dataset(tmp_path, cfg_path, 8)
        assert main(["refine", "--config", cfg_path, "--model", model_dir,
                     "--data", data_path, "--lr", "0.1"]) == 3


class TestSelftest:
    def test_passes_out_of_the_box_quickly(self, capsys):
        start = time.time()
        assert main(["selftest-example"]) == 0
        assert time.time() - start < 1.0
        out = capsys.readouterr().out
        assert "selftest passed" in out

    def test_corrupted_weight_fails_with_diff(self, capsys):
        assert main(["selftest-example", "--corrupt-weight"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "got" in out and "want" in out
