import json
import os
from pathlib import Path

import pytest

from pixtext.cli import main
from pixtext.datagen import TaskSpec, generate, save_dataset
from pixtext.harness import load_run
from pixtext.pipeline import micro_config, toy_config
from pixtext.tensor import read_dct1


@pytest.fixture()
def micro_dataset_dir(tmp_path, micro_spec):
    samples = generate(micro_spec, 8, seed=3)
    path = tmp_path / "data"
    save_dataset(micro_spec, samples, path)
    return path


def run_config(tmp_path, steps=3, mode="coop", seed=1):
    cfg = {
        "mode": mode,
        "seed": seed,
        "pipeline": micro_config(mode).to_dict(),
        "optim": {"steps": steps, "seed": seed},
        "train_fraction": 0.75,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_dataset_directory(self, tmp_path):
        spec = TaskSpec(k=3, height=16, width=16, shape_min_px=4, shape_max_px=8, seed=1)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "ds"
        rc = main(["synth", "--spec", str(spec_path), "--out", str(out), "--n", "4",
                   "--seed", "5"])
        assert rc == 0
        images = read_dct1(out / "images.dct1")
        assert images.shape == (4, 16, 16, 3)
        assert json.loads((out / "spec.json").read_text())["k"] == 3

    def test_default_spec_literal(self, tmp_path):
        out = tmp_path / "ds"
        rc = main(["synth", "--spec", "default", "--out", str(out), "--n", "2", "--seed", "0"])
        assert rc == 0
        assert read_dct1(out / "images.dct1").shape == (2, 32, 32, 3)


class TestTrainEval:
    def test_train_then_eval_roundtrip(self, tmp_path, micro_dataset_dir):
        cfg = run_config(tmp_path)
        ckpt = tmp_path / "ckpt"
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
                   "--out", str(ckpt), "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["loss_series"]) == 3
        assert report["config"]["pipeline"]["loss"]["temperature"] == 0.07
        assert (ckpt / "manifest.json").exists()

        eval_report = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(micro_dataset_dir), "--ckpt", str(ckpt),
                   "--report", str(eval_report)])
        assert rc == 0
        data = json.loads(eval_report.read_text())
        assert data["n_samples"] == 8
        assert 0.0 <= data["miou"] <= 1.0
        assert data["text_fwd_infer"] == 0  # cached language path

    def test_eval_prediction_export(self, tmp_path, micro_dataset_dir):
        cfg = run_config(tmp_path, steps=1)
        ckpt = tmp_path / "ckpt"
        main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
              "--out", str(ckpt), "--report", str(tmp_path / "r.json")])
        preds = tmp_path / "preds"
        main(["eval", "--data", str(micro_dataset_dir), "--ckpt", str(ckpt),
              "--report", str(tmp_path / "e.json"),
              "--export-predictions", str(preds), "--format", "pgm"])
        files = sorted(os.listdir(preds))
        assert files[0] == "pred_0000.pgm"
        assert (preds / files[0]).read_text().startswith("P2\n8 8\n")

    def test_seed_env_override(self, tmp_path, micro_dataset_dir, monkeypatch):
        cfg = run_config(tmp_path, steps=1, seed=1)
        monkeypatch.setenv("DENSECLIP_SEED", "77")
        report_path = tmp_path / "report.json"
        main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
              "--out", str(tmp_path / "ckpt"), "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["seed"] == 77

    def test_determinism_across_invocations(self, tmp_path, micro_dataset_dir):
        reports = []
        for tag in ("a", "b"):
            cfg = run_config(tmp_path, steps=4, seed=9)
            report_path = tmp_path / f"report_{tag}.json"
            main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
                  "--out", str(tmp_path / f"ckpt_{tag}"), "--report", str(report_path)])
            data = json.loads(report_path.read_text())
            data.pop("wall_time_s")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]


class TestRunConfigBoundary:
    """Keys that no longer exist, or never did, fail where the config
    enters, naming the key; nothing is silently ignored."""

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg.update(freeze_text=False), "freeze_text"),
        (lambda cfg: cfg["pipeline"].update(freeze_text=False), "freeze_text"),
        (lambda cfg: cfg["optim"].update(multipliers={"text": 0.1}), "'text'"),
    ], ids=["run.freeze_text", "pipeline.freeze_text", "optim.multipliers.text"])
    def test_unknown_key_named(self, tmp_path, micro_dataset_dir, edit, key):
        path = run_config(tmp_path)
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        with pytest.raises((TypeError, ValueError), match=key):
            main(["train", "--data", str(micro_dataset_dir), "--config", str(path),
                  "--out", str(tmp_path / "ckpt"), "--report", str(tmp_path / "r.json")])
        assert not (tmp_path / "ckpt").exists()

    def test_mode_and_pipeline_disagree(self, tmp_path, micro_dataset_dir):
        path = run_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["mode"] = "post"  # the pipeline object says coop
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="'post'.*'coop'"):
            main(["train", "--data", str(micro_dataset_dir), "--config", str(path),
                  "--out", str(tmp_path / "ckpt"), "--report", str(tmp_path / "r.json")])
        assert not (tmp_path / "ckpt").exists()


class TestReadmeExample:
    def test_run_config_loads(self):
        # the first JSON block of README's CLI section is a valid run config
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## CLI\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        run = json.loads(example)
        pipe_cfg, optim = load_run(run)
        assert pipe_cfg == toy_config(run["mode"])
        assert optim.seed == run["seed"] and optim.steps == run["optim"]["steps"]


class TestGradcheckCommand:
    def test_passes_with_default_tolerances(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradient checks passed" in out
        assert "FAIL" not in out

    def test_nonzero_exit_on_failure(self, capsys):
        # an absurd tolerance fails every check; the exit code must say so
        rc = main(["gradcheck", "--tol", "1e-42", "--e2e-tol", "1e-42"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out


class TestAblateCommand:
    def test_emits_csv_table(self, tmp_path, micro_dataset_dir):
        suite = {
            "seed": 2,
            "train_fraction": 0.75,
            "rows": [
                {"name": "baseline", "mode": "none",
                 "pipeline": micro_config(None).to_dict(), "optim": {"steps": 2}},
                {"name": "coop", "mode": "coop",
                 "pipeline": micro_config("coop").to_dict(), "optim": {"steps": 2}},
            ],
        }
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite))
        out_csv = tmp_path / "table.csv"
        rc = main(["ablate", "--data", str(micro_dataset_dir), "--suite", str(suite_path),
                   "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "config_name,miou,final_loss,params,text_fwd_train,text_fwd_infer"
        assert lines[1].startswith("baseline,")
        assert lines[2].startswith("coop,")
