import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from pixtext.cli import build_parser, main
from pixtext.datagen import TaskSpec, default_task, generate, load_dataset, save_dataset
from pixtext.harness import load_run, miou_from_pairs
from pixtext.pipeline import DensePredPipeline, micro_config, toy_config
from pixtext.tensor import ContractError, read_dct1


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

    def test_seed_defaults_to_the_specs_own(self, tmp_path):
        # the default task's seed is 7; without --seed synth must not use 0
        main(["synth", "--spec", "default", "--out", str(tmp_path / "cli"), "--n", "2"])
        save_dataset(default_task(), generate(default_task(), 2), tmp_path / "lib")
        assert ((tmp_path / "cli" / "images.dct1").read_bytes()
                == (tmp_path / "lib" / "images.dct1").read_bytes())

    @pytest.mark.parametrize("n", [0, -2])
    def test_count_below_one_rejected_before_writing(self, tmp_path, n):
        out = tmp_path / "ds"
        with pytest.raises(ContractError, match=f"^--n must be at least 1, got {n}$"):
            main(["synth", "--spec", "default", "--out", str(out), "--n", str(n)])
        assert not out.exists()


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

    def test_eval_exports_the_predictions_it_scored(self, tmp_path, micro_dataset_dir,
                                                     monkeypatch):
        cfg = run_config(tmp_path, steps=1)
        ckpt = tmp_path / "ckpt"
        main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
              "--out", str(ckpt), "--report", str(tmp_path / "r.json")])
        predicted = []
        predict = DensePredPipeline.predict

        def counting(pipe, images):
            predicted.append(len(images) if isinstance(images, list) else 1)
            return predict(pipe, images)

        monkeypatch.setattr(DensePredPipeline, "predict", counting)
        preds = tmp_path / "preds"
        main(["eval", "--data", str(micro_dataset_dir), "--ckpt", str(ckpt),
              "--report", str(tmp_path / "e.json"), "--export-predictions", str(preds)])
        assert sum(predicted) == 8
        _, samples = load_dataset(micro_dataset_dir)
        exported = [json.loads((preds / f"pred_{i:04d}.json").read_text())["classes"]
                    for i in range(len(samples))]
        _, miou = miou_from_pairs(zip((s.mask for s in samples), exported), 2)
        assert miou == json.loads((tmp_path / "e.json").read_text())["miou"]

    @pytest.mark.parametrize("names", [["sky", "ground"], ["background", "object_1", "object_2"]],
                             ids=["same_count", "more_classes"])
    def test_eval_rejects_other_class_names(self, tmp_path, micro_dataset_dir, names):
        cfg = run_config(tmp_path, steps=1)
        ckpt = tmp_path / "ckpt"
        main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
              "--out", str(ckpt), "--report", str(tmp_path / "r.json")])
        spec = TaskSpec(k=len(names), height=8, width=8, min_shapes=1, max_shapes=1,
                        shape_min_px=3, shape_max_px=5, seed=3, class_names=names)
        save_dataset(spec, generate(spec, 2, seed=4), tmp_path / "other")
        with pytest.raises(ContractError, match=re.escape(f"{names}") + ".*"
                           + re.escape("['background', 'object_1']")):
            main(["eval", "--data", str(tmp_path / "other"), "--ckpt", str(ckpt),
                  "--report", str(tmp_path / "e.json")])
        assert not (tmp_path / "e.json").exists()

    def test_seed_env_override(self, tmp_path, micro_dataset_dir, monkeypatch):
        cfg = run_config(tmp_path, steps=1, seed=1)
        monkeypatch.setenv("DENSECLIP_SEED", "77")
        report_path = tmp_path / "report.json"
        main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
              "--out", str(tmp_path / "ckpt"), "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["seed"] == 77

    def test_bad_seed_env_named(self, tmp_path, micro_dataset_dir, monkeypatch):
        cfg = run_config(tmp_path, steps=1, seed=1)
        monkeypatch.setenv("DENSECLIP_SEED", "seven")
        with pytest.raises(ValueError, match="DENSECLIP_SEED='seven' is not an integer"):
            main(["train", "--data", str(micro_dataset_dir), "--config", str(cfg),
                  "--out", str(tmp_path / "ckpt"), "--report", str(tmp_path / "r.json")])
        assert not (tmp_path / "ckpt").exists()

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

    @pytest.mark.parametrize("edit, error, pattern", [
        (lambda cfg: cfg.update(freeze_text=False), ContractError,
         r"^\S*run\.json: unknown key\(s\) \['freeze_text'\]"),
        (lambda cfg: cfg["pipeline"].update(freeze_text=False), ContractError,
         r"^pipeline in \S*run\.json: unknown key\(s\) \['freeze_text'\]"),
        (lambda cfg: cfg["optim"].update(multipliers={"text": 0.1}), ValueError,
         r"^OptimConfig\.multipliers must map some of .*'text'"),
    ], ids=["run.freeze_text", "pipeline.freeze_text", "optim.multipliers.text"])
    def test_unknown_key_named(self, tmp_path, micro_dataset_dir, edit, error, pattern):
        path = run_config(tmp_path)
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        with pytest.raises(error, match=pattern):
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

    @pytest.mark.parametrize("fraction", ["0.5", True, float("nan")])
    def test_train_fraction_checked_not_cast(self, tmp_path, micro_dataset_dir, fraction):
        # "0.5" used to train, cast by float()
        path = run_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["train_fraction"] = fraction
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=r"^train_fraction must be a finite number "
                                             r"in \(0, 1\)"):
            main(["train", "--data", str(micro_dataset_dir), "--config", str(path),
                  "--out", str(tmp_path / "ckpt"), "--report", str(tmp_path / "r.json")])
        assert not (tmp_path / "ckpt").exists()

    def test_zero_steps_rejected_before_training(self, tmp_path, micro_dataset_dir):
        path = run_config(tmp_path, steps=0)
        with pytest.raises(ValueError, match="^OptimConfig.steps must be an integer of at least 1"):
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

    def test_every_documented_command_parses(self):
        # each `pixtext ...` command in README's fenced blocks, optional
        # arguments unbracketed and each `;`-separated command on its own
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        seen = set()
        for block in readme.split("```")[1::2]:
            for line in block.splitlines():
                for command in line.split(";"):
                    found = re.search(r"(?<![\w.])pixtext (.*)", command)
                    if found:
                        args = build_parser().parse_args(shlex.split(
                            found.group(1).replace("[", "").replace("]", "")))
                        seen.add(args.command)
        assert seen == {"synth", "train", "eval", "gradcheck", "ablate"}


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

    def test_diverged_row_exits_nonzero(self, tmp_path, micro_dataset_dir, capsys):
        pipe = micro_config("coop").to_dict()
        suite = {"seed": 1, "rows": [
            {"name": "bad", "mode": "coop", "pipeline": pipe, "optim": {"steps": 25, "lr": 1e6}},
            {"name": "good", "mode": "coop", "pipeline": pipe, "optim": {"steps": 2}},
        ]}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite))
        out_csv = tmp_path / "table.csv"
        with np.errstate(all="ignore"):
            rc = main(["ablate", "--data", str(micro_dataset_dir), "--suite", str(suite_path),
                       "--out", str(out_csv)])
        assert rc == 1
        assert "bad: miou= params= TrainingDiverged: non-finite loss" in capsys.readouterr().out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[1] == "bad,,,,," and lines[2].startswith("good,0.")

    def test_train_fraction_checked_not_cast(self, tmp_path, micro_dataset_dir):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"train_fraction": "0.5",
                                          "rows": [{"name": "coop", "mode": "coop"}]}))
        with pytest.raises(ValueError, match=r"^train_fraction must be a finite number in "
                                             r"\(0, 1\), got '0\.5'$"):
            main(["ablate", "--data", str(micro_dataset_dir), "--suite", str(suite_path),
                  "--out", str(tmp_path / "table.csv")])
        assert not (tmp_path / "table.csv").exists()

    def test_non_integer_suite_seed_named(self, tmp_path, micro_dataset_dir, monkeypatch):
        # a cast would run seed 2.7 as seed 2
        monkeypatch.delenv("DENSECLIP_SEED", raising=False)
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps({"seed": 2.7, "rows": [{"name": "coop", "mode": "coop"}]}))
        with pytest.raises(ValueError, match=r"OptimConfig\.seed must be an integer, got 2\.7"):
            main(["ablate", "--data", str(micro_dataset_dir), "--suite", str(suite_path),
                  "--out", str(tmp_path / "table.csv")])
        assert not (tmp_path / "table.csv").exists()

    def test_suite_that_is_not_an_object_named(self, tmp_path, micro_dataset_dir):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([{"name": "coop", "mode": "coop"}]))
        with pytest.raises(ContractError, match=rf"^{re.escape(str(suite_path))} must be a JSON "
                                                r"object, got list"):
            main(["ablate", "--data", str(micro_dataset_dir), "--suite", str(suite_path),
                  "--out", str(tmp_path / "table.csv")])
        assert not (tmp_path / "table.csv").exists()
