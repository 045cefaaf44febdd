import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixtext import harness
from pixtext.datagen import TaskSpec, generate, split
from pixtext.harness import (
    ABLATION_ROWS,
    AdamW,
    OptimConfig,
    TrainingDiverged,
    clip_gradients,
    evaluate_miou,
    load_run,
    miou_from_pairs,
    run_ablation,
    train,
    write_ablation_csv,
)
from pixtext.pipeline import build_pipeline, micro_config, toy_config
from pixtext.tensor import ContractError, Tensor


def make_param(value, grad=None, requires_grad=True):
    p = Tensor(np.asarray(value, dtype=float), requires_grad=requires_grad)
    if grad is not None:
        p.grad = np.asarray(grad, dtype=float)
    return p


class TestAdamW:
    def test_zero_multiplier_group_untouched(self):
        p = make_param([1.0, 2.0], grad=[1.0, 1.0])
        opt = AdamW([("enc.w", p, "text_encoder")], OptimConfig())
        for _ in range(5):
            p.grad = np.ones(2)
            opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_matches_hand_formula(self):
        # single scalar parameter, constant gradient
        lr, b1, b2, eps, g, w0 = 0.01, 0.9, 0.999, 1e-8, 0.37, 1.234
        p = make_param([w0], grad=[g])
        cfg = OptimConfig(lr=lr, weight_decay=0.0, beta1=b1, beta2=b2, eps=eps)
        opt = AdamW([("w", p, "other")], cfg)
        opt.step()
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = w0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(p.data[0] - expected) < 1e-15
        # the update is approximately -lr * sign(g)
        assert abs((p.data[0] - w0) + lr * np.sign(g)) < lr * 1e-4

    def test_decoupled_decay_shrinks_with_zero_grad(self):
        lr, wd = 0.01, 0.5
        p = make_param([2.0], grad=[0.0])
        opt = AdamW([("w", p, "other")], OptimConfig(lr=lr, weight_decay=wd))
        opt.step()
        assert abs(p.data[0] - 2.0 * (1 - lr * wd)) < 1e-15
        p.grad = np.zeros(1)
        opt.step()
        assert abs(p.data[0] - 2.0 * (1 - lr * wd) ** 2) < 1e-15

    def test_image_encoder_multiplier_scales_first_step(self):
        g = 0.8
        p_img = make_param([1.0], grad=[g])
        p_oth = make_param([1.0], grad=[g])
        cfg = OptimConfig(lr=0.02, weight_decay=0.0)
        opt = AdamW([("img.w", p_img, "image_encoder"), ("oth.w", p_oth, "other")], cfg)
        opt.step()
        delta_img = p_img.data[0] - 1.0
        delta_oth = p_oth.data[0] - 1.0
        assert abs(delta_img / delta_oth - 0.1) < 1e-12

    def test_zero_grad_clears_every_group(self):
        # a zero-multiplier group still receives gradients when its tensors
        # are trainable; they must not pile up across steps
        params = [("enc.w", make_param([1.0], grad=[0.5]), "text_encoder"),
                  ("img.w", make_param([1.0], grad=[0.5]), "image_encoder"),
                  ("w", make_param([1.0], grad=[0.5]), "other")]
        opt = AdamW(params, OptimConfig())
        opt.zero_grad()
        assert [p.grad for _, p, _ in params] == [None, None, None]

    def test_missing_grad_is_contract_error(self):
        p = make_param([1.0])
        opt = AdamW([("w", p, "other")], OptimConfig())
        with pytest.raises(ContractError):
            opt.step()

    def test_non_trainable_param_skipped(self):
        p = make_param([1.0], requires_grad=False)
        opt = AdamW([("w", p, "other")], OptimConfig())
        opt.step()
        assert p.data[0] == 1.0

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(multipliers={"other": -1.0})

    def test_unknown_multiplier_group_named(self):
        with pytest.raises(ValueError, match="'text'"):
            OptimConfig(multipliers={"text": 0.1})

    @pytest.mark.parametrize("field, value", [("steps", 0), ("batch_size", 0), ("steps", -3)])
    def test_empty_step_or_batch_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^OptimConfig\.{field} must be an integer "
                                             rf"of at least 1, got {value}$"):
            OptimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("steps", True), ("batch_size", 4.0), ("seed", 1.5), ("seed", "1"),
        ("lr", math.nan), ("lr", -1.0), ("eps", 0.0), ("weight_decay", math.inf),
        ("beta1", 1.0), ("beta2", -0.1), ("clip_norm", "1"), ("clip_norm", 0.0),
        ("multipliers", {"other": math.nan}),
    ])
    def test_bad_field_named_when_built(self, field, value):
        # a fractional step count or seed used to fail inside train, a string
        # with a bare TypeError; NaN, infinities and bools went through
        named = "multipliers['other']" if field == "multipliers" else field
        with pytest.raises(ValueError, match=rf"^OptimConfig\.{re.escape(named)} must be"):
            OptimConfig(**{field: value})

    def test_values_kept_as_given(self):
        cfg = OptimConfig(lr=1, beta1=0, clip_norm=2, multipliers={"other": 1})
        assert [type(v) for v in (cfg.lr, cfg.beta1, cfg.clip_norm, cfg.multipliers["other"])] \
            == [int] * 4

    def test_missing_groups_take_the_recipe_multipliers(self):
        cfg = OptimConfig(multipliers={"other": 0.5})
        assert cfg.multipliers == {"image_encoder": 0.1, "text_encoder": 0.0, "other": 0.5}


class TestClipGradients:
    def test_below_threshold_untouched(self):
        p = make_param([3.0], grad=[0.03, ])
        q = make_param([1.0], grad=[0.04])
        scale = clip_gradients([p, q], 0.1)
        assert scale == 1.0
        assert p.grad[0] == 0.03

    def test_scaling_to_exact_norm(self):
        p = make_param([0.0, 0.0], grad=[0.6, 0.8])
        scale = clip_gradients([p], 0.1)
        assert abs(scale - 0.1) < 1e-15
        assert abs(np.linalg.norm(p.grad) - 0.1) < 1e-12

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_max_norm(self, grads):
        p = make_param(np.zeros(len(grads)), grad=grads)
        clip_gradients([p], 0.1)
        assert np.linalg.norm(p.grad) <= 0.1 + 1e-12


class TestMiou:
    def test_perfect_prediction(self):
        target = np.array([0, 1, 2, 1])
        _, miou = miou_from_pairs([(target, target.copy())], k=3)
        assert miou == 1.0

    def test_disjoint_constant_predictions(self):
        target = np.zeros(4, dtype=int) + 1
        pred = np.zeros(4, dtype=int)
        ious, miou = miou_from_pairs([(target, pred)], k=3)
        assert ious[0] == 0.0 and ious[1] == 0.0 and ious[2] is None
        assert miou == 0.0

    def test_four_pixel_hand_case(self):
        # 2 correct A, 1 B->A false positive, 1 A->B false negative:
        # IoU(A) = 2/4, IoU(B) = 0/2, mean = 0.25
        target = np.array([0, 0, 1, 0])
        pred = np.array([0, 0, 0, 1])
        ious, miou = miou_from_pairs([(target, pred)], k=2)
        assert ious[0] == 0.5 and ious[1] == 0.0
        assert miou == 0.25

    def test_absent_classes_excluded(self):
        target = np.array([0, 0])
        pred = np.array([0, 0])
        ious, miou = miou_from_pairs([(target, pred)], k=5)
        assert miou == 1.0
        assert ious[1:] == [None] * 4

    @pytest.mark.parametrize("side", ["target", "prediction"])
    @pytest.mark.parametrize("shift, error, cause", [
        (0.9, ContractError, "needs integer class ids, got dtype float64"),
        (1, IndexError, r"class id out of range \[0, 3\)"),
    ], ids=["fraction", "out_of_range"])
    def test_bad_ids_named_by_side(self, side, shift, error, cause):
        ids = np.array([0, 1, 2])
        pair = (ids + shift, ids) if side == "target" else (ids, ids + shift)
        with pytest.raises(error, match=rf"^{side} {cause}$"):
            miou_from_pairs([pair], k=3)

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_set_based_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        pairs = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 64 * 64))
            pairs.append((rng.integers(0, k, n), rng.integers(0, k, n)))
        ious, miou = miou_from_pairs(pairs, k)
        # oracle: per-class explicit pixel counting across all pairs
        expected = []
        for c in range(k):
            inter = sum(int(np.sum((t == c) & (p == c))) for t, p in pairs)
            union = sum(int(np.sum((t == c) | (p == c))) for t, p in pairs)
            if union:
                expected.append(inter / union)
                assert abs(ious[c] - inter / union) < 1e-12
            else:
                assert ious[c] is None
        assert abs(miou - np.mean(expected)) < 1e-12

    @staticmethod
    def random_pairs(rng, k):
        pairs = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 200))
            pairs.append((rng.integers(0, k, n), rng.integers(0, k, n)))
        return pairs

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_to_class_relabelling(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        pairs = self.random_pairs(rng, k)
        perm = rng.permutation(k)
        ious, miou = miou_from_pairs(pairs, k)
        p_ious, p_miou = miou_from_pairs([(perm[t], perm[p]) for t, p in pairs], k)
        assert [p_ious[perm[c]] for c in range(k)] == ious
        assert abs(p_miou - miou) < 1e-12

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_to_splitting_and_concatenating_pairs(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        pairs = self.random_pairs(rng, k)
        joined = [(np.concatenate([t for t, _ in pairs]), np.concatenate([p for _, p in pairs]))]
        split_pairs = []
        for t, p in pairs:
            cut = int(rng.integers(0, t.size + 1))
            split_pairs += [(t[:cut], p[:cut]), (t[cut:], p[cut:])]
        expected = miou_from_pairs(pairs, k)
        assert miou_from_pairs(joined, k) == expected
        assert miou_from_pairs(split_pairs, k) == expected


def record_batch_sizes(pipe, monkeypatch) -> list:
    """Patch `pipe.forward` to log each call's image count; return the log."""
    sizes = []
    forward = pipe.forward

    def counting_forward(images, targets):
        sizes.append(len(images))
        return forward(images, targets)

    monkeypatch.setattr(pipe, "forward", counting_forward)
    return sizes


@pytest.fixture(scope="module")
def tiny_task():
    spec = TaskSpec(k=3, height=16, width=16, min_shapes=1, max_shapes=2,
                    shape_min_px=4, shape_max_px=8, seed=21)
    samples = generate(spec, 10, seed=21)
    return spec, split(samples, 0.6)


# A short post and pre train; prints each canonical report's sha256.
HASH_SEED_RUN = """
import hashlib
from pixtext.datagen import TaskSpec, generate, split
from pixtext.harness import OptimConfig, train
from pixtext.pipeline import build_pipeline, micro_config
spec = TaskSpec(k=3, height=16, width=16, seed=21)
data = split(generate(spec, 6, seed=21), 0.5)
for mode in ("post", "pre"):
    pipe = build_pipeline(micro_config(mode), spec.class_names, seed=4)
    report = train(pipe, data, OptimConfig(steps=2, seed=4))
    print(mode, hashlib.sha256(report.canonical_json().encode()).hexdigest())
"""


class TestTrain:
    def test_initial_loss_near_uniform_prediction(self, toy_spec):
        samples = generate(toy_spec, 8, seed=3)
        dataset = split(samples, 0.75)
        pipe = build_pipeline(micro_config("coop"), toy_spec.class_names, seed=0)
        # K=8 near-uniform logits: main ~ ln 8, aux ~ ln 8, total ~ 1.4 ln 8
        report = train(pipe, dataset, OptimConfig(steps=1, seed=0))
        expected = math.log(8) * 1.4
        assert abs(report.loss_series[0] - expected) / expected < 0.20

    def test_deterministic_reports(self, tiny_task):
        spec, dataset = tiny_task
        reports = []
        for _ in range(2):
            pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
            reports.append(train(pipe, dataset, OptimConfig(steps=8, seed=4)))
        assert reports[0].loss_series == reports[1].loss_series
        assert reports[0].canonical_json() == reports[1].canonical_json()
        # wall time differs but is excluded from the canonical form
        assert "wall_time_s" not in reports[0].canonical_dict()

    def test_same_report_across_processes_and_hash_seeds(self):
        # one process cannot see an order that depends on str hashing
        src = str(Path(harness.__file__).parents[1])  # the pixtext this suite imports
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-c", HASH_SEED_RUN], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1] and len(outs[0].split()) == 4

    def test_frozen_text_encoder_unchanged(self, tiny_task, tmp_path):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        before = {
            name: p.data.copy()
            for name, p, group in pipe.parameters()
            if group == "text_encoder"
        }
        train(pipe, dataset, OptimConfig(steps=10, seed=4))
        for name, p, group in pipe.parameters():
            if group == "text_encoder":
                assert np.array_equal(before[name], p.data), name

    def test_contexts_train_while_encoder_frozen(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        before = pipe.text_path.contexts.data.copy()
        train(pipe, dataset, OptimConfig(steps=5, seed=4))
        assert not np.array_equal(before, pipe.text_path.contexts.data)

    def test_unfrozen_control_updates_encoder(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        before = {n: p.data.copy() for n, p, g in pipe.parameters() if g == "text_encoder"}
        ocfg = OptimConfig(steps=5, seed=4,
                           multipliers={"image_encoder": 0.1, "text_encoder": 0.1, "other": 1.0})
        train(pipe, dataset, ocfg)
        changed = any(
            not np.array_equal(before[n], p.data)
            for n, p, g in pipe.parameters() if g == "text_encoder"
        )
        assert changed

    def test_unfrozen_template_trains_encoder(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("template"), spec.class_names, seed=4)
        before = {n: p.data.copy() for n, p, g in pipe.parameters() if g == "text_encoder"}
        ocfg = OptimConfig(steps=3, seed=4,
                           multipliers={"image_encoder": 0.1, "text_encoder": 0.1, "other": 1.0})
        report = train(pipe, dataset, ocfg)
        assert all(not np.array_equal(before[n], p.data)
                   for n, p, g in pipe.parameters() if g == "text_encoder")
        # the template embedding is encoded every step, not once per run
        assert report.text_fwd_train == 3 * len(spec.class_names)

    @pytest.mark.parametrize("mode", ["coop", "post"])
    def test_second_run_on_the_same_pipeline(self, tiny_task, mode):
        # the first run ends by caching the text embeddings; the second
        # must train the contexts again, not the cached snapshot
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config(mode), spec.class_names, seed=4)
        train(pipe, dataset, OptimConfig(steps=2, seed=4))
        before = pipe.text_path.contexts.data.copy()
        report = train(pipe, dataset, OptimConfig(steps=2, seed=4))
        assert not np.array_equal(before, pipe.text_path.contexts.data)
        assert report.text_fwd_train == 2 * len(spec.class_names)

    @pytest.mark.parametrize("encoder_grad", [True, False])
    def test_clip_norm_over_updated_parameters_only(self, tiny_task, monkeypatch, encoder_grad):
        """At text multiplier 0 the encoder gets no gradient and stays out
        of the clipping norm, whether its weights arrive on the tape (as a
        run at 0.1 leaves them) or off it (as built): the run clips and
        updates exactly as a freshly built pipeline does."""
        spec, dataset = tiny_task
        scales = []

        def recording_clip(params, max_norm):
            scales.append(clip_gradients(params, max_norm))
            return scales[-1]

        monkeypatch.setattr(harness, "clip_gradients", recording_clip)
        runs = []
        for requires_grad in (False, encoder_grad):
            pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
            for _, p in pipe.text_path.encoder.parameters():
                p.requires_grad = requires_grad
            scales.clear()
            train(pipe, dataset, OptimConfig(steps=3, seed=4, clip_norm=1.0))
            assert all(p.grad is None for _, p, g in pipe.parameters() if g == "text_encoder")
            runs.append((list(scales), {n: p.data for n, p, _ in pipe.parameters()}))
        (ref_scales, ref_params), (run_scales, run_params) = runs
        assert len(ref_scales) == 3 and all(s < 1.0 for s in ref_scales)
        assert run_scales == ref_scales
        for name, data in ref_params.items():
            assert np.array_equal(run_params[name], data), name

    @pytest.mark.parametrize("multipliers, frozen_group", [
        ({"image_encoder": 0.0}, "image_encoder"),
        # a dict without `text_encoder` keeps its recipe multiplier of 0
        ({"image_encoder": 0.2, "other": 1.0}, "text_encoder"),
    ], ids=["image_encoder_at_zero", "partial_dict"])
    def test_zero_multiplier_group_stays_off_the_tape(self, tiny_task, multipliers, frozen_group):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        before = {n: p.data.copy() for n, p, g in pipe.parameters() if g == frozen_group}
        train(pipe, dataset, OptimConfig(steps=3, seed=4, multipliers=multipliers))
        for name, p, group in pipe.parameters():
            if group == frozen_group:
                assert np.array_equal(before[name], p.data) and p.grad is None, name

    def test_fixed_gate_stays_a_constant(self, tiny_task):
        spec, dataset = tiny_task
        cfg = micro_config("post")
        cfg.gate_preset = "fixed_small"
        pipe = build_pipeline(cfg, spec.class_names, seed=4)
        train(pipe, dataset, OptimConfig(steps=3, seed=4))
        gamma = pipe.text_path.gamma
        assert np.array_equal(gamma.data, np.full(cfg.shared_dim, 1e-4))
        assert not gamma.requires_grad
        assert "text.gate.gamma" not in [n for n, _, _ in pipe.parameters()]

    def test_default_run_after_a_text_run_takes_the_encoder_off_the_tape(self, tiny_task):
        spec, dataset = tiny_task
        k = len(spec.class_names)
        pipe = build_pipeline(micro_config("template"), spec.class_names, seed=4)
        text_run = OptimConfig(steps=2, seed=4,
                               multipliers={"image_encoder": 0.1, "text_encoder": 0.1, "other": 1.0})
        before = {n: p.data.copy() for n, p, g in pipe.parameters() if g == "text_encoder"}
        assert train(pipe, dataset, text_run).text_fwd_train == 2 * k
        trained = {n: p.data.copy() for n, p, g in pipe.parameters() if g == "text_encoder"}
        assert all(not np.array_equal(before[n], trained[n]) for n in trained)
        report = train(pipe, dataset, OptimConfig(steps=3, seed=4))
        # encoded once and cached, as on a pipeline that never trained its encoder
        assert report.text_fwd_train == k
        for name, p, group in pipe.parameters():
            if group == "text_encoder":
                assert np.array_equal(trained[name], p.data) and not p.requires_grad, name

    @pytest.mark.parametrize("mode", ["coop", "post"])
    def test_run_that_trains_no_language_parameter_encodes_once(self, tiny_task, mode):
        # nothing on the language path trains, so the run snapshots it
        # before step 0 instead of encoding the K sequences every step
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config(mode), spec.class_names, seed=4)
        before = pipe.text_path.contexts.data.copy()
        report = train(pipe, dataset, OptimConfig(
            steps=3, seed=4, multipliers={"text_encoder": 0.0, "other": 0.0}))
        assert report.text_fwd_train == len(spec.class_names)
        assert np.array_equal(pipe.text_path.contexts.data, before)

    def test_divergence_aborts_loudly(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(pipe, dataset, OptimConfig(steps=40, lr=1e6, seed=4))

    def test_loss_decreases_on_average(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        report = train(pipe, dataset, OptimConfig(steps=30, seed=4))
        assert np.mean(report.loss_series[-5:]) < np.mean(report.loss_series[:5])

    def test_report_config_echo_carries_loss_constants(self, tiny_task):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=4)
        report = train(pipe, dataset, OptimConfig(steps=2, seed=4))
        echo = report.config["pipeline"]["loss"]
        assert echo["temperature"] == 0.07
        assert echo["aux_weight"] == 0.4
        assert report.config["optim"]["multipliers"]["image_encoder"] == 0.1

    def test_one_forward_per_step(self, tiny_task, monkeypatch):
        spec, dataset = tiny_task
        pipe = build_pipeline(micro_config("pre"), spec.class_names, seed=4)
        batch_sizes = record_batch_sizes(pipe, monkeypatch)
        train(pipe, dataset, OptimConfig(steps=3, seed=4))
        assert batch_sizes == [len(dataset[0])] * 3

    def test_evaluate_in_batches_matches_predict(self):
        spec = TaskSpec(k=3, height=8, width=8, min_shapes=1, max_shapes=1,
                        shape_min_px=3, shape_max_px=4, seed=6)
        samples = generate(spec, 40, seed=6)  # a full batch of 32 and a partial one
        pipe = build_pipeline(micro_config("pre"), spec.class_names, seed=4)
        pairs = [(s.mask, pipe.predict(s.image)) for s in samples]
        assert evaluate_miou(pipe, samples) == miou_from_pairs(pairs, pipe.k)

    def test_minibatches_above_batch_size(self, monkeypatch):
        spec = TaskSpec(k=2, height=8, width=8, min_shapes=1, max_shapes=1,
                        shape_min_px=3, shape_max_px=4, seed=6)
        dataset = split(generate(spec, 50, seed=6), 0.8)
        assert len(dataset[0]) == 40
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=0)
        batch_sizes = record_batch_sizes(pipe, monkeypatch)
        train(pipe, dataset, OptimConfig(steps=2, batch_size=32, seed=0))
        assert batch_sizes == [32, 32]

    def test_minibatch_mode_above_threshold(self):
        spec = TaskSpec(k=2, height=8, width=8, min_shapes=1, max_shapes=1,
                        shape_min_px=3, shape_max_px=4, seed=6)
        samples = generate(spec, 70, seed=6)
        dataset = split(samples, 0.95)
        assert len(dataset[0]) > 64
        pipe = build_pipeline(micro_config("coop"), spec.class_names, seed=0)
        report = train(pipe, dataset, OptimConfig(steps=2, batch_size=4, seed=0))
        assert len(report.loss_series) == 2


class TestRunAblation:
    def test_five_rows_in_order_with_csv(self, tiny_task, tmp_path):
        spec, dataset = tiny_task
        suite = {
            "seed": 1,
            "optim": {"steps": 3},
            "rows": [dict(r, pipeline=micro_config(r["mode"]).to_dict()) for r in ABLATION_ROWS],
        }
        rows = run_ablation(dataset, spec.class_names, suite)
        assert [r["config_name"] for r in rows] == ["baseline", "template", "coop", "pre", "post"]
        assert all(isinstance(r["miou"], float) for r in rows)
        path = tmp_path / "table.csv"
        write_ablation_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config_name,miou,final_loss,params,text_fwd_train,text_fwd_infer"
        assert len(lines) == 6

    def test_failed_run_marked_and_suite_continues(self, tiny_task):
        spec, dataset = tiny_task
        suite = {
            "seed": 1,
            "optim": {"steps": 25},
            "rows": [
                {"name": "bad", "mode": "coop", "pipeline": micro_config("coop").to_dict(),
                 "optim": {"steps": 25, "lr": 1e6}},
                {"name": "good", "mode": "coop", "pipeline": micro_config("coop").to_dict(),
                 "optim": {"steps": 3}},
            ],
        }
        with np.errstate(all="ignore"):
            rows = run_ablation(dataset, spec.class_names, suite)
        assert rows[0]["miou"] == "" and "error" in rows[0]
        assert isinstance(rows[1]["miou"], float)

    def test_other_errors_end_the_suite_naming_the_row(self, tiny_task, monkeypatch):
        # only divergence marks a row; a broken run must not pass as a blank row
        spec, dataset = tiny_task
        trained, real = [], harness.train

        def flaky_train(pipe, data, ocfg):
            trained.append(ocfg.steps)
            if ocfg.steps == 2:
                raise AttributeError("boom")
            return real(pipe, data, ocfg)

        monkeypatch.setattr(harness, "train", flaky_train)
        rows = [{"name": name, "mode": "coop", "pipeline": micro_config("coop").to_dict(),
                 "optim": {"steps": steps}} for name, steps in (("good", 1), ("broken", 2),
                                                                ("after", 1))]
        with pytest.raises(RuntimeError,
                           match=r"^suite: row 'broken' failed: AttributeError\('boom'\)$") as info:
            run_ablation(dataset, spec.class_names, {"seed": 1, "rows": rows})
        assert isinstance(info.value.__cause__, AttributeError)
        assert trained == [1, 2]

    def test_run_order_independence(self, tiny_task):
        spec, dataset = tiny_task
        def row(name, mode):
            return {"name": name, "mode": mode, "pipeline": micro_config(mode).to_dict(),
                    "optim": {"steps": 3}}

        fwd = run_ablation(dataset, spec.class_names,
                           {"seed": 2, "rows": [row("a", "coop"), row("b", "post")]})
        rev = run_ablation(dataset, spec.class_names,
                           {"seed": 2, "rows": [row("b", "post"), row("a", "coop")]})
        by_name_fwd = {r["config_name"]: r for r in fwd}
        by_name_rev = {r["config_name"]: r for r in rev}
        for name in ("a", "b"):
            assert by_name_fwd[name]["miou"] == by_name_rev[name]["miou"]
            assert by_name_fwd[name]["final_loss"] == by_name_rev[name]["final_loss"]

    def test_text_forward_counts_by_mode(self, tiny_task):
        spec, dataset = tiny_task
        steps, k, m_eval = 3, len(spec.class_names), len(dataset[1])
        suite = {
            "seed": 1,
            "optim": {"steps": steps},
            "rows": [dict(r, pipeline=micro_config(r["mode"]).to_dict()) for r in ABLATION_ROWS],
        }
        rows = {r["config_name"]: r for r in run_ablation(dataset, spec.class_names, suite)}
        assert rows["baseline"]["text_fwd_train"] == 0
        assert rows["template"]["text_fwd_train"] == k  # encoded once, then reused
        assert rows["coop"]["text_fwd_train"] == steps * k
        assert rows["pre"]["text_fwd_train"] == steps * k * len(dataset[0])
        assert rows["post"]["text_fwd_train"] == steps * k
        for name in ("baseline", "template", "coop", "post"):
            assert rows[name]["text_fwd_infer"] == 0
        assert rows["pre"]["text_fwd_infer"] == m_eval * k


class TestRunLoader:
    """`pixtext train` and every suite row go through `load_run`: the mode
    has one spelling per run, and unknown keys are named."""

    @pytest.mark.parametrize("mode", [None, "template", "coop", "pre", "post"])
    def test_mode_fills_the_pipeline_when_it_leaves_it_out(self, mode):
        pipe = micro_config("coop").to_dict()
        del pipe["prompt_mode"]
        json_mode = "none" if mode is None else mode
        cfg, _ = load_run({"mode": json_mode, "pipeline": pipe})
        assert cfg.prompt_mode == mode
        assert load_run({"mode": json_mode})[0] == toy_config(mode)

    def test_pipeline_object_overrides_the_toy_config(self):
        # `{}` and a default value change nothing: every run starts from toy_config
        base = load_run({"mode": "post"})[0]
        assert base.prompt_decoder_depth == 2
        assert load_run({"mode": "post", "pipeline": {}})[0] == base
        assert load_run({"mode": "post", "pipeline": {"head_hidden": 64}})[0] == base
        assert load_run({"mode": "post", "pipeline": {"head_hidden": 32}})[0].head_hidden == 32

    def test_pipeline_mode_stands_without_a_run_mode(self):
        cfg, _ = load_run({"pipeline": micro_config("pre").to_dict()})
        assert cfg.prompt_mode == "pre"
        assert load_run({"pipeline": micro_config(None).to_dict(), "mode": "none"})[0] \
            == micro_config(None)

    def test_disagreeing_modes_named(self):
        with pytest.raises(ValueError, match="'post'.*'coop'"):
            load_run({"mode": "post", "pipeline": micro_config("coop").to_dict()})

    def test_seed_and_optim_precedence(self, tiny_task, monkeypatch):
        _, optim = load_run({"seed": 4, "optim": {"seed": 9, "steps": 2}}, optim={"lr": 0.5})
        assert (optim.seed, optim.steps, optim.lr) == (4, 2, 0.5)
        spec, dataset = tiny_task
        trained = []

        def fake_train(pipe, data, ocfg):
            trained.append((pipe.seed, ocfg.seed, ocfg.steps))
            return SimpleNamespace(final_eval_miou=0.0, loss_series=[0.0], trainable_params=0,
                                   text_fwd_train=0, text_fwd_infer=0)

        monkeypatch.setattr(harness, "train", fake_train)
        suite = {"seed": 3, "optim": {"steps": 5},
                 "rows": [{"name": "a", "optim": {"seed": 8}}, {"name": "b"}]}
        run_ablation(dataset, spec.class_names, suite)
        # the suite seed builds every pipeline; a row's optim seed wins in its optimizer
        assert trained == [(3, 8, 5), (3, 3, 5)]

    @pytest.mark.parametrize("seed", [2.7, True, "3"])
    def test_non_integer_seed_named(self, seed):
        # a cast would train 2.7 as seed 2 and true as seed 1
        with pytest.raises(ValueError, match=r"^OptimConfig\.seed must be an integer"):
            load_run({"seed": seed})

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_non_integer_suite_seed_named(self, tiny_task, monkeypatch, seed):
        spec, dataset = tiny_task
        monkeypatch.setattr(harness, "train", None)  # nothing may train
        with pytest.raises(ValueError, match=r"^OptimConfig\.seed must be an integer"):
            run_ablation(dataset, spec.class_names, {"seed": seed})

    @pytest.mark.parametrize("suite, message", [
        ({"optm": {"steps": 2}}, "suite: unknown key(s) ['optm'], missing key(s) []"),
        ({"rows": [{"name": "a", "mode": "coop", "freeze_text": True}]},
         "rows[0] in suite: unknown key(s) ['freeze_text'], missing key(s) []"),
        ({"rows": [{"name": "a", "seed": 1}]},
         "rows[0] in suite: unknown key(s) ['seed'], missing key(s) []"),
        ({"rows": [{"name": "a", "optim": {"step": 2}}]},
         "rows[0].optim in suite: unknown key(s) ['step'], missing key(s) []"),
        ({"rows": [{"mode": "coop"}]},
         "rows[0] in suite: unknown key(s) [], missing key(s) ['name']"),
    ], ids=["suite.optm", "row.freeze_text", "row.seed", "row.optim.step", "row.name"])
    def test_unknown_suite_and_row_keys_named(self, tiny_task, monkeypatch, suite, message):
        spec, dataset = tiny_task
        monkeypatch.setattr(harness, "train", None)  # nothing may train
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            run_ablation(dataset, spec.class_names, suite)

    @pytest.mark.parametrize("bad_row", [
        {"name": "bad", "mode": "post", "pipeline": micro_config("coop").to_dict()},
        {"name": "bad", "mode": "banana"},
    ], ids=["modes_disagree", "unknown_mode"])
    def test_bad_row_fails_before_any_row_trains(self, tiny_task, monkeypatch, bad_row):
        spec, dataset = tiny_task
        trained = []
        monkeypatch.setattr(harness, "train", lambda *a: trained.append(a))
        good = {"name": "good", "mode": "coop", "pipeline": micro_config("coop").to_dict()}
        with pytest.raises(ValueError, match="'post'.*'coop'|'banana'"):
            run_ablation(dataset, spec.class_names, {"rows": [good, bad_row]})
        assert trained == []
