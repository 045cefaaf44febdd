"""Acceptance criteria, one test per criterion, each printing a PASS line.

The training-based criteria share one frozen protocol: the default
synthetic task, 48 samples split 32/16, the default optimizer recipe
(120 steps, lr 0.01, image-encoder multiplier 0.1, frozen text encoder),
seeds 0..4. Everything is deterministic, so the measured orderings are
reproducible bitwise.
"""

import math
import time

import numpy as np
import pytest

from pixtext import tensor as T
from pixtext.datagen import default_task, generate, split
from pixtext.encoders import FeatureMap, ImageEncoderConfig, TextEmbeddings, ToyImageEncoder
from pixtext.harness import AdamW, OptimConfig, train
from pixtext.matching import BoxAnnotation, LossConfig, ScoreMap
from pixtext.matching import compute_score_map, det_aux_loss, rasterize_boxes, seg_aux_loss
from pixtext.nn import MultiHeadAttention
from pixtext.encoders import attention_pool
from pixtext.pipeline import build_pipeline, rng_for, swap_backbone, toy_config
from pixtext.verification import run_gradient_suite

SEEDS = [0, 1, 2, 3, 4]
SWAP_CFG = ImageEncoderConfig(patch=4, width=40, blocks=2, heads=4, out_dim=40, ffn_mult=2)


def report_pass(num, message):
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


def per_seed(reports, *runs):
    """Each seed's eval mIoU of each (mode, label) run, and the seeds on
    which each run beats the one before it. The criteria assert on means;
    this shows the per-seed numbers a paired comparison reads."""
    miou = {label: [r.final_eval_miou for r in reports[mode]] for mode, label in runs}
    seeds = ", ".join(f"{label} [{' '.join(f'{v:.4f}' for v in miou[label])}]"
                      for _, label in runs)
    wins = ", ".join(
        f"{hi} > {lo} on {sum(b > a for a, b in zip(miou[lo], miou[hi]))}/{len(miou[lo])}"
        for (_, lo), (_, hi) in zip(runs, runs[1:]))
    return f"per seed {seeds}; paired wins {wins}"


@pytest.fixture(scope="module")
def task_dataset():
    spec = default_task()
    samples = generate(spec, 48)
    return spec, split(samples, 0.667)


@pytest.fixture(scope="module")
def ablation_reports(task_dataset):
    """5-seed runs of {baseline, template, coop, post} on the frozen protocol."""
    spec, dataset = task_dataset
    start = time.perf_counter()
    reports = {}
    for mode in (None, "template", "coop", "post"):
        per_seed = []
        for seed in SEEDS:
            pipe = build_pipeline(toy_config(mode), spec.class_names, seed)
            per_seed.append(train(pipe, dataset, OptimConfig(seed=seed)))
        reports[mode] = per_seed
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def swapped_reports(task_dataset):
    """5-seed runs of a swapped random backbone with/without language."""
    spec, dataset = task_dataset
    reports = {}
    for mode in ("post", None):
        per_seed = []
        for seed in SEEDS:
            pipe = build_pipeline(toy_config(mode), spec.class_names, seed)
            backbone = ToyImageEncoder(SWAP_CFG, rng_for(seed, "swapped_backbone"))
            swapped = swap_backbone(pipe, backbone)
            per_seed.append(train(swapped, dataset, OptimConfig(seed=seed)))
        reports[mode] = per_seed
    return reports


def test_c01_gradient_suite_passes_quickly():
    start = time.perf_counter()
    results = run_gradient_suite(op_tol=1e-5, e2e_tol=1e-4)
    elapsed = time.perf_counter() - start
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"gradient failures: {failures}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report_pass(1, f"{len(results)} gradient checks < tol in {elapsed:.1f}s")


def test_c02_score_map_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        cells = int(rng.integers(1, 30))
        k = int(rng.integers(1, 12))
        d = int(rng.integers(2, 16))
        z = rng.standard_normal((cells, d)) * rng.uniform(0.1, 10)
        t = rng.standard_normal((k, d)) * rng.uniform(0.1, 10)
        score = compute_score_map(
            T.Tensor(z), TextEmbeddings(t=T.Tensor(t), class_count=k), 1, cells
        )
        expected = np.empty((cells, k))
        for i in range(cells):
            for j in range(k):
                expected[i, j] = z[i] @ t[j] / (np.linalg.norm(z[i]) * np.linalg.norm(t[j]))
        worst = max(worst, float(np.max(np.abs(score.s.data - expected))))
        assert np.all(score.s.data >= -1.0) and np.all(score.s.data <= 1.0)
        # positive row rescaling leaves the cosines unchanged
        z2 = z * rng.uniform(0.5, 50.0, size=(cells, 1))
        t2 = t * rng.uniform(0.5, 50.0, size=(k, 1))
        rescored = compute_score_map(
            T.Tensor(z2), TextEmbeddings(t=T.Tensor(t2), class_count=k), 1, cells
        )
        assert np.max(np.abs(rescored.s.data - score.s.data)) < 1e-10
    assert worst < 1e-12, f"score-map oracle deviation {worst}"
    report_pass(2, f"100 instances match brute-force cosines (worst {worst:.2e})")


def test_c03_attention_pool_equivariance():
    rng = np.random.default_rng(303)
    pool = MultiHeadAttention(16, 4, rng)
    x = rng.standard_normal((12, 16))
    base = attention_pool(pool, FeatureMap(h4=3, w4=4, c=16, values=T.Tensor(x)))
    worst = 0.0
    for _ in range(12):
        perm = rng.permutation(12)
        permuted = attention_pool(
            pool, FeatureMap(h4=3, w4=4, c=16, values=T.Tensor(x[perm]))
        )
        worst = max(
            worst,
            float(np.max(np.abs(permuted.dense.data - base.dense.data[perm]))),
            float(np.max(np.abs(permuted.global_feat.data - base.global_feat.data))),
        )
    assert worst < 1e-10
    report_pass(3, f"12 spatial permutations equivariant (worst {worst:.2e})")


@pytest.mark.slow
def test_c04_analytic_loss_anchors(task_dataset, ablation_reports):
    for k in (2, 8, 150):
        score = ScoreMap(s=T.Tensor(np.full((6, k), 0.3)), h4=2, w4=3, k=k)
        loss = seg_aux_loss(score, np.arange(6) % k, LossConfig())
        assert abs(loss.item() - math.log(k)) < 1e-9, f"K={k}"
    det = det_aux_loss(
        ScoreMap(s=T.Tensor(np.zeros((5, 4))), h4=1, w4=5, k=4),
        np.eye(5, 4),
        LossConfig(),
    )
    assert abs(det.item() - math.log(2.0)) < 1e-9
    reports, _ = ablation_reports
    echo = reports["coop"][0].config["pipeline"]["loss"]
    assert echo["temperature"] == 0.07
    report_pass(4, "ln K and ln 2 anchors hit at 1e-9; tau=0.07 echoed in configs")


def test_c05_rasterization_oracle():
    rng = np.random.default_rng(505)
    for case in range(200):
        h4 = int(rng.integers(1, 17))
        w4 = int(rng.integers(1, 17))
        k = int(rng.integers(1, 6))
        boxes = []
        for _ in range(int(rng.integers(0, 6))):
            x0, x1 = np.sort(rng.uniform(0, 1, 2))
            y0, y1 = np.sort(rng.uniform(0, 1, 2))
            if x1 - x0 < 1e-9 or y1 - y0 < 1e-9:
                continue
            boxes.append(BoxAnnotation(int(rng.integers(0, k)), x0, y0, x1, y1))
        target = rasterize_boxes(boxes, h4, w4, k)
        expected = np.zeros((h4 * w4, k))
        for r in range(h4):
            for c in range(w4):
                cx, cy = (c + 0.5) / w4, (r + 0.5) / h4
                for b in boxes:
                    if b.x_min <= cx < b.x_max and b.y_min <= cy < b.y_max:
                        expected[r * w4 + c, b.class_id] = 1.0
        assert np.array_equal(target, expected), f"case {case}"
    report_pass(5, "200 randomized box sets match cell-center brute force exactly")


def test_c06_ablation_identity_bitwise(task_dataset):
    spec, (train_samples, _) = task_dataset
    coop = build_pipeline(toy_config("coop"), spec.class_names, seed=13)
    post = build_pipeline(toy_config("post"), spec.class_names, seed=13)
    post.text_path.gamma.data = np.zeros_like(post.text_path.gamma.data)
    for s in train_samples[:4]:
        a = coop.forward(s.image, s.mask)
        b = post.forward(s.image, s.mask)
        assert a.loss.item() == b.loss.item()
        assert np.array_equal(a.cell_logits.data, b.cell_logits.data)
        assert np.array_equal(a.score.s.data, b.score.s.data)
    report_pass(6, "post-model with zero gate reproduces language-only bitwise")


def test_c07_frozen_text_and_lr_multiplier(task_dataset):
    spec, _ = task_dataset
    samples = generate(spec, 12, seed=700)
    dataset = split(samples, 0.667)
    cfg = OptimConfig(steps=200, seed=0)

    # probe: the first update of an image-encoder parameter follows the
    # AdamW formula at exactly 0.1x the base learning rate
    pipe = build_pipeline(toy_config("coop"), spec.class_names, 0)
    opt = AdamW(list(pipe.parameters()), cfg)
    T.reset_tape()
    out = pipe.forward([s.image for s in dataset[0]], [s.mask for s in dataset[0]])
    T.backward(out.loss)
    probe = pipe.image_encoder.patch_embed.weight
    g = probe.grad.copy()
    before = probe.data.copy()
    opt.step()
    lr_eff = cfg.lr * 0.1
    m_hat = (1 - cfg.beta1) * g / (1 - cfg.beta1)
    v_hat = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
    expected = before - lr_eff * m_hat / (np.sqrt(v_hat) + cfg.eps) \
        - lr_eff * cfg.weight_decay * before
    assert np.max(np.abs(probe.data - expected)) < 1e-15

    # 200-step run leaves every text-encoder parameter dump bitwise unchanged
    pipe = build_pipeline(toy_config("coop"), spec.class_names, 0)
    dumps_before = {
        name: p.data.tobytes()
        for name, p, group in pipe.parameters() if group == "text_encoder"
    }
    train(pipe, dataset, cfg)
    for name, p, group in pipe.parameters():
        if group == "text_encoder":
            assert dumps_before[name] == p.data.tobytes(), name
    report_pass(7, "200-step run: text encoder bitwise frozen; image lr is 0.1x base")


@pytest.mark.slow
def test_c08_ablation_ordering(task_dataset, ablation_reports):
    spec, _ = task_dataset
    reports, elapsed = ablation_reports
    means = {
        mode: float(np.mean([r.final_eval_miou for r in rs]))
        for mode, rs in reports.items()
    }
    assert means[None] < means["coop"], f"baseline {means[None]:.4f} !< coop {means['coop']:.4f}"
    assert means["coop"] < means["post"], f"coop {means['coop']:.4f} !< post {means['post']:.4f}"

    pre_params = build_pipeline(toy_config("pre"), spec.class_names, 0).trainable_param_count()
    post_params = build_pipeline(toy_config("post"), spec.class_names, 0).trainable_param_count()
    assert post_params < pre_params
    assert elapsed < 600.0, f"ablation suite took {elapsed:.0f}s"
    report_pass(
        8,
        f"mIoU ordering holds: baseline {means[None]:.3f} < coop {means['coop']:.3f} "
        f"< post {means['post']:.3f}; params post {post_params} < pre {pre_params}; "
        f"suite {elapsed:.0f}s; "
        + per_seed(reports, (None, "baseline"), ("coop", "coop"), ("post", "post")),
    )


@pytest.mark.slow
def test_learnable_contexts_beat_fixed_template(ablation_reports):
    """Direction check: optimized contexts should not trail the fixed
    template prompt at the seed-average level."""
    reports, _ = ablation_reports
    template = float(np.mean([r.final_eval_miou for r in reports["template"]]))
    coop = float(np.mean([r.final_eval_miou for r in reports["coop"]]))
    assert coop >= template, f"coop {coop:.4f} < template {template:.4f}"
    print(f"CONTEXT-OPT PASS: learnable {coop:.3f} >= template {template:.3f}; "
          + per_seed(reports, ("template", "template"), ("coop", "coop")))


def test_c09_text_encoder_forward_counts(task_dataset):
    spec, (_, eval_samples) = task_dataset
    m, k = len(eval_samples), spec.k

    post = build_pipeline(toy_config("post"), spec.class_names, 0)
    post.cache_text()
    before = post.text_sequence_count()
    for s in eval_samples:
        post.predict(s.image)
    assert post.text_sequence_count() - before == 0

    pre = build_pipeline(toy_config("pre"), spec.class_names, 0)
    before = pre.text_sequence_count()
    for s in eval_samples:
        pre.predict(s.image)
    assert pre.text_sequence_count() - before == m * k
    report_pass(9, f"inference text-encoder cost: cached post = 0, pre = {m}x{k} sequences")


@pytest.mark.slow
def test_c10_any_backbone_direction(swapped_reports):
    means = {
        mode: float(np.mean([r.final_eval_miou for r in rs]))
        for mode, rs in swapped_reports.items()
    }
    assert means[None] < means["post"], (
        f"language-guided {means['post']:.4f} !> control {means[None]:.4f}"
    )
    report_pass(
        10,
        f"swapped backbone: language {means['post']:.3f} > no-language {means[None]:.3f}; "
        + per_seed(swapped_reports, (None, "no-language"), ("post", "language")),
    )


def test_c11_training_determinism(task_dataset):
    spec, _ = task_dataset
    samples = generate(spec, 12, seed=1100)
    dataset = split(samples, 0.667)
    canonical = []
    for _ in range(2):
        pipe = build_pipeline(toy_config("coop"), spec.class_names, 3)
        report = train(pipe, dataset, OptimConfig(steps=40, seed=3))
        canonical.append(report.canonical_json())
    assert canonical[0] == canonical[1]
    report_pass(11, "two identically-seeded runs emit bitwise-identical reports")


def test_training_is_stable_at_the_last_bit(task_dataset):
    """A last-bit change of every initial parameter leaves the eval mIoU and
    per-class IoU of the c11-sized run bitwise unchanged and moves its final
    loss far below 1e-9 relative. This is what makes "per-seed mIoU
    bitwise" a sharp check for changes that only reorder sums."""
    spec, _ = task_dataset
    dataset = split(generate(spec, 12, seed=1100), 0.667)
    reports = []
    for scale in (1.0, 1.0 + 1e-12):
        pipe = build_pipeline(toy_config("coop"), spec.class_names, 3)
        for _, p, _ in pipe.parameters():
            p.data *= scale
        reports.append(train(pipe, dataset, OptimConfig(steps=40, seed=3)))
    base, nudged = reports
    assert nudged.final_eval_miou == base.final_eval_miou
    assert nudged.per_class_iou == base.per_class_iou
    drift = abs(nudged.loss_series[-1] - base.loss_series[-1]) / base.loss_series[-1]
    assert drift <= 1e-9, f"final loss moved {drift:.1e} relative"
    print(f"STABILITY PASS: parameters x (1 + 1e-12) keep mIoU {base.final_eval_miou:.4f} "
          f"bitwise; final loss moves {drift:.1e} relative")
