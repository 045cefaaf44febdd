"""Language-guided dense prediction at desk scale.

A small float64 tensor engine with tape autodiff underpins a pipeline
that matches visual features against class text embeddings, fuses the
resulting score maps back into the features, and trains the whole thing
with auxiliary dense supervision and context-aware prompting.
"""

from .datagen import TaskSpec, default_task, generate, load_dataset, save_dataset, split
from .encoders import (
    FeatureMap,
    PooledFeatures,
    TextEmbeddings,
    ToyImageEncoder,
    ToyTextEncoder,
    attention_pool,
    build_vocab,
)
from .harness import (
    AdamW,
    OptimConfig,
    RunReport,
    TrainingDiverged,
    clip_gradients,
    evaluate_miou,
    run_ablation,
    train,
)
from .matching import (
    BoxAnnotation,
    LossConfig,
    ScoreMap,
    compute_score_map,
    det_aux_loss,
    fuse_features,
    rasterize_boxes,
    seg_aux_loss,
)
from .pipeline import (
    DensePredPipeline,
    PipelineConfig,
    build_pipeline,
    load_checkpoint,
    micro_config,
    save_checkpoint,
    swap_backbone,
    toy_config,
)
from .prompting import post_model_prompt, pre_model_prompt
from .tensor import Tensor, backward, grad_check, read_dct1, reset_tape, write_dct1

__version__ = "0.1.0"
