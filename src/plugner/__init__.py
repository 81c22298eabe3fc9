"""plugner: pluggable-prefix named entity recognition as pointer generation.

A frozen encoder-decoder backbone is steered by small learnable guidance
matrices prepended to each self-attention layer's keys and values, plus a
verbalizer that grounds category names in embedding space. Swapping or
mixing those two pieces retargets the model to a new tag set without
touching a single backbone weight.
"""
from .backbone import Backbone, GuidanceModule, ModelConfig, select_guided_layers
from .data import (
    AnnotatedSentence,
    Corpus,
    DomainSpec,
    EntitySpan,
    SamplerConfig,
    SampleResult,
    Vocab,
    bio_to_spans,
    build_verbalizer_mapping,
    few_shot_sample,
    parse_domain_spec,
    read_column_file,
    spans_to_bio,
    synthetic_corpus,
    write_column_file,
)
from .errors import (
    ChecksumError,
    DivergedError,
    EvalLengthError,
    FieldMismatchError,
    FormatError,
    GatherIndexError,
    PlugnerError,
    ShapeError,
    TapeError,
    UsageError,
    VersionError,
    VocabError,
)
from .evaluate import MetricsReport, evaluate
from .head import (
    DecodeResult,
    IndexSpace,
    LcHead,
    NerModel,
    SpanParse,
    Verbalizer,
    greedy_decode,
    indices_from_spans,
    spans_from_indices,
    step_distribution,
    step_scores,
)
from .persist import (
    PromptFile,
    apply_prompt,
    backbone_hash,
    load_checkpoint,
    load_prompt,
    mix_prompts,
    prompt_from_model,
    save_checkpoint,
    save_prompt,
)
from .tensor import (
    GradCheckReport,
    Parameter,
    Tape,
    Tensor,
    finite_diff_check,
    record,
)
from .training import (
    AdamW,
    OptimizerConfig,
    TrainResult,
    guidance_gradcheck,
    lr_at_step,
    param_ratio,
    partition_parameters,
    pretrain_backbone,
    run_training,
    sequence_loss,
    tune_guidance,
    warmup_steps,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
