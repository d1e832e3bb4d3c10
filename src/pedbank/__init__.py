"""Pedestrian knowledge bank.

Quantizes precomputed instance embeddings into a codebook, refines each
codeword with a hint vector learned through binary pedestrian
classification, and complements downstream proposal or query features with
the composed bank through multi-head cross-attention.
"""

from .attention import (
    AttentionGrads,
    AttentionParams,
    AttentionTrace,
    FeatureBatch,
    attention_gradients,
    cross_attend,
    init_attention,
    layer_norm,
    load_feature_batch,
    save_feature_batch,
)
from .bank import BANK_FORMAT_VERSION, KnowledgeBank, assemble_bank, load_bank, save_bank
from .embeddings import (
    BACKGROUND,
    PEDESTRIAN,
    EmbeddingDataset,
    generate_synthetic,
    l2_normalize,
    parse_embedding_file,
    split_by_label,
    write_embedding_file,
)
from .errors import (
    DimensionError,
    NumericalError,
    ParseError,
    PedbankError,
    PreconditionError,
)
from .hints import (
    ClassifierGrads,
    ClassifierParams,
    HintSet,
    StepRecord,
    TrainConfig,
    backward,
    bce_loss,
    forward_classify,
    init_classifier,
    init_hints,
    train_hints,
    write_history,
)
from .quantizer import (
    Codebook,
    KMeansConfig,
    assignment_report,
    kmeans,
    kmeans_with_objectives,
    quantize,
)

__version__ = "0.1.0"
