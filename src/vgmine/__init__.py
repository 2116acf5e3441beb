"""Visual-grounding attention supervision: mining, maps, metrics, training."""

__version__ = "0.1.0"

from .attention import (
    AttentionMap,
    GlimpseStack,
    build_supervision,
    kl_divergence,
    l1_normalize,
    rank_correlation,
    rasterize,
    vqa_accuracy,
)
from .dataset import (
    BoundingBox,
    Dataset,
    ObjectAnnotation,
    QaTriplet,
    RegionAnnotation,
    load_dataset,
)
from .lexicon import Lexicon, MatchCondition, MatchResult, Pos, load_aliases, load_wordnet
from .miner import GroundingLabel, MinerConfig, mine
from .schedule import LossBreakdown, Schedule, total_loss
from .toymodel import ToyConfig, ToyModelParams, ToySample, make_synthetic, train

__all__ = [
    "AttentionMap",
    "BoundingBox",
    "Dataset",
    "GlimpseStack",
    "GroundingLabel",
    "Lexicon",
    "LossBreakdown",
    "MatchCondition",
    "MatchResult",
    "MinerConfig",
    "ObjectAnnotation",
    "Pos",
    "QaTriplet",
    "RegionAnnotation",
    "Schedule",
    "ToyConfig",
    "ToyModelParams",
    "ToySample",
    "build_supervision",
    "kl_divergence",
    "l1_normalize",
    "load_aliases",
    "load_dataset",
    "load_wordnet",
    "make_synthetic",
    "mine",
    "rank_correlation",
    "rasterize",
    "total_loss",
    "train",
    "vqa_accuracy",
]
