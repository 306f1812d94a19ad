"""Joint entity and relation linking for questions over knowledge graphs.

Candidates for every spotted keyword are disambiguated together, either by
solving a clustered shortest-route problem over the graph (exactly or via a
reduction to an asymmetric TSP with local search) or by re-ranking with
learned graph-connectivity features, with an adaptive retry that flips
low-confidence entity/relation predictions.
"""

from .adaptive import AdaptiveConfig, adapt
from .config import PipelineConfig
from .density import DensityFeatures, compute_features
from .errors import (
    DataError,
    IndexVersionError,
    InstanceError,
    KglinkerError,
    ManifestError,
    NodeNotFoundError,
    ParseError,
    TooLargeError,
    TrainingError,
)
from .gtsp import (
    Assignment,
    AtspInstance,
    GtspInstance,
    build_instance,
    noon_bean,
    solve_approx,
    solve_exact,
    solve_lk,
)
from .index import Candidate, CandidateList, LabelEntry, LabelIndex, build_index
from .kg import (
    DISCONNECTED,
    HopOracle,
    Kind,
    KnowledgeGraph,
    SubdivisionGraph,
    Triple,
    build_subdivision,
    hop_block,
    load_graph,
)
from .pipeline import KeywordBlock, LinkingResult, Pipeline, RankedCandidate
from .reranker import RerankModel, TrainingRow, mrr, rerank, train
from .spotter import (
    ERModel,
    ERPrediction,
    GoldSpan,
    Question,
    SpotMode,
    extract_keywords,
    predict_er,
    train_er_classifier,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "Assignment",
    "AtspInstance",
    "Candidate",
    "CandidateList",
    "DISCONNECTED",
    "DataError",
    "DensityFeatures",
    "ERModel",
    "ERPrediction",
    "GoldSpan",
    "GtspInstance",
    "HopOracle",
    "IndexVersionError",
    "InstanceError",
    "KeywordBlock",
    "KglinkerError",
    "Kind",
    "KnowledgeGraph",
    "LabelEntry",
    "LabelIndex",
    "LinkingResult",
    "ManifestError",
    "NodeNotFoundError",
    "ParseError",
    "Pipeline",
    "PipelineConfig",
    "Question",
    "RankedCandidate",
    "RerankModel",
    "SpotMode",
    "SubdivisionGraph",
    "TooLargeError",
    "TrainingRow",
    "TrainingError",
    "Triple",
    "adapt",
    "build_index",
    "build_instance",
    "build_subdivision",
    "compute_features",
    "extract_keywords",
    "hop_block",
    "load_graph",
    "mrr",
    "noon_bean",
    "predict_er",
    "rerank",
    "solve_approx",
    "solve_exact",
    "solve_lk",
    "train",
    "train_er_classifier",
]
