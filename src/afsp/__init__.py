"""Adaptive few-shot prompting for machine translation.

Retrieves semantically similar demonstrations from a parallel corpus with a
hybrid dense/sparse/multi-vector score, renders them into a fixed prompt,
samples multiple candidate translations from a chat-completions endpoint,
and picks the best one with a self-supervised quality scorer.
"""

from .corpus import Corpus, DemoPair, ingest, load, save, split
from .degeneration import (
    DegenerationOp,
    MockBackTranslator,
    OpCombination,
    RerankerExample,
    apply_op,
    enumerate_combinations,
    generate_dataset,
    score_of,
)
from .embedding import (
    DenseVec,
    EmbeddingTable,
    MultiVec,
    ProjectionSet,
    SparseWeights,
    TextEmbeddings,
    dense_embed,
    embed_tokens,
    init_projections,
    load_table,
    multi_embed,
    save_table,
    sparse_embed,
    synthetic_table,
)
from .llm_client import (
    CandidateSet,
    ChatCompletionsClient,
    GenerationConfig,
    MockClient,
    fingerprint,
)
from .metrics import EvalReport, bleu4, chrf, evaluate, rouge
from .pipeline import (
    BatchSummary,
    PipelineConfig,
    TranslationPipeline,
    TranslationResult,
    load_config,
)
from .prompting import PromptRequest, extract_translation, render_prompt
from .reranker import (
    NGramRegressor,
    QualityScorer,
    TrainReport,
    featurize,
    load_model,
    rank,
    save_model,
    train,
)
from .retrieval import (
    RetrievalIndex,
    ScoredDemo,
    Weights,
    build_index,
    load_index,
    retrieve_topk,
    save_index,
    score_dense,
    score_hybrid,
    score_multi,
    score_sparse,
)

__version__ = "0.1.0"
