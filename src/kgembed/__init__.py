"""Knowledge-graph embeddings from random walks.

Pipeline: parse RDF into a :class:`~kgembed.graph.KnowledgeGraph`, generate a
walk corpus (forward walks over all subjects, or bidirectional local walks
around entities of interest), train skip-gram/CBOW vectors with negative
sampling, then evaluate or serve the vectors.
"""

__version__ = "0.1.0"

from .graph import KnowledgeGraph, UnknownNodeError
from .graph_io import (
    ParseError,
    ParseReport,
    Triple,
    UnsupportedConstructError,
    load_graph,
    parse_ntriples,
    parse_turtle_subset,
    write_ntriples,
)
from .trainer import (
    EmbeddingModel,
    TrainConfig,
    Vocabulary,
    build_vocabulary,
    load_model,
    save_model,
    sgns_gradient,
    sgns_loss,
    train,
)
from .vector_ops import cosine, harmonic_mean, nearest_neighbors, pearson, spearman
from .walker import (
    Walk,
    WalkConfig,
    WalkCorpus,
    generate_classic_walks,
    generate_light_walks,
    read_corpus_tokens,
    write_corpus,
)
from .eval_harness import (
    DensityReport,
    document_relatedness_eval,
    entity_relatedness_eval,
    knn_classification_cv,
    linear_regression_cv,
    walk_density,
)

__all__ = [
    "__version__",
    "KnowledgeGraph",
    "UnknownNodeError",
    "Triple",
    "ParseReport",
    "ParseError",
    "UnsupportedConstructError",
    "parse_ntriples",
    "parse_turtle_subset",
    "load_graph",
    "write_ntriples",
    "Walk",
    "WalkConfig",
    "WalkCorpus",
    "generate_light_walks",
    "generate_classic_walks",
    "write_corpus",
    "read_corpus_tokens",
    "TrainConfig",
    "Vocabulary",
    "EmbeddingModel",
    "build_vocabulary",
    "train",
    "sgns_loss",
    "sgns_gradient",
    "save_model",
    "load_model",
    "cosine",
    "nearest_neighbors",
    "pearson",
    "spearman",
    "harmonic_mean",
    "knn_classification_cv",
    "linear_regression_cv",
    "entity_relatedness_eval",
    "document_relatedness_eval",
    "walk_density",
    "DensityReport",
]
