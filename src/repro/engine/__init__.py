"""Search-engine substrate: corpus, inverted index, BM25, sharding, broker."""

from repro.engine.broker import BrokerResponse, SearchBroker
from repro.engine.index import InvertedIndex, Postings
from repro.engine.scoring import BM25Scorer, CollectionStats, ScoredDoc
from repro.engine.sharding import ShardedIndex, partition_documents
from repro.engine.text import (
    CorpusConfig,
    Document,
    Query,
    generate_corpus,
    generate_queries,
    tokenize,
)

__all__ = [
    "tokenize",
    "Document",
    "Query",
    "CorpusConfig",
    "generate_corpus",
    "generate_queries",
    "InvertedIndex",
    "Postings",
    "BM25Scorer",
    "CollectionStats",
    "ScoredDoc",
    "ShardedIndex",
    "partition_documents",
    "SearchBroker",
    "BrokerResponse",
]
