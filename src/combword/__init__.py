"""Bijection-invariant subword-pair statistics of words, and a small
from-scratch CNN that classifies words from the resulting tensors."""

__version__ = "0.1.0"

from .combinatorics import CombinatoricsMap, combinatorics_map
from .encoding import EncodingConfig, channel_count, encode_dense, encode_onehot
from .equivalence import EquivalenceReport, check_theorem, equivalent_by_tensor, find_bijection
from .words import (
    Alphabet,
    Bijection,
    SubwordTable,
    Word,
    apply_bijection,
    distinct_subwords,
    is_palindrome,
    max_table_size,
    parse_word,
)

__all__ = [
    "Alphabet",
    "Bijection",
    "CombinatoricsMap",
    "EncodingConfig",
    "EquivalenceReport",
    "SubwordTable",
    "Word",
    "apply_bijection",
    "channel_count",
    "check_theorem",
    "combinatorics_map",
    "distinct_subwords",
    "encode_dense",
    "encode_onehot",
    "equivalent_by_tensor",
    "find_bijection",
    "is_palindrome",
    "max_table_size",
    "parse_word",
    "__version__",
]
