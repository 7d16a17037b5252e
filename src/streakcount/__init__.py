"""Exact counting for the heads-heads versus heads-tails coin tossing game.

Alice scores each adjacent heads-heads pair, Bob each heads-tails pair,
and a sequence's score is Alice's total minus Bob's.  The package counts
sequences by score and final toss along four independent routes (closed
forms, an appended-toss dynamic program, in-place term updates and raw
enumeration), builds the sequences behind any count constructively, and
cross-checks every route against the others.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    CloseCallTable,
    Outcome,
    ScoreDistribution,
    TossSequence,
    classify,
    close_call_buckets,
    parse_sequence,
    score,
    sequence_to_text,
)
from .counting import (
    WinOdds,
    closed_distribution,
    decimal_ratio,
    heady_close_calls,
    heady_count,
    heady_support,
    score_support,
    taily_count,
    taily_support,
    win_gap,
    win_gap_step,
    win_odds,
)
from .oracle import (
    OracleCapExceeded,
    enumerate_distribution,
    sequences_with,
)
from .recurrence import (
    dp_distribution,
    dp_sweep,
    incremental_distribution,
    table_sweep,
)
from .signatures import (
    complement,
    compositions,
    generate_sequences,
    min_length,
    min_length_sequence,
    sequence_count,
    signature_of,
    signature_score,
)
from .verify import SuiteResult, run_suites

__all__ = [
    "CloseCallTable",
    "Outcome",
    "OracleCapExceeded",
    "ScoreDistribution",
    "SuiteResult",
    "TossSequence",
    "WinOdds",
    "classify",
    "close_call_buckets",
    "closed_distribution",
    "complement",
    "compositions",
    "decimal_ratio",
    "dp_distribution",
    "dp_sweep",
    "enumerate_distribution",
    "generate_sequences",
    "heady_close_calls",
    "heady_count",
    "heady_support",
    "incremental_distribution",
    "min_length",
    "min_length_sequence",
    "parse_sequence",
    "run_suites",
    "score",
    "score_support",
    "sequence_count",
    "sequence_to_text",
    "sequences_with",
    "signature_of",
    "signature_score",
    "table_sweep",
    "taily_count",
    "taily_support",
    "win_gap",
    "win_gap_step",
    "win_odds",
]
