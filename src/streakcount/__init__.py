"""Exact counting for the heads-heads versus heads-tails coin tossing game.

Alice scores each adjacent heads-heads pair, Bob each heads-tails pair,
and a sequence's score is Alice's total minus Bob's.  The package counts
sequences by score and final toss along four independent routes (closed
forms, an appended-toss dynamic program, in-place term updates and raw
enumeration), builds the sequences behind any count constructively, and
cross-checks every route against the others.

Each layer loads on first use: `import streakcount` executes none of the
submodules, and reading a public name such as `streakcount.win_gap`
imports only the submodule that defines it and the ones that submodule
needs.  Every name in `__all__` is the same object as in its home module.
"""

import sys

__version__ = "0.1.0"

# each submodule and the public names it defines: the table behind
# __all__ and the lazy lookup below.  These are the entry points of each
# route and the types they return or raise; the helpers the layers share
# (supports, signature algebra, close-call buckets) stay in their modules
_API = {
    "core": ("ScoreDistribution", "TossSequence", "score"),
    "counting": ("WinOdds", "closed_distribution", "heady_close_calls",
                 "heady_count", "taily_count", "win_gap", "win_gap_step",
                 "win_odds"),
    "oracle": ("OracleCapExceeded", "enumerate_distribution", "sequences_with"),
    "recurrence": ("dp_distribution", "dp_sweep", "incremental_distribution",
                   "table_sweep"),
    "signatures": ("generate_sequences", "sequence_count"),
    "verify": ("SuiteResult", "run_suites"),
}
_HOME = {name: module for module, names in _API.items() for name in names}
_SUBMODULES = frozenset({*_API, "cli", "_summands", "_series", "_score_recurrence"})

__all__ = sorted(_HOME)


def _submodule(name: str):
    # through the import statement's machinery, so -X importtime lists
    # every layer a lookup loads
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    # called only for a name not yet in the module's globals (PEP 562)
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
