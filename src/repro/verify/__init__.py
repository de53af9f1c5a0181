"""Verification substrate: lemmas, model checking, ownership analysis.

The Coq/Dafny substitute of DESIGN.md §1: :mod:`repro.verify.lemma`
provides machine-checked lemma libraries (bounded-exhaustive and
sampled tactics); :mod:`repro.verify.modelcheck` an explicit-state
model checker for protocol safety properties;
:mod:`repro.verify.ownership` the Dafny-ownership-substitute
interference analysis; :mod:`repro.verify.effort` the proof-effort
comparison metrics of experiment E3.  ``python -m repro.verify`` proves
the framing lemma libraries from the shell.
"""

from .effort import EffortComparison, Obligation
from .lemma import (
    CaseSource,
    Lemma,
    LemmaLibrary,
    LibraryReport,
    ProofResult,
    exhaustive,
    prove_libraries,
    sampled,
)
from .modelcheck import (
    CheckResult,
    Invariant,
    Model,
    channel_add,
    channel_remove,
    channel_variants,
    check,
)
from .ownership import OwnershipReport, analyze_ownership, compare_ownership
from .tcpmodels import CmModel, MonolithicModel, OsrModel, RdModel

__all__ = [
    "CheckResult",
    "CmModel",
    "EffortComparison",
    "Invariant",
    "Model",
    "MonolithicModel",
    "Obligation",
    "OsrModel",
    "OwnershipReport",
    "RdModel",
    "analyze_ownership",
    "channel_add",
    "channel_remove",
    "channel_variants",
    "check",
    "compare_ownership",
    "CaseSource",
    "Lemma",
    "LemmaLibrary",
    "LibraryReport",
    "ProofResult",
    "exhaustive",
    "prove_libraries",
    "sampled",
]
