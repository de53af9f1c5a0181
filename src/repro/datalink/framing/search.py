"""Search for valid stuffing rules (the paper's 66-rule library).

Section 4.1: "We also created a library of stuffing protocols that our
proof deems valid; it found 66 alternate stuffing rules, some of which
had less overhead than HDLC."  This module reproduces that search.

The searched space matters and the paper does not spell its out, so we
define it explicitly and report per-family results (EXPERIMENTS.md
records the measured counts next to the paper's 66):

* :func:`prefix_rule_space` — the canonical family: for every 8-bit
  flag ``F`` and trigger length ``k``, trigger ``F[:k]`` with stuff bit
  ``¬F[k]``.  Both HDLC's own-flag rule and the paper's low-overhead
  rule are members.
* :func:`substring_rule_space` — the wider family: trigger is any
  contiguous substring of the flag, with either stuff bit (classic
  HDLC's ``11111``/0 for flag ``01111110`` is a member: the trigger is
  ``F[1:6]``, not a prefix).

Each candidate is decided exactly by
:func:`repro.datalink.framing.decide.decide_valid` and ranked by the
exact Markov overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ...core.bits import Bits, all_bitstrings
from .decide import decide_valid, decide_valid_stream
from .overhead import exact_overhead
from .rules import StuffingRule, prefix_rule


def prefix_rule_space(
    flag_bits: int = 8,
    trigger_lengths: Iterator[int] | None = None,
) -> Iterator[StuffingRule]:
    """All (flag, prefix-trigger, complement-stuff) candidates."""
    lengths = list(trigger_lengths) if trigger_lengths is not None else list(
        range(1, flag_bits)
    )
    for flag in all_bitstrings(flag_bits):
        for k in lengths:
            yield prefix_rule(flag, k)


def substring_rule_space(flag_bits: int = 8) -> Iterator[StuffingRule]:
    """All (flag, substring-trigger, either-stuff) candidates.

    Only *progressive* rules are yielded (non-progressive ones diverge
    and are rejected syntactically, not semantically).
    """
    for flag in all_bitstrings(flag_bits):
        n = len(flag)
        for start in range(n):
            for end in range(start + 1, n + 1):
                if end - start == n:
                    continue  # trigger == flag is degenerate
                trigger = flag[start:end]
                for stuff_bit in (0, 1):
                    rule = StuffingRule(flag, trigger, stuff_bit)
                    if rule.progressive:
                        yield rule


@dataclass
class SearchResult:
    """Outcome of searching one rule space."""

    candidates: int
    valid: list[StuffingRule]

    @property
    def valid_count(self) -> int:
        """How many candidates the decision procedure accepted."""
        return len(self.valid)

    def ranked_by_overhead(self) -> list[tuple[StuffingRule, float]]:
        """Valid rules from lowest to highest exact overhead."""
        scored = [(rule, exact_overhead(rule)) for rule in self.valid]
        scored.sort(key=lambda pair: (pair[1], pair[0].label()))
        return scored

    def better_than(self, reference: StuffingRule) -> list[StuffingRule]:
        """Valid rules with strictly lower exact overhead than ``reference``."""
        bar = exact_overhead(reference)
        return [rule for rule, cost in self.ranked_by_overhead() if cost < bar]

    def distinct_flags(self) -> int:
        """How many different flag patterns appear among the valid rules."""
        return len({rule.flag for rule in self.valid})


def _decider(semantics: str):
    """The receiver-model decision procedure for ``semantics``."""
    if semantics == "frame":
        return decide_valid
    if semantics == "stream":
        return decide_valid_stream
    raise ValueError(f"unknown semantics {semantics!r}")


def find_valid_rules(
    space: Iterable[StuffingRule],
    semantics: str = "frame",
) -> SearchResult:
    """Decide every candidate in ``space``; keep the valid ones.

    ``semantics`` selects the receiver model: ``"frame"`` (rescan from
    the body start, matching ``remove_flags``) or ``"stream"``
    (continuous scan, matching ``FrameAssembler`` — the stricter model
    and the closest analogue of the paper's 66-rule library).
    Duplicate candidates are decided once; valid rules keep the order
    of their first appearance in ``space``.
    """
    decide = _decider(semantics)
    seen: set[tuple[Bits, Bits, int]] = set()
    candidates = 0
    valid: list[StuffingRule] = []
    for rule in space:
        key = (rule.flag, rule.trigger, rule.stuff_bit)
        if key in seen:
            continue
        seen.add(key)
        candidates += 1
        if decide(rule):
            valid.append(rule)
    return SearchResult(candidates=candidates, valid=valid)
