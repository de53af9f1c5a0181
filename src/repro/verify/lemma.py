"""Lemmas and machine-checked proofs — the Coq-substitute (DESIGN.md §1).

The paper's Coq artifact proves ``Unstuff(RemoveFlags(AddFlags(
Stuff(D)))) = D`` with "57 lemmas and 1800 lines", organized so that
"the proof uses separate independent correctness lemmas for each
sublayer".  We reproduce the *structure* of that artifact in Python:

* a :class:`Lemma` is a named, universally-quantified property,
  attributed to one sublayer (or to an interface between two), with
  explicit dependencies on other lemmas;
* a proof *tactic* decides it: :func:`exhaustive` enumerates a bounded
  domain completely (a sound decision procedure for the finite-state
  transductions involved — see :mod:`repro.datalink.framing.decide`
  for the exact automaton-product alternative), and
  :func:`sampled` draws seeded random cases for domains too big to
  enumerate;
* a :class:`LemmaLibrary` proves lemmas in dependency order and
  reports the *modularity metrics* the paper's lesson 1 is about:
  how many lemmas belong to each sublayer, and how many cross
  sublayer boundaries.

A lemma failing produces the counterexample, which is how the E2
search exhibits the paper's "subtle" invalid stuffing rules.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..core.errors import VerificationError


@dataclass
class ProofResult:
    """Outcome of checking one lemma."""

    lemma: str
    proved: bool
    cases_checked: int
    counterexample: tuple | None = None
    detail: str = ""
    elapsed: float = 0.0

    def __bool__(self) -> bool:
        """Truthiness is the verdict: ``bool(result)`` is ``proved``."""
        return self.proved

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form — everything except wall time.

        Wall time is the one field that differs between two runs of the
        same proof, so leaving it out makes reports byte-comparable
        across runs.  Counterexample
        elements are rendered with ``repr`` (case tuples may hold
        non-JSON types like :class:`~repro.core.bits.Bits`).
        """
        return {
            "lemma": self.lemma,
            "proved": self.proved,
            "cases_checked": self.cases_checked,
            "counterexample": (
                None
                if self.counterexample is None
                else [repr(item) for item in self.counterexample]
            ),
            "detail": self.detail,
        }


CaseSource = Callable[[], Iterable[tuple]]
Property = Callable[..., bool]


class Lemma:
    """A universally-quantified property with provenance and dependencies.

    Parameters
    ----------
    name:
        Unique lemma name, e.g. ``"stuff_roundtrip"``.
    statement:
        Human-readable statement (what would be the Coq ``Theorem``).
    prop:
        Predicate over one case tuple's elements; must return True for
        every case the source yields.
    cases:
        Zero-argument callable yielding case tuples (the quantified
        domain, already bounded).
    sublayer:
        The component this lemma reasons about — ``"stuffing"``,
        ``"flags"`` — or an interface like ``"stuffing/flags"`` when it
        necessarily spans two (the modularity metric counts these).
    depends_on:
        Names of lemmas this proof uses.  The library checks the
        graph is acyclic and proves dependencies first.
    """

    def __init__(
        self,
        name: str,
        statement: str,
        prop: Property,
        cases: CaseSource,
        sublayer: str,
        depends_on: Iterable[str] = (),
    ):
        """See the class docstring for the parameter meanings."""
        self.name = name
        self.statement = statement
        self.prop = prop
        self.cases = cases
        self.sublayer = sublayer
        self.depends_on = tuple(depends_on)

    @property
    def crosses_sublayers(self) -> bool:
        """True when the lemma spans an interface (``"stuffing/flags"``)."""
        return "/" in self.sublayer

    def prove(self) -> ProofResult:
        """Check the property over every case; stop at the first failure."""
        start = time.perf_counter()
        count = 0
        for case in self.cases():
            count += 1
            try:
                ok = self.prop(*case)
            except Exception as exc:  # a crash is a failure with detail
                return ProofResult(
                    self.name, False, count, case,
                    detail=f"raised {type(exc).__name__}: {exc}",
                    elapsed=time.perf_counter() - start,
                )
            if not ok:
                return ProofResult(
                    self.name, False, count, case,
                    elapsed=time.perf_counter() - start,
                )
        return ProofResult(
            self.name, True, count, elapsed=time.perf_counter() - start
        )

    def __repr__(self) -> str:
        return f"Lemma({self.name!r}, sublayer={self.sublayer!r})"


# ----------------------------------------------------------------------
# Case-source combinators (proof tactics)
# ----------------------------------------------------------------------
def exhaustive(*domains: Callable[[], Iterable[Any]]) -> CaseSource:
    """Cartesian product of fully-enumerated domains."""

    def source() -> Iterator[tuple]:
        """Enumerate the full cartesian product, leftmost domain slowest."""

        def recurse(prefix: tuple, remaining: tuple) -> Iterator[tuple]:
            """Extend ``prefix`` with every value of each remaining domain."""
            if not remaining:
                yield prefix
                return
            head, *tail = remaining
            for value in head():
                yield from recurse(prefix + (value,), tuple(tail))

        yield from recurse((), domains)

    return source


def sampled(
    generator: Callable[[random.Random], tuple],
    samples: int = 500,
    seed: int = 0,
) -> CaseSource:
    """Seeded random cases for domains too large to enumerate."""

    def source() -> Iterator[tuple]:
        """Yield ``samples`` cases from a freshly-seeded generator."""
        rng = random.Random(seed)
        for _ in range(samples):
            yield generator(rng)

    return source


# ----------------------------------------------------------------------
@dataclass
class LibraryReport:
    """Aggregate result of proving a lemma library.

    ``results`` are kept sorted by lemma name (see :meth:`sort`) so a
    report renders independently of proof order.  ``order`` preserves
    the dependency-respecting order the proofs were run in.
    """

    results: list[ProofResult] = field(default_factory=list)
    order: list[str] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        """True when every checked lemma held."""
        return all(r.proved for r in self.results)

    @property
    def total_cases(self) -> int:
        """Total cases checked across all lemmas."""
        return sum(r.cases_checked for r in self.results)

    def failures(self) -> list[ProofResult]:
        """The results that did not hold, sorted by lemma name."""
        return [r for r in self.results if not r.proved]

    def result(self, name: str) -> ProofResult:
        """The result for lemma ``name`` (raises ``KeyError`` if absent)."""
        for r in self.results:
            if r.lemma == name:
                return r
        raise KeyError(name)

    def sort(self) -> "LibraryReport":
        """Sort ``results`` by lemma name, in place; returns self."""
        self.results.sort(key=lambda r: r.lemma)
        return self

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form (no wall time; see ProofResult.as_dict)."""
        return {
            "proved": self.proved,
            "total_cases": self.total_cases,
            "order": list(self.order),
            "results": [r.as_dict() for r in self.results],
        }

    def summary(self) -> str:
        """Human-readable one-line-per-lemma report."""
        lines = [
            f"{len(self.results)} lemmas, {self.total_cases} cases, "
            f"{'ALL PROVED' if self.proved else 'FAILURES PRESENT'}"
        ]
        for r in self.results:
            status = "proved" if r.proved else f"FAILED at {r.counterexample!r}"
            lines.append(f"  {r.lemma}: {status} ({r.cases_checked} cases)")
        return "\n".join(lines)


class LemmaLibrary:
    """An ordered collection of lemmas with dependency tracking.

    Mirrors the paper's Coq artifact organisation: lemmas are added in
    dependency order (``add`` rejects unknown dependencies, so insertion
    order is always topological), proved via :meth:`prove_all`, and
    summarised by the modularity metrics of the paper's lesson 1
    (:meth:`modularity_report`).
    """

    def __init__(self, name: str):
        """An empty library named ``name``."""
        self.name = name
        self._lemmas: dict[str, Lemma] = {}

    def add(self, lemma: Lemma) -> Lemma:
        """Register ``lemma``; its dependencies must already be present."""
        if lemma.name in self._lemmas:
            raise VerificationError(f"duplicate lemma {lemma.name!r}")
        for dep in lemma.depends_on:
            if dep not in self._lemmas:
                raise VerificationError(
                    f"lemma {lemma.name!r} depends on unknown {dep!r} "
                    f"(add dependencies first)"
                )
        self._lemmas[lemma.name] = lemma
        return lemma

    def __len__(self) -> int:
        """Number of lemmas in the library."""
        return len(self._lemmas)

    def __contains__(self, name: str) -> bool:
        """True when a lemma named ``name`` is registered."""
        return name in self._lemmas

    def lemma(self, name: str) -> Lemma:
        """The lemma named ``name`` (raises ``KeyError`` if absent)."""
        return self._lemmas[name]

    def lemmas(self) -> list[Lemma]:
        """All lemmas, in insertion (= topological) order."""
        return list(self._lemmas.values())

    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Dependency-respecting proof order (insertion order is already
        topological because ``add`` requires dependencies to exist)."""
        return list(self._lemmas)

    def prove_all(self, stop_on_failure: bool = False) -> LibraryReport:
        """Prove every lemma in dependency order.

        ``stop_on_failure`` stops at the first lemma that fails.  Results
        in the returned report are sorted by lemma name.
        """
        report = LibraryReport(order=self.topological_order())
        for name in report.order:
            result = self._lemmas[name].prove()
            report.results.append(result)
            if stop_on_failure and not result.proved:
                break
        return report.sort()

    # ------------------------------------------------------------------
    # Modularity metrics (the paper's lesson 1)
    # ------------------------------------------------------------------
    def lemmas_per_sublayer(self) -> dict[str, int]:
        """Lemma counts keyed by the sublayer (or interface) they reason about."""
        counts: dict[str, int] = {}
        for lemma in self._lemmas.values():
            counts[lemma.sublayer] = counts.get(lemma.sublayer, 0) + 1
        return counts

    def cross_sublayer_lemmas(self) -> list[str]:
        """Lemmas whose statement spans more than one sublayer."""
        return [
            lemma.name for lemma in self._lemmas.values() if lemma.crosses_sublayers
        ]

    def cross_sublayer_dependencies(self) -> int:
        """Dependency edges joining lemmas of *different* sublayers."""
        count = 0
        for lemma in self._lemmas.values():
            for dep in lemma.depends_on:
                if self._lemmas[dep].sublayer != lemma.sublayer:
                    count += 1
        return count

    def modularity_report(self) -> dict[str, Any]:
        """The paper's lesson-1 metrics: how modular is this proof library?"""
        per = self.lemmas_per_sublayer()
        cross = self.cross_sublayer_lemmas()
        return {
            "lemmas": len(self._lemmas),
            "per_sublayer": per,
            "cross_sublayer_lemmas": len(cross),
            "cross_sublayer_dependencies": self.cross_sublayer_dependencies(),
            "modular_fraction": (
                (len(self._lemmas) - len(cross)) / len(self._lemmas)
                if self._lemmas
                else 1.0
            ),
        }


def prove_libraries(
    libraries: Iterable[LemmaLibrary], stop_on_failure: bool = False
) -> dict[str, LibraryReport]:
    """Prove each library in turn; reports keyed by library name.

    Names must be unique.  ``stop_on_failure`` is passed to each
    library's :meth:`LemmaLibrary.prove_all`.
    """
    batch = list(libraries)
    names = [library.name for library in batch]
    for name in names:
        if names.count(name) > 1:
            raise VerificationError(f"duplicate library name {name!r} in batch")
    return {
        library.name: library.prove_all(stop_on_failure=stop_on_failure)
        for library in batch
    }
