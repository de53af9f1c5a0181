"""Tests for the multi-library proof loop and report ordering."""

import json

import pytest

from repro.core.errors import VerificationError
from repro.verify import prove_libraries
from repro.verify.lemma import (
    Lemma,
    LemmaLibrary,
    LibraryReport,
    ProofResult,
    exhaustive,
)


def domain():
    return lambda: range(6)


def build_library(name="lib", body=lambda x: x * x >= 0):
    """A small library with a dependency chain and unsorted insertion order."""
    lib = LemmaLibrary(name)
    lib.add(Lemma("zebra", "last alphabetically, first inserted",
                  lambda x: x + 1 > x, exhaustive(domain()), sublayer="a"))
    lib.add(Lemma("mid", "depends on zebra", body,
                  exhaustive(domain()), sublayer="a", depends_on=["zebra"]))
    lib.add(Lemma("alpha", "depends on mid", lambda x: 2 * x == x + x,
                  exhaustive(domain()), sublayer="b", depends_on=["mid"]))
    return lib


class TestReportOrdering:
    def test_sort_orders_results_by_lemma_name(self):
        report = LibraryReport(order=["zebra", "mid", "alpha"])
        for name in ["zebra", "mid", "alpha"]:
            report.results.append(
                ProofResult(lemma=name, proved=True, cases_checked=1)
            )
        assert [r.lemma for r in report.sort().results] == [
            "alpha", "mid", "zebra",
        ]

    def test_serial_prove_all_returns_sorted_results(self):
        report = build_library().prove_all()
        names = [r.lemma for r in report.results]
        assert names == sorted(names) == ["alpha", "mid", "zebra"]
        # `order` keeps the dependency-respecting proof order.
        assert report.order == ["zebra", "mid", "alpha"]

    def test_as_dict_is_json_stable(self):
        one = json.dumps(build_library().prove_all().as_dict(), sort_keys=True)
        two = json.dumps(build_library().prove_all().as_dict(), sort_keys=True)
        assert one == two


class TestProveLibraries:
    def test_serial_batch_matches_prove_all(self):
        batch = prove_libraries([build_library()])["lib"]
        assert batch.as_dict() == build_library().prove_all().as_dict()

    def test_duplicate_library_names_rejected(self):
        with pytest.raises(VerificationError, match="duplicate"):
            prove_libraries([build_library(), build_library()])

    def test_stop_on_failure_parity(self):
        def broken(x):
            return x < 1  # fails on x == 1

        serial = build_library(body=broken).prove_all(stop_on_failure=True)
        batch = prove_libraries(
            [build_library(body=broken)], stop_on_failure=True
        )["lib"]
        assert not serial.proved and not batch.proved
        assert [r.lemma for r in serial.results] == [
            r.lemma for r in batch.results
        ]

