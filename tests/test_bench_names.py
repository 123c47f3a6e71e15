"""The benchmark's view of the package: the names it wraps and one gated
pass.  ``bench/tracer.py`` rebinds each of its targets by name, so a
deleted target is an ``AttributeError`` there; this catches it first."""

import importlib
import os

import pytest

import tcat

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return (importlib.import_module("tracer"),
            importlib.import_module("workloads"))


def test_tracer_targets_are_callables_of_the_package(bench):
    tracer, _workloads = bench
    for module, name in tracer.TCAT_TARGETS:
        assert callable(getattr(getattr(tcat, module), name)), (module, name)


def test_seeded_ising_passes_the_benchmark_gate(bench):
    _tracer, workloads = bench
    work = workloads.WORKLOADS["catalog_factorize"]
    text, = workloads.seeded_texts([workloads.catalog_doc("ising")], 1)
    cat, problems = workloads.checked(text, work.stages, work.max_word_length)
    assert cat is not None and problems == []
