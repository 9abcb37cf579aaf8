"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys

import pytest

import gen
import worker  # puts src/ on the path
import workloads
from tracing import Tracer

import etkit

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_and_stratified(name):
    w = workloads.WORKLOADS[name]
    first = w.round(7, 3)
    assert first == w.round(7, 3)
    other = w.round(8, 3)
    assert other != first
    # two seeds give the same mix of strata
    assert [i["stratum"] for i in other] == [i["stratum"] for i in first]


@pytest.mark.parametrize("p,d,e,z", [(2, 3, 1, True), (2, 3, 2, False), (3, 2, 1, False)])
def test_invariant_agrees_on_equivalent_maps(p, d, e, z):
    rng = gen.round_rng(1, "test", 0)
    for _ in range(5):
        m1, m2 = gen.equivalence_pair(rng, p, d, e, z, "yes")
        assert gen.invariant(*m1, p) == gen.invariant(*m2, p)
        n1, n2 = gen.equivalence_pair(rng, p, d, e, z, "no")
        assert gen.invariant(*n1, p) != gen.invariant(*n2, p)


def _bindings():
    """Every attribute of every etkit module and class, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "etkit" or mod_name.startswith("etkit.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = id(member)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_restores_bindings(name):
    w = workloads.WORKLOADS[name]
    before = _bindings()
    plain = worker.Loop(w, 11).for_rounds(1, keep_digests=True)
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(etkit.pairs.parse, "__wrapped__")
        traced = worker.Loop(w, 11, tracer).for_rounds(1, keep_digests=True)
    finally:
        tracer.restore()
    assert _bindings() == before
    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests
    assert tracer.calls["item"] == len(traced.latencies)
    assert all(span is not None for span in tracer.spans)
