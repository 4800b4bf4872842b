"""The names the benchmark harness in perfbench/ binds at start-up.

perfbench wraps rockrelax functions by name, builds specs through their
constructors and reads report fields; a name it cannot find ends every
benchmark run with an error. This test loads the harness as the benchmark
does, from perfbench/ on sys.path, and only reads that directory.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import rockrelax
import rockrelax.cli  # noqa: F401  (the harness drives the CLI)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """The harness modules (instrument, workloads), imported without
    writing bytecode next to them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return (importlib.import_module("instrument"),
            importlib.import_module("workloads"))


def bound_names(instrument):
    """(owner, attribute) of everything an instrument may replace."""
    pairs = {(f"rockrelax.{mod}", fn) for mod, fn in instrument.SPANS}
    pairs |= {(f"rockrelax.{mod}", fn) for names in instrument.GROUPS.values()
              for mod, fn in names}
    pairs |= {("rockrelax.solver", fn) for fn in
              ("make_min_value_oracle", "u_step", "grid_points", "simplex_grid")}
    pairs |= {("rockrelax.regularizer", fn) for fn in instrument.REGULARIZER_FUNCTIONS}
    return sorted(pairs)


@pytest.mark.parametrize("trace", [False, True])
def test_instrument_installs_and_removes(harness, trace):
    instrument, _ = harness
    names = bound_names(instrument)
    before = [getattr(sys.modules[mod], fn) for mod, fn in names]
    call = rockrelax.ScenarioFunction.__call__
    inst = instrument.Instrument(trace=trace)
    try:
        inst.install()
    finally:
        inst.remove()
    assert [getattr(sys.modules[mod], fn) for mod, fn in names] == before
    assert rockrelax.ScenarioFunction.__call__ is call


def test_every_reweight_kind_has_a_u_step_kind(harness):
    instrument, workloads = harness
    p = np.array([0.2, 0.3, 0.5])
    for kind in workloads.KINDS:
        spec = workloads._spec(rockrelax, kind, p, 0.7)
        assert instrument._u_step_kind(spec) in instrument.U_STEP_KINDS, kind


def test_builtins_round_under_the_traced_instrument(harness, tmp_path):
    instrument, workloads = harness
    inst = instrument.Instrument(trace=True)
    inst.install()
    try:
        out = workloads.builtins_round(rockrelax, inst, 1, 0, tmp_path)
    finally:
        inst.remove()
    assert out.attempted == len(workloads.BUILTINS)
    assert out.errors == []
    assert inst.counts["solver.solves"] > 0
    assert inst.counts["solver.outer_iters"] > 0
