"""Parity across the full configuration matrix (ISSUE 7 acceptance).

{salssa, fmsa} x {cold state, warm cache_dir restart}: every cell must
replay a short random delta stream bit-identically to a cold run over the
final module, and every live function must still behave as it does
unmerged — digest parity alone cannot catch a bug every mode shares.  Kept
deliberately small per cell — the long-stream coverage lives in
``test_pipeline_parity.py``; this file's job is the cross product.
"""

import random

import pytest

from repro.harness import run_pipeline, run_pipeline_incremental
from repro.harness.experiments import merge_report_digest, search_workload
from repro.incremental import copy_module
from repro.ir.instructions import CmpInst
from repro.ir.values import Constant
from repro.workloads import random_delta

from ..conftest import observe_many

#: Generated functions take 1-3 ``i32`` arguments; each is called with the
#: matching prefix of every tuple.
ARGUMENT_TUPLES = ((0, 0, 0), (1, 2, 3), (7, -3, 100), (-11, 5, 64))


def argument_tuples(function):
    """The fixed tuples plus one per constant ``function`` compares against:
    clone families diverge behind equality guards no fixed tuple hits."""
    compared = sorted({operand.value for inst in function.instructions()
                       if isinstance(inst, CmpInst)
                       for operand in inst.operands
                       if isinstance(operand, Constant)
                       and isinstance(operand.value, int)})
    tuples = ARGUMENT_TUPLES + tuple((value,) * 3 for value in compared)
    return [arguments[:len(function.args)] for arguments in tuples]


def assert_behaviour_preserved(live, run):
    """Every function of the unmerged ``live`` module behaves the same in
    the run's merged working module (thunks, merged bodies and all)."""
    merged = run.state.analysis_manager.module
    functions = list(live.defined_functions())
    assert functions
    for function in functions:
        counterpart = merged.get_function(function.name)
        assert counterpart is not None and not counterpart.is_declaration()
        tuples = argument_tuples(function)
        assert observe_many(merged, counterpart, tuples, externals={}) == \
            observe_many(live, function, tuples, externals={}), function.name


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
def test_delta_stream_parity(technique, tmp_path):
    module = search_workload(10)
    rng = random.Random(31)
    kwargs = dict(benchmark="matrix", technique=technique,
                  cache_dir=str(tmp_path))
    run = run_pipeline_incremental(module, **kwargs)
    state = run.state
    for _ in range(2):
        random_delta(module, rng, edits=2)
        run = run_pipeline_incremental(module, state, **kwargs)
    cold = run_pipeline(copy_module(module), "matrix", technique=technique)
    assert merge_report_digest(run.report) == \
        merge_report_digest(cold.report)
    assert run.report.profitable_merges > 0
    assert_behaviour_preserved(module, run)

    # Warm restart: a fresh process bootstraps from the snapshot alone and
    # must continue the stream bit-identically.
    random_delta(module, rng, edits=2)
    resumed = run_pipeline_incremental(module, **kwargs)
    assert resumed.state is not state
    cold = run_pipeline(copy_module(module), "matrix", technique=technique)
    assert merge_report_digest(resumed.report) == \
        merge_report_digest(cold.report)
    assert resumed.stats.pairs_reused > 0
    assert_behaviour_preserved(module, resumed)
