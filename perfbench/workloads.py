"""The three workloads.  Each drives the paper's pipeline through its public
entry points with library defaults -- only the module, a name, the technique
and the incremental state are passed -- and checks every result."""

from __future__ import annotations

import functools
import gc
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness import merge_report_digest, run_pipeline, \
    run_pipeline_incremental
from repro.workloads.mutate import add_clone, mutate_constant, \
    remove_random

from checks import observe, semantic_mismatches, verify_errors
from population import SHAPE_SEED, build_module
from tracing import Tracer

NAME = "perfbench"
COLD_FUNCTIONS = 256
#: Modules per cold run.  One module per seed made cold_fmsa's compile time
#: and reduction track that module's content (the slowest seeds were the
#: ones that merged most): across ten seeds compile_s spread 0.29 and
#: reduction_pct 0.16 of their medians.
COLD_MODULES = 3
MODULE_SEED_STRIDE = 1000
STREAM_FUNCTIONS = 64
EDITS_PER_DELTA = 3
#: A stream re-bootstraps after this many deltas, so one run sets up (and
#: checks final-module parity) at least twice.
DELTAS_PER_STREAM = 50


@dataclass
class Record:
    """What one pass over a workload measured and found wrong."""

    setup_s: List[float] = field(default_factory=list)
    #: Per operation: one whole-module compile, or one delta.
    op_wall_s: List[float] = field(default_factory=list)
    #: Whole-module cold ``run_pipeline`` calls (for edit_stream: the
    #: end-of-stream parity references).
    compile_wall_s: List[float] = field(default_factory=list)
    compile_cpu_s: List[float] = field(default_factory=list)
    #: (baseline size, final size) of every distinct module produced.
    sizes: List[Tuple[int, int]] = field(default_factory=list)
    attempts: int = 0
    profitable: int = 0
    pairs_reused: int = 0
    pairs_rescored: int = 0
    merges_spliced: int = 0
    merges_recomputed: int = 0
    #: Operations tried, failed ones included.
    steps: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return len(self.op_wall_s)


@dataclass
class Budget:
    """When a pass stops: once ``seconds`` have passed and the minimums are
    met."""

    seconds: float = 0.0
    min_operations: int = 1
    min_setups: int = 1

    def done(self, started: float, record: Record) -> bool:
        return record.steps >= self.min_operations \
            and len(record.setup_s) >= self.min_setups \
            and time.perf_counter() - started >= self.seconds


def _timed(call: Callable):
    wall, cpu = time.perf_counter(), time.process_time()
    result = call()
    return result, time.perf_counter() - wall, time.process_time() - cpu


class Workload:
    """One pass over a workload: ``step`` runs one operation and checks it,
    ``finish`` checks what only the end of the pass can show.  With a
    ``tracer`` each operation is one traced root span."""

    def __init__(self, seed: int, tracer: Optional[Tracer] = None,
                 checked: bool = True) -> None:
        self.seed, self.tracer, self.checked = seed, tracer, checked
        self.record = Record()

    def step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def _operation(self, call: Callable):
        """``call()``, timed, as one operation."""
        self.record.steps += 1
        if self.tracer is None:
            return _timed(call)

        def traced():
            with self.tracer.operation():
                return call()
        return _timed(traced)


class Cold(Workload):
    """A cold whole-module ``run_pipeline``, cycling over the run's modules:
    the seed's own module, then ``COLD_MODULES - 1`` more drawn from it."""

    def __init__(self, technique: str, seed: int,
                 tracer: Optional[Tracer] = None,
                 checked: bool = True) -> None:
        super().__init__(seed, tracer, checked)
        self.technique = technique
        self.references: Dict[int, object] = {}
        self.digests: Dict[int, str] = {}

    def step(self) -> None:
        record = self.record
        module_seed = self.seed + MODULE_SEED_STRIDE \
            * (record.attempted % COLD_MODULES)
        gc.collect()  # the last operation's garbage is not this one's cost
        module, setup, _ = _timed(
            lambda: build_module(COLD_FUNCTIONS, module_seed))
        record.setup_s.append(setup)
        if self.checked and module_seed not in self.references:
            self.references[module_seed] = observe(module)
        record.attempted += 1
        try:
            result, wall, cpu = self._operation(
                lambda: run_pipeline(module, NAME, technique=self.technique))
        except Exception as error:  # a failed operation, not a crash
            traceback.print_exc()
            record.failures.append(f"run_pipeline raised {error!r}")
            return
        record.op_wall_s.append(wall)
        record.compile_wall_s.append(wall)
        record.compile_cpu_s.append(cpu)
        record.attempts += result.report.attempts
        record.profitable += result.report.profitable_merges
        digest = merge_report_digest(result.report)
        first = module_seed not in self.digests
        if first:
            self.digests[module_seed] = digest
            record.sizes.append((result.baseline_size, result.final_size))
        if not self.checked:
            return
        if first:
            print(f"perfbench: {self.technique} module seed {module_seed}: "
                  f"reduction {result.reduction_percent:.4f}%",
                  file=sys.stderr)
        problems = _module_problems(module, self.references[module_seed])
        if digest != self.digests[module_seed]:
            problems.append("merge report differs between repeats")
        if problems:
            record.failures.append("; ".join(problems))


class EditStream(Workload):
    """A closed loop of one client editing a live module: each edit is
    followed by ``run_pipeline_incremental`` on the live state, and the next
    edit is made only after that call returned.  A pass is a series of
    streams, each from a fresh bootstrap of the same base module; every
    stream ends with a cold-parity and interpreter check."""

    def __init__(self, seed: int, tracer: Optional[Tracer] = None,
                 checked: bool = True) -> None:
        super().__init__(seed, tracer, checked)
        self.module = self.state = self.run = None
        self.deltas = 0

    def step(self) -> None:
        record = self.record
        if self.module is None:
            self._start()
        _edit(self.module, self.shape, self.content)
        record.attempted += 1
        try:
            run, wall, _ = self._operation(
                lambda: run_pipeline_incremental(
                    self.module, self.state, benchmark=NAME,
                    technique="salssa"))
        except Exception as error:  # the state is suspect: end the stream
            traceback.print_exc()
            record.failures.append(
                f"run_pipeline_incremental raised {error!r}")
            self.module = None
            return
        self.run, self.state = run, run.state
        self.deltas += 1
        record.op_wall_s.append(wall)
        record.sizes.append((run.result.baseline_size, run.result.final_size))
        record.attempts += run.stats.attempts
        record.profitable += run.report.profitable_merges
        record.pairs_reused += run.stats.pairs_reused
        record.pairs_rescored += run.stats.pairs_rescored
        record.merges_spliced += run.stats.merges_spliced
        record.merges_recomputed += run.stats.merges_recomputed
        if self.checked:
            errors = verify_errors(self.state.analysis_manager.module)
            if errors:
                record.failures.append(
                    f"delta output does not verify: {errors[0]}")
        if self.deltas == DELTAS_PER_STREAM:
            self.finish()

    def finish(self) -> None:
        if self.module is not None and self.run is not None and self.checked:
            _check_stream_end(self.module, self.run, self.record)
        self.module = None

    def _start(self) -> None:
        stream = len(self.record.setup_s)
        gc.collect()  # the last stream's garbage is not this one's cost
        (self.module, self.state), setup, _ = _timed(_bootstrap)
        self.record.setup_s.append(setup)
        self.run, self.deltas = None, 0
        self.shape = random.Random(SHAPE_SEED * 100 + stream)
        self.content = random.Random(self.seed * 100 + stream)


def _edit(module, shape: random.Random, content: random.Random) -> None:
    """One delta of ``random_delta``'s mix: ``EDITS_PER_DELTA`` edits, each
    a constant change, a pasted near-clone or a deletion (weights 6:2:1).
    What is edited -- the kind of each edit and the function it hits -- is
    drawn from ``shape``, the same in every run; how -- which constant
    moves and by how much -- from ``content``, the seed's.  With both drawn
    from the seed, as ``random_delta`` does, the p90 delta time followed
    which large functions a seed happened to clone (across ten seeds it
    spread 0.17 of its median in one set of runs and 0.33 in another)."""
    for _ in range(EDITS_PER_DELTA):
        kind = shape.choices(("change", "add", "remove"), weights=(6, 2, 1))[0]
        if kind == "remove":
            remove_random(module, shape)
            continue
        function = shape.choice(list(module.defined_functions()))
        if kind == "change":
            mutate_constant(function, content)
        else:
            add_clone(module, content, source=function)


def _bootstrap():
    # The base module is the population's own draw, whatever the seed: the
    # edits are this workload's input.  A seeded base made a run's figures
    # track which 64 functions it drew more than the edits.
    module = build_module(STREAM_FUNCTIONS, SHAPE_SEED)
    run = run_pipeline_incremental(module, None, benchmark=NAME,
                                   technique="salssa")
    return module, run.state


def _check_stream_end(module, run, record: Record) -> None:
    """The stream's final module must equal a cold compile of the live
    module and behave like the unmerged live module."""
    record.attempted += 1
    reference = observe(module)
    problems = [f"final module: {problem}" for problem in
                _module_problems(run.state.analysis_manager.module, reference)]
    gc.collect()  # the stream's garbage is not the cold compile's cost
    try:
        cold_result, wall, cpu = _timed(
            lambda: run_pipeline(module, NAME, technique="salssa"))
    except Exception as error:
        traceback.print_exc()
        problems.append(f"cold reference raised {error!r}")
    else:
        record.compile_wall_s.append(wall)
        record.compile_cpu_s.append(cpu)
        if merge_report_digest(cold_result.report) \
                != merge_report_digest(run.report):
            problems.append("final merge report differs from a cold run")
    if problems:
        record.failures.append("; ".join(problems))


def _module_problems(module, reference) -> List[str]:
    problems = []
    errors = verify_errors(module)
    if errors:
        problems.append(f"does not verify: {errors[0]}")
    changed = semantic_mismatches(module, reference)
    if changed:
        problems.append(f"{len(changed)} functions changed behaviour, "
                        f"e.g. @{changed[0]}")
    return problems


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "cold_salssa": functools.partial(Cold, "salssa"),
    "cold_fmsa": functools.partial(Cold, "fmsa"),
    "edit_stream": EditStream,
}

#: Minimum work of an untraced run: each cold module compiled once; the
#: edit stream needs >= 100 deltas so ten lie beyond its p90, and two
#: streams so set-up time is a median of two.
MINIMUMS = {
    "cold_salssa": Budget(min_operations=COLD_MODULES),
    "cold_fmsa": Budget(min_operations=COLD_MODULES),
    "edit_stream": Budget(min_operations=2 * DELTAS_PER_STREAM, min_setups=2),
}
