"""Per-layer attribution for the traced run: wrappers, spans and self time.

The wrappers are installed from the benchmark's own files around the public
functions of each layer; the program itself carries no tracing.  ``TARGETS``
names each function once, by its defining module.  ``from x import f``
copies the function into the importing module, so the wrapper is also set on
every ``repro`` module attribute that holds the same function -- patching
only the defining module would miss every caller that looks it up there.  A
target that no longer resolves stops the traced run with its name: a rename
never reports a layer as zero.

Spans record (layer, start, end, parent span, operation id) and stay in
memory until the run ends.  A span's self time is its duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer, defining module, attribute).  ``Class.method`` attributes are
#: patched on the class; a plain function is patched in its defining module
#: and in every ``repro`` module that imported it by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.baseline", "repro.harness.pipeline", "baseline_compile"),
    ("transforms.simplify", "repro.transforms.simplify", "simplify_function"),
    ("transforms.simplify", "repro.transforms.simplify", "simplify_module"),
    ("transforms.ssa_repair", "repro.transforms.mem2reg",
     "SSAReconstructor.reconstruct"),
    ("transforms.reg2mem", "repro.transforms.reg2mem", "demote_function"),
    ("transforms.mem2reg", "repro.transforms.mem2reg", "promote_allocas"),
    ("transforms.mem2reg", "repro.transforms.mem2reg", "promote_module"),
    ("transforms.clone", "repro.transforms.clone", "clone_function"),
    ("merge.linearize", "repro.merge.linearize", "linearize"),
    ("merge.align", "repro.merge.alignment", "align"),
    ("merge.phi_coalescing", "repro.merge.salssa.phi_coalescing",
     "plan_coalescing"),
    ("merge.codegen", "repro.merge.salssa.codegen", "SalSSAMerger.merge"),
    ("merge.cost_model", "repro.merge.cost_model", "CostModel.evaluate"),
    ("merge.cost_model", "repro.merge.cost_model", "CostModel.function_size"),
    ("merge.commit", "repro.merge.pass_manager", "replace_with_thunk"),
    ("ir.unique_name", "repro.ir.function", "Function.unique_name"),
    ("ir.unique_name", "repro.ir.module", "Module.unique_function_name"),
    ("ir.verify", "repro.ir.verifier", "verify_function"),
    ("ir.verify", "repro.ir.verifier", "verify_module"),
    ("ir.parse", "repro.ir.parser", "parse_named_function"),
    ("ir.print", "repro.ir.printer", "print_function"),
    ("ir.print", "repro.ir.printer", "print_module"),
    ("ir.print", "repro.ir.printer", "canonical_function_text"),
    ("ir.content_digest", "repro.ir.function", "Function.content_digest"),
    ("analysis.domtree", "repro.analysis.dominators",
     "DominatorTree.__init__"),
    ("search.build", "repro.search.strategy", "make_index"),
    ("search.query", "repro.search.index", "CandidateIndex.candidates_for"),
    ("search.update", "repro.search.index", "CandidateIndex.add"),
    ("search.update", "repro.search.index", "CandidateIndex.update"),
    ("search.update", "repro.search.index", "CandidateIndex.remove"),
    ("incremental.detect", "repro.incremental.state",
     "PipelineState.detect_delta"),
    ("incremental.apply", "repro.incremental.state",
     "PipelineState.apply_delta"),
    ("incremental.assemble", "repro.incremental.state",
     "PipelineState.assemble"),
    ("incremental.splice_valid", "repro.incremental.cache",
     "AttemptCache.splice_valid"),
)

#: Layers whose call count has a more telling name than ``calls``.
CALLS_NAME = {"analysis.domtree": "builds"}

#: Work counts read off a layer's return value: layer -> (name, extractor).
WORK_COUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "merge.linearize": ("entries", len),
    "merge.align": ("dp_cells", lambda result: result.dp_cells),
    "merge.phi_coalescing": ("coalesced", lambda plan: plan.coalesced_count),
}

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

ROOT = "op"


class TraceTargetError(RuntimeError):
    """A wrapper target no longer resolves, or an override escapes it."""


class Tracer:
    """Spans and work counts of one traced pass.

    ``spans`` rows are ``[layer, start, end, parent index, operation id]``;
    the root span of each operation has parent -1.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.operations = 0
        self._stack: List[int] = []

    @contextmanager
    def operation(self) -> Iterator[None]:
        """The root span of one operation; layers record only inside one."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self.operations += 1

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [layer, time.perf_counter(), 0.0, parent, self.operations]
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, function: Callable) -> Callable:
        work = WORK_COUNTS.get(layer)
        calls = f"{layer}.{CALLS_NAME.get(layer, 'calls')}"
        counts = self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an operation: set-up or checks
                return function(*args, **kwargs)
            span = self._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            counts[calls] += 1
            if work is not None:
                counts[f"{layer}.{work[0]}"] += work[1](result)
            return result

        return traced

    # ------------------------------------------------------------ analysis
    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child in children.get(index, ()):
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def unreconciled(self, self_times: List[float]) -> List[int]:
        """Spans whose own self time plus their descendants' self times is
        not their duration (children are appended after their parent, so
        one reverse sweep accumulates every subtree)."""
        subtree = list(self_times)
        for index in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[index][3]
            if parent >= 0:
                subtree[parent] += subtree[index]
        bad = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            if abs(subtree[index] - (end - start)) > 1e-6 + 1e-9 * (end - start):
                bad.append(index)
        return bad

    def layer_seconds(self, self_times: List[float]) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times):
            totals[span[0]] += own
        return totals


def _resolve(module_path: str, attribute: str):
    try:
        module = importlib.import_module(module_path)
    except ImportError as error:
        raise TraceTargetError(
            f"trace target {module_path}:{attribute}: {error}") from error
    owner, name = module, attribute
    if "." in attribute:
        class_name, name = attribute.split(".", 1)
        owner = getattr(module, class_name, None)
        if not isinstance(owner, type):
            raise TraceTargetError(
                f"trace target {module_path}:{attribute}: no class {class_name}")
        if name not in vars(owner):
            raise TraceTargetError(
                f"trace target {module_path}:{attribute}: {class_name} "
                f"does not define {name}")
        return owner, name, vars(owner)[name]
    if not callable(getattr(owner, name, None)):
        raise TraceTargetError(
            f"trace target {module_path}:{attribute} does not resolve "
            f"to a function")
    return owner, name, getattr(owner, name)


def _program_modules() -> List[object]:
    """Every module of the program, imported, so that no binding is missed
    because its module happened not to be loaded yet."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [module for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every ``TARGETS`` function with ``tracer``'s wrapper wherever
    the program binds it, then restore the originals."""
    patches: List[Tuple[object, str, object]] = []
    wrappers: Dict[int, Tuple[Callable, Callable]] = {}
    try:
        for layer, module_path, attribute in TARGETS:
            owner, name, original = _resolve(module_path, attribute)
            wrapper = tracer.wrap(layer, original)
            patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            if isinstance(owner, type):
                _check_not_overridden(owner, name)
            else:
                wrappers[id(original)] = (original, wrapper)
        rebound = [(module, attribute, wrappers[id(value)])
                   for module in _program_modules()
                   for attribute, value in vars(module).items()
                   if id(value) in wrappers
                   and wrappers[id(value)][0] is value]
        for module, attribute, (original, wrapper) in rebound:
            patches.append((module, attribute, original))
            setattr(module, attribute, wrapper)
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _check_not_overridden(owner: type, name: str) -> None:
    """A subclass that overrides a wrapped method would escape the wrapper."""
    escaped = [f"{sub.__module__}:{sub.__qualname__}.{name}"
               for sub in _subclasses(owner) if name in vars(sub)]
    if escaped:
        raise TraceTargetError(
            "overrides of a traced method missing from TARGETS: "
            + ", ".join(sorted(escaped)))


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
