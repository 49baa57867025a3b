"""Output checks.  The reference always comes from the reference interpreter
run on the *unmerged* module, never from the merge pass under test."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.function import Function
from repro.ir.interpreter import InterpreterError, run_function
from repro.ir.module import Module
from repro.ir.verifier import verify_module

#: Every generated function takes 1-3 ``i32`` arguments; each is called with
#: the matching prefix of every tuple.
ARGUMENT_TUPLES = ((0, 0, 0), (1, 2, 3), (7, -3, 100), (-11, 5, 64))
MAX_STEPS = 200_000

Observations = Dict[str, Tuple]


def _observe_function(module: Module, function: Function) -> Tuple:
    arity = len(function.args)
    results = []
    for arguments in ARGUMENT_TUPLES:
        try:
            results.append(run_function(module, function, arguments[:arity],
                                        max_steps=MAX_STEPS).observable())
        except InterpreterError as error:
            results.append(("interpreter-error", type(error).__name__))
    return tuple(results)


def observe(module: Module) -> Observations:
    """Interpreter-observable behaviour of every defined function."""
    return {function.name: _observe_function(module, function)
            for function in module.defined_functions()}


def semantic_mismatches(module: Module, reference: Observations) -> List[str]:
    """Reference functions that ``module`` lost or whose behaviour changed."""
    mismatched = []
    for name, expected in reference.items():
        function = module.get_function(name)
        if function is None or function.is_declaration() \
                or _observe_function(module, function) != expected:
            mismatched.append(name)
    return mismatched


def verify_errors(module: Module) -> List[str]:
    return verify_module(module, raise_on_error=False)
