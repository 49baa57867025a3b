"""``Function.unique_name`` keeps a name index; it must answer as a rescan would.

The reference here is the rescan ``unique_name`` used to do on every call:
collect the names of every block, argument and instruction, then count up
from the function's value counter to the first free candidate.
"""

import random

import pytest

from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline
from repro.ir import parse_module
from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import BinaryInst

PREFIXES = ("v", "bb", "t")


def rescan_unique_name(function, prefix):
    existing = {block.name for block in function.blocks}
    existing.update(arg.name for arg in function.args)
    for inst in function.instructions():
        if inst.name:
            existing.add(inst.name)
    counter = function._next_value_id
    while f"{prefix}{counter}" in existing:
        counter += 1
    return f"{prefix}{counter}"


def _function():
    return parse_module("""
    define i32 @f(i32 %v0, i32 %v1) {
    entry:
      %v2 = add i32 %v0, %v1
      br label %bb3
    bb3:
      %t4 = add i32 %v2, %v2
      ret i32 %t4
    }
    """).get_function("f")


class _Mutator:
    """Seeded random edits, with names drawn close to the value counter so
    the candidates ``unique_name`` tries next keep colliding with them."""

    def __init__(self, function, seed):
        self.function = function
        self.rng = random.Random(seed)
        self.detached = []  # blocks removed from the function, contents kept

    def name(self):
        if self.rng.random() < 0.2:
            return ""
        counter = self.function._next_value_id
        return f"{self.rng.choice(PREFIXES)}{counter + self.rng.randrange(4)}"

    def instruction(self):
        arg = self.function.args[0]
        return BinaryInst("add", arg, arg, self.name())

    def block(self):
        return self.rng.choice(self.function.blocks)

    def step(self):
        rng, function = self.rng, self.function
        kind = rng.choice(["insert", "erase", "rename", "rename_block", "move",
                           "move_block", "add_block", "remove_block",
                           "erase_block", "readd_block"])
        if kind == "insert":
            block = self.block()
            block.insert(rng.randrange(len(block.instructions) + 1), self.instruction())
        elif kind == "erase":
            block = self.block()
            if block.instructions:
                rng.choice(block.instructions).erase_from_parent()
        elif kind == "rename":
            block = self.block()
            if block.instructions:
                rng.choice(block.instructions).name = self.name()
        elif kind == "rename_block":
            self.block().name = self.name()
        elif kind == "move":
            source, target = self.block(), self.block()
            if source.instructions:
                inst = rng.choice(source.instructions)
                source.remove_instruction(inst)
                target.append(inst)
        elif kind == "move_block" and len(function.blocks) > 1:
            block, after = rng.sample(function.blocks, 2)
            function.move_block_after(block, after)
        elif kind == "add_block":
            block = BasicBlock(self.name())
            for _ in range(rng.randrange(3)):
                block.append(self.instruction())
            function.add_block(block, before=self.block() if rng.random() < 0.5 else None)
        elif kind == "remove_block" and len(function.blocks) > 1:
            block = self.block()
            function.remove_block(block)
            self.detached.append(block)
        elif kind == "erase_block" and len(function.blocks) > 1:
            self.block().erase_from_parent()
        elif kind == "readd_block" and self.detached:
            block = self.detached.pop(rng.randrange(len(self.detached)))
            block.append(self.instruction())  # edited while detached
            block.name = self.name() or block.name
            function.add_block(block)


class TestNameIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_edits_answer_as_a_rescan(self, seed):
        function = _function()
        mutator = _Mutator(function, seed)
        function.unique_name()  # build the index before the edits
        for _ in range(250):
            mutator.step()
            prefix = mutator.rng.choice(PREFIXES)
            expected = rescan_unique_name(function, prefix)
            assert function.unique_name(prefix) == expected
        assert function._name_counts == function._count_names()

    def test_index_built_after_edits(self):
        function = _function()
        mutator = _Mutator(function, 99)
        for _ in range(50):
            mutator.step()
        expected = rescan_unique_name(function, "v")
        assert function.unique_name("v") == expected

    def test_duplicate_names_are_counted(self):
        # Two values may share a name; removing one must keep it taken.
        function = _function()
        block = function.entry_block
        first, second = BinaryInst("add", function.args[0], function.args[0], "dup"), \
            BinaryInst("add", function.args[0], function.args[0], "dup")
        function.unique_name()
        block.insert(0, first)
        block.insert(0, second)
        first.erase_from_parent()
        assert "dup" in function._name_counts
        second.name = "other"
        assert "dup" not in function._name_counts

    @pytest.mark.parametrize("technique", ["salssa", "fmsa"])
    def test_index_matches_rescan_after_pipeline(self, technique):
        module = search_workload(24, seed=5)
        run_pipeline(module, "name-index", technique)
        indexed = [f for f in module.defined_functions() if f._name_counts is not None]
        assert indexed
        for function in indexed:
            assert function._name_counts == function._count_names(), function.name
