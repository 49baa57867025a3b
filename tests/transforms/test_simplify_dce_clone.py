"""Tests for CFG simplification, dead code elimination and function cloning."""

from repro.ir import parse_module, verify_function
from repro.ir.printer import print_function
from repro.ir.instructions import BranchInst, PhiInst, SelectInst
from repro.transforms.clone import clone_function
from repro.transforms.dce import eliminate_dead_code, is_trivially_dead
from repro.transforms.simplify import SimplifyStats, _simplify_phis, simplify_function

from ..conftest import MOTIVATING_EXAMPLE, observe_many


class TestSimplify:
    def test_constant_conditional_branch_folds(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          br i1 true, label %a, label %b
        a:
          ret i32 1
        b:
          ret i32 2
        }
        """)
        function = module.get_function("f")
        stats = simplify_function(function)
        assert stats.folded_branches >= 1
        assert stats.removed_blocks >= 1
        assert len(function.blocks) == 1
        assert observe_many(module, "f", [(0,)], externals={}) == \
            [(1, (), False)]

    def test_identical_targets_fold(self):
        module = parse_module("""
        define i32 @f(i1 %c) {
        entry:
          br i1 %c, label %next, label %next
        next:
          ret i32 5
        }
        """)
        function = module.get_function("f")
        simplify_function(function)
        assert len(function.blocks) == 1

    def test_straightline_blocks_merge(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          %a = add i32 %x, 1
          br label %second
        second:
          %b = mul i32 %a, 2
          br label %third
        third:
          ret i32 %b
        }
        """)
        function = module.get_function("f")
        stats = simplify_function(function)
        assert len(function.blocks) == 1
        assert stats.merged_blocks >= 2
        verify_function(function)

    def test_forwarding_block_removed(self):
        module = parse_module("""
        define i32 @f(i1 %c) {
        entry:
          br i1 %c, label %fwd, label %other
        fwd:
          br label %join
        other:
          br label %join
        join:
          %p = phi i32 [ 1, %fwd ], [ 2, %other ]
          ret i32 %p
        }
        """)
        function = module.get_function("f")
        simplify_function(function)
        verify_function(function)
        assert function.block_by_name("fwd") is None
        # Semantics preserved: the phi now has an incoming from entry.
        assert observe_many(module, "f", [(1,), (0,)], externals={}) == \
            [(1, (), False), (2, (), False)]

    def test_trivial_and_duplicate_phis_removed(self):
        module = parse_module("""
        define i32 @f(i1 %c, i32 %x) {
        entry:
          br i1 %c, label %a, label %b
        a:
          br label %join
        b:
          br label %join
        join:
          %same = phi i32 [ %x, %a ], [ %x, %b ]
          %dup1 = phi i32 [ 1, %a ], [ 2, %b ]
          %dup2 = phi i32 [ 1, %a ], [ 2, %b ]
          %sum = add i32 %dup1, %dup2
          %total = add i32 %sum, %same
          ret i32 %total
        }
        """)
        function = module.get_function("f")
        stats = simplify_function(function)
        assert stats.removed_phis >= 2
        remaining = [i for i in function.instructions() if isinstance(i, PhiInst)]
        assert len(remaining) == 1

    def test_duplicate_phis_fold_into_first_of_their_class(self):
        # Three phis of one class (the third lists its incomings in the other
        # order) plus a phi that reads the second through the back edge: the
        # first absorbs the other two, and the reader is rewired to it.
        module = parse_module("""
        define i32 @f(i32 %x, i32 %n) {
        entry:
          br label %loop
        loop:
          %p1 = phi i32 [ %x, %entry ], [ %i, %loop ]
          %p2 = phi i32 [ %x, %entry ], [ %i, %loop ]
          %q = phi i32 [ 0, %entry ], [ %p2, %loop ]
          %p3 = phi i32 [ %i, %loop ], [ %x, %entry ]
          %s = add i32 %p1, %p2
          %t = add i32 %s, %p3
          %i = add i32 %t, %q
          %c = icmp slt i32 %i, %n
          br i1 %c, label %loop, label %exit
        exit:
          ret i32 %i
        }
        """)
        function = module.get_function("f")
        stats = SimplifyStats()
        assert _simplify_phis(function, stats)
        assert stats.removed_phis == 2
        assert print_function(function) == "\n".join([
            "define i32 @f(i32 %x, i32 %n) {",
            "entry:",
            "  br label %loop",
            "loop:",
            "  %p1 = phi i32 [ %x, %entry ], [ %i, %loop ]",
            "  %q = phi i32 [ 0, %entry ], [ %p1, %loop ]",
            "  %s = add i32 %p1, %p1",
            "  %t = add i32 %s, %p1",
            "  %i = add i32 %t, %q",
            "  %c = icmp slt i32 %i, %n",
            "  br i1 %c, label %loop, label %exit",
            "exit:",
            "  ret i32 %i",
            "}",
        ])
        verify_function(function)

    def test_select_folding(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          %a = select i1 true, i32 %x, i32 0
          %b = select i1 false, i32 0, i32 %a
          %same = select i1 true, i32 %b, i32 %b
          ret i32 %same
        }
        """)
        function = module.get_function("f")
        stats = simplify_function(function)
        assert stats.folded_selects >= 3
        assert not any(isinstance(i, SelectInst) for i in function.instructions())

    def test_unreachable_block_removal_updates_phis(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          br label %join
        dead:
          br label %join
        join:
          %p = phi i32 [ %x, %entry ], [ 99, %dead ]
          ret i32 %p
        }
        """)
        function = module.get_function("f")
        simplify_function(function)
        verify_function(function)
        assert function.block_by_name("dead") is None

    def test_motivating_example_untouched_semantics(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        args = [(i,) for i in range(0, 4)]
        before = observe_many(module, "f2", args)
        simplify_function(module.get_function("f2"))
        assert observe_many(module, "f2", args) == before


class TestDCE:
    def test_dead_chain_removed(self):
        module = parse_module("""
        declare i32 @ext(i32)
        define i32 @f(i32 %x) {
        entry:
          %dead1 = add i32 %x, 1
          %dead2 = mul i32 %dead1, 2
          %live = call i32 @ext(i32 %x)
          ret i32 %live
        }
        """)
        function = module.get_function("f")
        removed = eliminate_dead_code(function)
        assert removed == 2
        assert function.num_instructions() == 2

    def test_side_effects_preserved(self):
        module = parse_module("""
        declare i32 @ext(i32)
        define i32 @f(i32 %x) {
        entry:
          %unused = call i32 @ext(i32 %x)
          ret i32 %x
        }
        """)
        function = module.get_function("f")
        assert eliminate_dead_code(function) == 0
        assert function.num_instructions() == 2

    def test_store_only_alloca_removed(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          %slot = alloca i32
          store i32 %x, i32* %slot
          ret i32 %x
        }
        """)
        function = module.get_function("f")
        assert eliminate_dead_code(function) >= 2
        assert function.num_instructions() == 1

    def test_is_trivially_dead_predicate(self):
        module = parse_module("""
        define i32 @f(i32 %x) {
        entry:
          %used = add i32 %x, 1
          %unused = add i32 %x, 2
          ret i32 %used
        }
        """)
        function = module.get_function("f")
        used = function.value_by_name("used")
        unused = function.value_by_name("unused")
        assert not is_trivially_dead(used)
        assert is_trivially_dead(unused)
        assert not is_trivially_dead(function.entry_block.terminator)


class TestClone:
    def test_clone_is_structurally_identical_and_independent(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        original = module.get_function("f2")
        clone, value_map = clone_function(original, "f2_copy", module)
        assert clone.num_instructions() == original.num_instructions()
        assert len(clone.blocks) == len(original.blocks)
        assert module.get_function("f2_copy") is clone
        verify_function(clone)
        # The clone references its own blocks/values, not the original's.
        for inst in clone.instructions():
            for operand in inst.operand_values():
                assert operand not in value_map or operand is value_map.get(operand, operand) \
                    or operand not in set(value_map.keys())
        # Behaviour matches.
        args = [(i,) for i in range(0, 4)]
        assert observe_many(module, "f2", args) == observe_many(module, "f2_copy", args)

    def test_mutating_clone_leaves_original_alone(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        original = module.get_function("f1")
        before = original.num_instructions()
        clone, _ = clone_function(original, "f1_copy", module)
        clone.entry_block.instructions[0].erase_from_parent()
        assert original.num_instructions() == before
