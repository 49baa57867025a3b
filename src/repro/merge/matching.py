"""Matching criteria for sequence alignment.

Two entries can be paired by the alignment only if merging them into a single
instruction is well defined: same opcode, same result type and structurally
compatible operands (same count and types).  Mismatching operand *values* are
allowed — that is exactly what operand selection on the function identifier is
for — but mismatching operand *types* are not.

Labels match labels (any pair), except labels of landing-pad blocks which are
kept exclusive so the Itanium landing-pad model is preserved by construction.
Phi-nodes and landing pads never match (paper §4.1.1 and §4.2.2).
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..ir.basic_block import BasicBlock
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    GEPInst,
    Instruction,
    InvokeInst,
    LandingPadInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .linearize import Entry, InstructionEntry, LabelEntry


def is_landing_block(block: BasicBlock) -> bool:
    """True if the block starts (modulo phis) with a landing-pad instruction."""
    index = block.first_non_phi_index()
    if index >= len(block.instructions):
        return False
    return isinstance(block.instructions[index], LandingPadInst)


def labels_match(block_a: BasicBlock, block_b: BasicBlock) -> bool:
    """Whether two block labels may be aligned with each other."""
    return not is_landing_block(block_a) and not is_landing_block(block_b)


def instructions_match(inst_a: Instruction, inst_b: Instruction) -> bool:
    """Whether two instructions may be merged into one (paper's mergeable pairs)."""
    if type(inst_a) is not type(inst_b):
        return False
    if isinstance(inst_a, (PhiInst, LandingPadInst)):
        return False
    if inst_a.type != inst_b.type:
        return False

    if isinstance(inst_a, BinaryInst):
        return inst_a.opcode == inst_b.opcode and inst_a.lhs.type == inst_b.lhs.type

    if isinstance(inst_a, CmpInst):
        return (inst_a.predicate == inst_b.predicate
                and inst_a.lhs.type == inst_b.lhs.type)

    if isinstance(inst_a, CastInst):
        return inst_a.opcode == inst_b.opcode and inst_a.value.type == inst_b.value.type

    if isinstance(inst_a, SelectInst):
        return inst_a.if_true.type == inst_b.if_true.type

    if isinstance(inst_a, AllocaInst):
        return inst_a.allocated_type == inst_b.allocated_type

    if isinstance(inst_a, LoadInst):
        return inst_a.pointer.type == inst_b.pointer.type

    if isinstance(inst_a, StoreInst):
        return (inst_a.value.type == inst_b.value.type
                and inst_a.pointer.type == inst_b.pointer.type)

    if isinstance(inst_a, GEPInst):
        return (inst_a.pointer.type == inst_b.pointer.type
                and len(inst_a.indices) == len(inst_b.indices)
                and all(x.type == y.type for x, y in zip(inst_a.indices, inst_b.indices)))

    if isinstance(inst_a, InvokeInst):
        return (len(inst_a.args) == len(inst_b.args)
                and all(x.type == y.type for x, y in zip(inst_a.args, inst_b.args))
                and _landingpad_types_compatible(inst_a, inst_b))

    if isinstance(inst_a, CallInst):
        return (len(inst_a.args) == len(inst_b.args)
                and all(x.type == y.type for x, y in zip(inst_a.args, inst_b.args)))

    if isinstance(inst_a, BranchInst):
        if inst_a.is_conditional != inst_b.is_conditional:
            return False
        return True

    if isinstance(inst_a, SwitchInst):
        return (inst_a.condition.type == inst_b.condition.type
                and len(inst_a.cases()) == len(inst_b.cases()))

    if isinstance(inst_a, ReturnInst):
        if (inst_a.value is None) != (inst_b.value is None):
            return False
        return inst_a.value is None or inst_a.value.type == inst_b.value.type

    if isinstance(inst_a, UnreachableInst):
        return True

    return False


def _landingpad_types_compatible(invoke_a: InvokeInst, invoke_b: InvokeInst) -> bool:
    """Matched invokes must have landing pads of the same type so a single
    intermediate landing pad can serve both (paper §4.2.2)."""
    pad_a = _landingpad_of(invoke_a)
    pad_b = _landingpad_of(invoke_b)
    if pad_a is None or pad_b is None:
        return pad_a is pad_b
    return pad_a.type == pad_b.type


def _landingpad_of(invoke: InvokeInst) -> Optional[LandingPadInst]:
    unwind = invoke.unwind_dest
    if not isinstance(unwind, BasicBlock):
        return None
    index = unwind.first_non_phi_index()
    if index < len(unwind.instructions) and isinstance(unwind.instructions[index],
                                                       LandingPadInst):
        return unwind.instructions[index]
    return None


def entries_match(entry_a: Entry, entry_b: Entry) -> bool:
    """Alignment match predicate over linearised entries."""
    if isinstance(entry_a, LabelEntry) and isinstance(entry_b, LabelEntry):
        return labels_match(entry_a.block, entry_b.block)
    if isinstance(entry_a, InstructionEntry) and isinstance(entry_b, InstructionEntry):
        return instructions_match(entry_a.instruction, entry_b.instruction)
    return False


#: The match class of every label that may be aligned.
_LABEL_KEY = ("label",)
#: The landing-pad part of the key of an invoke whose unwind block has none.
_NO_PAD = ("no pad",)
#: The value part of the key of a ``ret void``.
_NO_VALUE = ("no value",)


def match_key(entry: Entry) -> Optional[Hashable]:
    """The match class of ``entry``, or None if it matches nothing.

    ``entries_match(a, b)`` holds exactly when ``match_key(a) ==
    match_key(b)`` and neither is None, so the alignment can compare
    interned classes instead of calling the predicate per DP cell.  Each
    branch keys on the fields its :func:`instructions_match` branch compares.
    """
    if isinstance(entry, LabelEntry):
        return None if is_landing_block(entry.block) else _LABEL_KEY
    if not isinstance(entry, InstructionEntry):
        return None
    inst = entry.instruction
    if isinstance(inst, (PhiInst, LandingPadInst)):
        return None
    head = (type(inst), inst.type)
    if isinstance(inst, BinaryInst):
        return head + (inst.opcode, inst.lhs.type)
    if isinstance(inst, CmpInst):
        return head + (inst.predicate, inst.lhs.type)
    if isinstance(inst, CastInst):
        return head + (inst.opcode, inst.value.type)
    if isinstance(inst, SelectInst):
        return head + (inst.if_true.type,)
    if isinstance(inst, AllocaInst):
        return head + (inst.allocated_type,)
    if isinstance(inst, LoadInst):
        return head + (inst.pointer.type,)
    if isinstance(inst, StoreInst):
        return head + (inst.value.type, inst.pointer.type)
    if isinstance(inst, GEPInst):
        return head + (inst.pointer.type, tuple(x.type for x in inst.indices))
    if isinstance(inst, InvokeInst):
        pad = _landingpad_of(inst)
        return head + (tuple(x.type for x in inst.args),
                       _NO_PAD if pad is None else pad.type)
    if isinstance(inst, CallInst):
        return head + (tuple(x.type for x in inst.args),)
    if isinstance(inst, BranchInst):
        return head + (inst.is_conditional,)
    if isinstance(inst, SwitchInst):
        return head + (inst.condition.type, len(inst.cases()))
    if isinstance(inst, ReturnInst):
        return head + (_NO_VALUE if inst.value is None else inst.value.type,)
    if isinstance(inst, UnreachableInst):
        return head
    return None
