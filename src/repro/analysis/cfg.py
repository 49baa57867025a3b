"""Control-flow graph utilities.

These helpers provide the traversal orders and reachability queries used by
the dominator analysis, the transforms and the merging code generators.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from .counters import count_construction


def successors(block: BasicBlock) -> List[BasicBlock]:
    """The successor blocks of ``block`` (duplicates removed, order kept)."""
    return list(dict.fromkeys(block.successors()))


def predecessors(block: BasicBlock) -> List[BasicBlock]:
    """The predecessor blocks of ``block``."""
    return block.predecessors()


def predecessor_map(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map every block of ``function`` to its predecessors in one pass."""
    count_construction("predecessor_map")
    preds: Dict[BasicBlock, List[BasicBlock]] = {block: [] for block in function.blocks}
    for block in function.blocks:
        for successor in successors(block):
            if successor in preds and block not in preds[successor]:
                preds[successor].append(block)
    return preds


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    count_construction("reachable_blocks")
    entry = function.entry_block
    if entry is None:
        return set()
    seen: Set[BasicBlock] = set()
    worklist = [entry]
    while worklist:
        block = worklist.pop()
        if block in seen:
            continue
        seen.add(block)
        worklist.extend(successors(block))
    return seen


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse post-order (a topological-ish order good for dataflow)."""
    entry = function.entry_block
    if entry is None:
        return []
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on large generated functions.
    stack: List[tuple] = [(entry, iter(successors(entry)))]
    visited.add(entry)
    while stack:
        block, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(successors(child))))
                advanced = True
                break
        if not advanced:
            postorder.append(block)
            stack.pop()
    postorder.reverse()
    return postorder


def postorder(function: Function) -> List[BasicBlock]:
    """Blocks in post-order."""
    order = reverse_postorder(function)
    order.reverse()
    return order


def edges(function: Function) -> List[tuple]:
    """All CFG edges as ``(source, destination)`` pairs."""
    result = []
    for block in function.blocks:
        for successor in successors(block):
            result.append((block, successor))
    return result


def is_critical_edge(source: BasicBlock, destination: BasicBlock) -> bool:
    """True if the edge has multiple successors at the source and multiple
    predecessors at the destination (relevant when placing copies/stores)."""
    return len(successors(source)) > 1 and len(predecessors(destination)) > 1
