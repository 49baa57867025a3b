"""Function fingerprints and candidate ranking.

Both FMSA and SalSSA decide *which* pairs of functions to attempt to merge
with a fingerprint-based ranking (paper §5.1): each function is summarised by
a small vector of opcode frequencies, candidate pairs are ranked by fingerprint
similarity, and the pass explores the top ``t`` candidates per function (the
*exploration threshold*).

The fingerprint is deliberately cheap — it must be computed for every function
in the module — and conservative: it never rejects a pair outright, it only
orders the search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    CmpInst,
    Instruction,
    PhiInst,
)
from ..ir.module import Module
from .counters import count_construction

#: The opcode buckets used by the fingerprint vector.  Related opcodes share a
#: bucket so that small rewrites (e.g. ``add`` vs ``sub``) still rank close.
_FINGERPRINT_BUCKETS: Tuple[str, ...] = (
    "int_arith", "float_arith", "bitwise", "shift", "cmp", "cast",
    "load", "store", "alloca", "gep", "call", "invoke", "landingpad",
    "phi", "select", "br", "switch", "ret", "other",
)

_BUCKET_BY_OPCODE: Dict[str, str] = {}
for op in ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem"):
    _BUCKET_BY_OPCODE[op] = "int_arith"
for op in ("fadd", "fsub", "fmul", "fdiv", "frem"):
    _BUCKET_BY_OPCODE[op] = "float_arith"
for op in ("and", "or", "xor"):
    _BUCKET_BY_OPCODE[op] = "bitwise"
for op in ("shl", "lshr", "ashr"):
    _BUCKET_BY_OPCODE[op] = "shift"
for op in ("icmp", "fcmp"):
    _BUCKET_BY_OPCODE[op] = "cmp"
for op in ("trunc", "zext", "sext", "fptrunc", "fpext", "fptosi", "fptoui",
           "sitofp", "uitofp", "ptrtoint", "inttoptr", "bitcast"):
    _BUCKET_BY_OPCODE[op] = "cast"
for op in ("load", "store", "alloca", "call", "invoke", "landingpad", "phi",
           "select", "br", "switch", "ret"):
    _BUCKET_BY_OPCODE[op] = op
_BUCKET_BY_OPCODE["getelementptr"] = "gep"


@dataclass(frozen=True)
class Fingerprint:
    """An opcode-frequency summary of a function."""

    counts: Tuple[int, ...]
    size: int

    @classmethod
    def of(cls, function: Function) -> "Fingerprint":
        count_construction("Fingerprint")
        counts = {bucket: 0 for bucket in _FINGERPRINT_BUCKETS}
        size = 0
        for inst in function.instructions():
            size += 1
            bucket = _BUCKET_BY_OPCODE.get(inst.opcode, "other")
            counts[bucket] += 1
        return cls(tuple(counts[bucket] for bucket in _FINGERPRINT_BUCKETS), size)

    def distance(self, other: "Fingerprint") -> int:
        """Manhattan distance between two fingerprints (lower = more similar)."""
        return sum(map(abs, map(sub, self.counts, other.counts)))

    def similarity(self, other: "Fingerprint") -> float:
        """A normalised similarity in [0, 1]; 1 means identical fingerprints."""
        total = self.size + other.size
        if total == 0:
            return 1.0
        return 1.0 - self.distance(other) / total


def opcode_sequence(function: Function) -> Tuple[str, ...]:
    """The function's bucketised opcode stream in block order.

    This is the raw material for order-sensitive signatures (e.g. the MinHash
    shingles used by ``repro.search``): two functions with permuted but
    otherwise identical instruction mixes share a fingerprint yet have
    different opcode sequences.
    """
    return tuple(_BUCKET_BY_OPCODE.get(inst.opcode, "other")
                 for inst in function.instructions())


def opcode_shingles(function: Function, k: int = 3) -> frozenset:
    """The set of ``k``-grams of the bucketised opcode sequence.

    Functions shorter than ``k`` contribute their whole sequence as a single
    shingle so every candidate function has a non-empty shingle set.
    """
    sequence = opcode_sequence(function)
    k = max(1, k)
    if len(sequence) <= k:
        return frozenset((sequence,)) if sequence else frozenset()
    return frozenset(sequence[i:i + k] for i in range(len(sequence) - k + 1))


@dataclass
class RankedCandidate:
    """One candidate merge partner for a function, with its ranking score."""

    function: Function
    distance: int
    similarity: float


def rank_candidates(fingerprint: Fingerprint,
                    candidates: "Iterable[Tuple[Function, Fingerprint]]",
                    threshold: int,
                    similarity_floor: float = 0.0) -> List[RankedCandidate]:
    """Top-``threshold`` of ``candidates`` by distance to ``fingerprint``.

    The shared ranking core of :class:`CandidateRanking` and every
    ``repro.search`` index: candidates are ordered by the seed's
    ``(distance, -size, name)`` key — ``nsmallest`` over that key reproduces
    the former full sort's ordering without sorting the whole population.
    """
    counts = fingerprint.counts
    scored = []
    for other, other_fingerprint in candidates:
        # Inlined Fingerprint.distance/.similarity: the method-call overhead
        # dominates this hot loop under CPython.  Keep in sync with them.
        distance = sum(map(abs, map(sub, counts, other_fingerprint.counts)))
        if similarity_floor > 0.0:
            total = fingerprint.size + other_fingerprint.size
            similarity = 1.0 if total == 0 else 1.0 - distance / total
            if similarity < similarity_floor:
                continue
        scored.append((distance, -other_fingerprint.size, other.name,
                       other, other_fingerprint))
    top = heapq.nsmallest(threshold, scored, key=lambda item: item[:3])
    return [RankedCandidate(other, distance,
                            fingerprint.similarity(other_fingerprint))
            for distance, _, _, other, other_fingerprint in top]


class CandidateRanking:
    """Ranks candidate merge partners for every function of a module.

    The ranking mirrors the FMSA strategy the paper reuses: functions are
    processed from largest to smallest (§5.5), and for each function the ``t``
    most similar remaining functions (by fingerprint distance) are attempted.
    """

    def __init__(self, module: Module, min_size: int = 2) -> None:
        self.module = module
        self.min_size = min_size
        self.fingerprints: Dict[Function, Fingerprint] = {}
        for function in module.defined_functions():
            if function.num_instructions() >= min_size:
                self.fingerprints[function] = Fingerprint.of(function)

    def functions_by_size(self) -> List[Function]:
        """Candidate functions ordered from largest to smallest."""
        return sorted(self.fingerprints, key=lambda f: -self.fingerprints[f].size)

    def candidates_for(self, function: Function, threshold: int,
                       exclude: Optional[set] = None) -> List[RankedCandidate]:
        """The top-``threshold`` most similar candidates for ``function``."""
        fingerprint = self.fingerprints.get(function)
        if fingerprint is None or threshold <= 0:
            return []
        exclude = exclude or set()
        return rank_candidates(
            fingerprint,
            ((other, other_fingerprint)
             for other, other_fingerprint in self.fingerprints.items()
             if other is not function and other not in exclude),
            threshold)

    def remove(self, function: Function) -> None:
        """Forget a function (e.g. once it has been merged away)."""
        self.fingerprints.pop(function, None)

    def update(self, function: Function) -> None:
        """Recompute the fingerprint of a (new or rewritten) function."""
        if function.num_instructions() >= self.min_size:
            self.fingerprints[function] = Fingerprint.of(function)
        else:
            self.fingerprints.pop(function, None)
