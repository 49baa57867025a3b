"""Needleman–Wunsch sequence alignment over linearised functions.

This is the alignment stage shared by FMSA and SalSSA (paper §2): a global
alignment of the two entry sequences that maximises the number of matched
pairs, where a pair may only match if :func:`repro.merge.matching.entries_match`
allows it (binary scoring, no substitutions).

With a match score of 2 and no gap penalty, the Needleman–Wunsch score of
``a[:i]`` against ``b[:j]`` is exactly twice the length of their longest
common subsequence under the match relation.  The kernel therefore computes
the DP rows as bit-parallel LCS rows (Allison & Dix 1986; Hyyrö 2004): each
entry is reduced to its :func:`~repro.merge.matching.match_key` class, each
class gets one bitmask of its positions in ``b``, and row ``i`` is one
``len(b)``-bit Python int ``V_i`` whose zero bits mark the columns where the
LCS grows.  A row costs a handful of big-int operations instead of ``len(b)``
predicate calls, and stores in ``len(b)`` bits what the table stored in
``len(b)`` objects.

The traceback is the one the quadratic table would take — diagonal first,
then up, then left — reading ``score(i, j) = 2·(j − popcount(V_i mod 2^j))``.
``dp_cells`` still reports the ``(n+1)·(m+1)`` logical cells of the table, so
the memory experiments (paper §5.5, Figure 22) attribute memory to sequence
length as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .linearize import Entry
from .matching import match_key


@dataclass(frozen=True)
class AlignedPair:
    """One column of the alignment: an entry of each function or a gap (None)."""

    first: Optional[Entry]
    second: Optional[Entry]

    @property
    def is_match(self) -> bool:
        return self.first is not None and self.second is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"({self.first!r} | {self.second!r})"


@dataclass
class AlignmentResult:
    """The alignment plus the statistics the evaluation harness reports."""

    pairs: List[AlignedPair]
    matches: int
    length_first: int
    length_second: int
    dp_cells: int

    @property
    def match_ratio(self) -> float:
        total = max(1, self.length_first + self.length_second)
        return 2.0 * self.matches / total

    def matched_pairs(self) -> List[AlignedPair]:
        return [p for p in self.pairs if p.is_match]


def align(sequence_a: Sequence[Entry], sequence_b: Sequence[Entry]) -> AlignmentResult:
    """Globally align two entry sequences with Needleman–Wunsch.

    Only matching entries may be paired; every other entry is emitted against
    a gap.  Scoring is the binary scoring of the original FMSA formulation
    (match 2, gap 0), computed bit-parallel as described in the module
    docstring.
    """
    n, m = len(sequence_a), len(sequence_b)

    # Intern match classes to ints; an unmatchable entry gets a class of its
    # own side (-1 in a, -2 in b), so class equality is exactly a match.
    classes: Dict[object, int] = {}
    class_a = [-1 if key is None else classes.setdefault(key, len(classes))
               for key in map(match_key, sequence_a)]
    class_b = [-2 if key is None else classes.setdefault(key, len(classes))
               for key in map(match_key, sequence_b)]

    masks = [0] * len(classes)
    for j, cls in enumerate(class_b):
        if cls >= 0:
            masks[cls] |= 1 << j

    full = (1 << m) - 1
    rows = [full]
    v = full
    for cls in class_a:
        if cls >= 0:
            u = v & masks[cls]
            v = ((v + u) | (v - u)) & full
        rows.append(v)

    def lcs(i: int, j: int) -> int:
        return j - (rows[i] & ((1 << j) - 1)).bit_count()

    pairs: List[AlignedPair] = []
    matches = 0
    i, j = n, m
    current = lcs(i, j)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and class_a[i - 1] == class_b[j - 1] \
                and lcs(i - 1, j - 1) == current - 1:
            pairs.append(AlignedPair(sequence_a[i - 1], sequence_b[j - 1]))
            matches += 1
            i -= 1
            j -= 1
            current -= 1
        elif i > 0 and lcs(i - 1, j) == current:
            pairs.append(AlignedPair(sequence_a[i - 1], None))
            i -= 1
        else:
            pairs.append(AlignedPair(None, sequence_b[j - 1]))
            j -= 1
            current = lcs(i, j)
    pairs.reverse()

    return AlignmentResult(pairs, matches, n, m, (n + 1) * (m + 1))
