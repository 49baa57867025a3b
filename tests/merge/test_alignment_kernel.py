"""The bit-parallel alignment kernel against its specifications.

``match_key`` must induce exactly the ``entries_match`` relation, and
``align`` must return exactly what the quadratic Needleman–Wunsch table over
``entries_match`` returns (match 2, gap 0, traceback diagonal, up, left).
The reference table is kept here, not in the library.
"""

import random

import pytest

from repro.ir import parse_module
from repro.merge.alignment import AlignedPair, align
from repro.merge.linearize import LabelEntry, linearize
from repro.merge.matching import entries_match, match_key
from repro.workloads.mibench_like import MIBENCH
from repro.workloads.spec_like import get_benchmark

from ..conftest import MOTIVATING_EXAMPLE

# Invokes whose unwind blocks have a landing pad of one type, of another
# type, or none at all, next to calls and plain labels.
INVOKES = """
declare i32 @ext(i32)

define i32 @g(i32 %x) {
entry:
  %a = invoke i32 @ext(i32 %x) to label %ok unwind label %pad32
ok:
  %b = invoke i32 @ext(i32 %a) to label %ok2 unwind label %pad64
ok2:
  %c = invoke i32 @ext(i32 %b) to label %done unwind label %nopad
done:
  %d = call i32 @ext(i32 %c)
  ret i32 %d
pad32:
  %lp = landingpad i32 cleanup
  ret i32 0
pad64:
  %lq = landingpad i64 cleanup
  ret i32 1
nopad:
  ret i32 2
}

define i32 @h(i32 %x) {
entry:
  %a = invoke i32 @ext(i32 %x) to label %ok unwind label %pad
ok:
  %b = invoke i32 @ext(i32 %a) to label %done unwind label %bare
done:
  ret i32 %b
pad:
  %lp = landingpad i32 cleanup
  ret i32 3
bare:
  ret i32 4
}
"""


def _workload_modules():
    yield "mibench-like", next(s for s in MIBENCH if s.name == "CRC32").build()
    yield "mibench-like", next(s for s in MIBENCH if s.name == "FFT").build()
    # 641.leela_s has invokes and landing pads.
    yield "spec-like", get_benchmark("641.leela_s").build()
    yield "invokes", parse_module(INVOKES)


def _entries(module, include_phis):
    return [entry for function in module.defined_functions()
            for entry in linearize(function, include_phis=include_phis)]


def reference_align(sequence_a, sequence_b):
    """Quadratic Needleman–Wunsch over ``entries_match``: (pairs, matches,
    dp_cells)."""
    rows, cols = len(sequence_a) + 1, len(sequence_b) + 1
    score = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            best = max(score[i - 1][j], score[i][j - 1])
            if entries_match(sequence_a[i - 1], sequence_b[j - 1]):
                best = max(best, score[i - 1][j - 1] + 2)
            score[i][j] = best
    pairs, matches = [], 0
    i, j = rows - 1, cols - 1
    while i > 0 or j > 0:
        if i > 0 and j > 0 and entries_match(sequence_a[i - 1], sequence_b[j - 1]) \
                and score[i][j] == score[i - 1][j - 1] + 2:
            pairs.append(AlignedPair(sequence_a[i - 1], sequence_b[j - 1]))
            matches += 1
            i, j = i - 1, j - 1
        elif i > 0 and score[i][j] == score[i - 1][j]:
            pairs.append(AlignedPair(sequence_a[i - 1], None))
            i -= 1
        else:
            pairs.append(AlignedPair(None, sequence_b[j - 1]))
            j -= 1
    pairs.reverse()
    return pairs, matches, rows * cols


def _assert_same_as_reference(sequence_a, sequence_b):
    result = align(sequence_a, sequence_b)
    pairs, matches, cells = reference_align(sequence_a, sequence_b)
    assert result.pairs == pairs
    assert result.matches == matches
    assert result.dp_cells == cells
    assert (result.length_first, result.length_second) == \
        (len(sequence_a), len(sequence_b))


class TestMatchKey:
    @pytest.mark.parametrize("include_phis", [False, True])
    def test_key_equality_is_entries_match_on_every_pair(self, include_phis):
        checked = set()
        for source, module in _workload_modules():
            entries = _entries(module, include_phis)
            keys = [match_key(entry) for entry in entries]
            for a, key_a in zip(entries, keys):
                for b, key_b in zip(entries, keys):
                    assert entries_match(a, b) == (key_a is not None and key_a == key_b), \
                        (source, a, b, key_a, key_b)
            checked.add(source)
        assert checked == {"mibench-like", "spec-like", "invokes"}

    def test_invokes_key_on_their_landing_pad_type(self):
        function = parse_module(INVOKES).get_function("g")
        keys = {inst.name: match_key(entry) for entry in linearize(function)
                if not isinstance(entry, LabelEntry)
                for inst in [entry.instruction] if inst.name}
        assert len({keys["a"], keys["b"], keys["c"]}) == 3  # i32 pad, i64 pad, none
        assert keys["lp"] is None and keys["lq"] is None
        labels = {entry.block.name: match_key(entry) for entry in linearize(function)
                  if isinstance(entry, LabelEntry)}
        assert labels["pad32"] is None and labels["pad64"] is None
        assert labels["entry"] == labels["nopad"] is not None

    def test_phis_have_no_class(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        phis = [entry for entry in linearize(module.get_function("f1"), include_phis=True)
                if not isinstance(entry, LabelEntry)
                and entry.instruction.opcode == "phi"]
        assert phis and all(match_key(entry) is None for entry in phis)


class TestAlignAgainstReference:
    def test_seeded_function_pairs(self):
        functions = []
        for _, module in _workload_modules():
            functions.extend(module.defined_functions())
        rng = random.Random(1986)
        compared = 0
        while compared < 200:
            first, second = rng.choice(functions), rng.choice(functions)
            include_phis = rng.random() < 0.5
            sequence_a = linearize(first, include_phis=include_phis)
            sequence_b = linearize(second, include_phis=include_phis)
            if len(sequence_a) * len(sequence_b) > 4000:
                continue
            _assert_same_as_reference(sequence_a, sequence_b)
            compared += 1

    def test_motivating_example(self):
        module = parse_module(MOTIVATING_EXAMPLE)
        for include_phis in (False, True):
            _assert_same_as_reference(
                linearize(module.get_function("f1"), include_phis=include_phis),
                linearize(module.get_function("f2"), include_phis=include_phis))

    def test_empty_and_one_sided(self):
        sequence = linearize(parse_module(MOTIVATING_EXAMPLE).get_function("f1"))
        _assert_same_as_reference([], [])
        _assert_same_as_reference(sequence, [])
        _assert_same_as_reference([], sequence)
        assert align(sequence, []).pairs == [AlignedPair(e, None) for e in sequence]
        assert align([], sequence).pairs == [AlignedPair(None, e) for e in sequence]

    def test_all_unmatchable(self):
        # Phis and landing-pad labels and pads match nothing, not even
        # themselves: every entry goes against a gap.
        function = parse_module(INVOKES).get_function("g")
        pads = [entry for entry in linearize(function, include_phis=True)
                if match_key(entry) is None]
        phis = [entry for entry in linearize(
            parse_module(MOTIVATING_EXAMPLE).get_function("f2"), include_phis=True)
            if match_key(entry) is None]
        assert len(pads) >= 4 and phis
        for sequence_a, sequence_b in [(pads, pads), (pads, phis), (phis, pads)]:
            _assert_same_as_reference(sequence_a, sequence_b)
            assert align(sequence_a, sequence_b).matches == 0
