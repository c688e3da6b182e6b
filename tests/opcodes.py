"""Deterministic cost: bytecode and call counts per code object.

Timings move with host load; the number of bytecode instructions a
piece of Python code executes does not, so tier-1 tests can gate cost
on it.  Counts differ between interpreter versions, so gates compare
ratios of counts taken on the same interpreter, never absolute counts.
The counts miss work done in C (sorts, dict and set operations).

Call counts say which code ran, not what it cost: two runs that take
the same path call every function equally often, on any interpreter.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from types import CodeType
from typing import Iterator


@contextlib.contextmanager
def counting_opcodes() -> Iterator[Counter[CodeType]]:
    """Count the opcodes each code object executes inside the block.

    Frames entered inside the block are traced with
    ``f_trace_opcodes``; the tracer in place before the block (a
    debugger's or a coverage tool's, or none) is restored after it.
    """
    counts: Counter[CodeType] = Counter()

    def count(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return count

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return count

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        yield counts
    finally:
        sys.settrace(previous)


# CPython 3.12.1 reports no opcode in the first block a process traces
# this way; later blocks count in full.  An empty first block takes the
# miss, so every caller's block counts.
with counting_opcodes():
    pass


@contextlib.contextmanager
def counting_calls() -> Iterator[Counter[CodeType]]:
    """Count the calls of each Python code object inside the block.

    A generator counts once per resume.  The profile function in place
    before the block is restored after it.
    """
    counts: Counter[CodeType] = Counter()

    def count(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def opcodes_in(counts: Counter[CodeType], fragment: str) -> int:
    """Opcodes counted in code whose file path contains *fragment*."""
    return sum(
        n for code, n in counts.items() if fragment in code.co_filename
    )
