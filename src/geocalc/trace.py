"""Construction traces: the auditable step log of a geometric run.

A trace is a line-oriented text, one step per line: `kind name=value ...`.
`STEP_KINDS` is the format: each of the five step kinds and its attribute
names, in the one order they are written.  Everything the engine does is
expressed with these steps, which keeps a construction checkable by
ruler and compasses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import InconsistentTrace

STEP_KINDS = {
    "construct-angle-from-cosine": ("vertex", "cos"),
    "drop-perpendicular": ("from", "onto", "foot", "length"),
    "bisect-angle": ("vertex", "cos-full", "cos-half"),
    "rotate-hypotenuse": ("pivot", "cos", "iteration"),
    "measure-length": ("segment", "value"),
}

# one format string and one line pattern per kind, both from the table
_FORMAT = {kind: kind + "".join([f" {name}={{}}" for name in names])
           for kind, names in STEP_KINDS.items()}
_PATTERN = {kind: re.compile(re.escape(kind) + "".join(
                [rf"\s+{re.escape(name)}=(\S+)" for name in names]))
            for kind, names in STEP_KINDS.items()}

# Joint letters in cascade order: the perpendicular from B lands on D,
# the next on E, and so on.
_FOOT_LETTERS = "DEFGHIJKLM"


def foot_label(i: int) -> str:
    """Label of the i-th perpendicular foot (1-based)."""
    if 1 <= i <= len(_FOOT_LETTERS):
        return _FOOT_LETTERS[i - 1]
    return f"T{i}"


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One step: its kind and one string per attribute of STEP_KINDS[kind].
    `line` is the step's 1-based line in a parsed trace text, 0 for a
    recorded step; equality and hashing ignore it."""

    kind: str
    values: tuple[str, ...]
    line: int = field(default=0, compare=False)

    def __post_init__(self):
        names = STEP_KINDS.get(self.kind)
        if names is None:
            raise self.refusal(f"unknown step kind: {self.kind!r}")
        if len(self.values) != len(names):
            raise self.refusal(
                f"{self.kind} takes " + " ".join([f"{n}=" for n in names]))

    def refusal(self, message: str) -> InconsistentTrace:
        """An InconsistentTrace refusing this step, naming its line if any."""
        return InconsistentTrace(
            f"line {self.line}: {message}" if self.line else message)

    def to_line(self) -> str:
        return _FORMAT[self.kind].format(*self.values)


@dataclass
class TraceRecorder:
    """Collects steps during a construction-backend run."""

    steps: list[TraceStep] = field(default_factory=list)

    def _add(self, kind: str, *values: str):
        self.steps.append(TraceStep(kind, values))

    def angle(self, cos_c: Decimal):
        self._add("construct-angle-from-cosine", "C", str(cos_c))

    def drop(self, frm: str, onto: str, foot: str, length: Decimal):
        self._add("drop-perpendicular", frm, onto, foot, str(length))

    def bisect(self, cos_full: Decimal, cos_half: Decimal):
        self._add("bisect-angle", "C", str(cos_full), str(cos_half))

    def rotate(self, pivot: str, cos_c: Decimal, iteration: int):
        self._add("rotate-hypotenuse", pivot, str(cos_c), str(iteration))

    def measure(self, segment: str, value: Decimal):
        self._add("measure-length", segment, str(value))

    def dumps(self) -> str:
        return "".join([f"{s.to_line()}\n" for s in self.steps])

    def write(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.dumps())


def numbered_lines(lines):
    """(1-based number, stripped line) of each line that is neither blank
    nor a # comment; the skipped lines are counted."""
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and line[0] != "#":
            yield number, line


def parse_trace(text: str) -> list[TraceStep]:
    """Steps of a trace text, each carrying its line.  Blank lines and #
    comments are skipped, but counted: an error names its 1-based line."""
    # labels and values go into SVG unescaped: refuse markup characters
    if any(ch in text for ch in '<>&"'):
        raise InconsistentTrace('trace holds one of the characters <>&"')
    steps = []
    for number, line in numbered_lines(text.splitlines()):
        kind = line.split(None, 1)[0]
        m = kind in _PATTERN and _PATTERN[kind].fullmatch(line)
        # a line off its kind's pattern is a step of no values
        steps.append(TraceStep(kind, m.groups() if m else (), number))
    return steps
