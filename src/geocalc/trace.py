"""Construction traces: the auditable step log of a geometric run.

A trace is a line-oriented text: one step per line, `kind key=value ...`.
Only five step kinds exist; everything the engine does must be expressed
with them, which is what keeps a construction checkable by ruler and
compasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from .errors import InconsistentTrace

STEP_KINDS = (
    "construct-angle-from-cosine",
    "drop-perpendicular",
    "bisect-angle",
    "rotate-hypotenuse",
    "measure-length",
)

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
    kind: str
    attrs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise InconsistentTrace(f"unknown step kind: {self.kind!r}")

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def to_line(self) -> str:
        return self.kind + "".join([f" {k}={v}" for k, v in self.attrs])


@dataclass
class TraceRecorder:
    """Collects steps during a construction-backend run."""

    steps: list[TraceStep] = field(default_factory=list)

    def _add(self, kind: str, *attrs: tuple[str, str]):
        self.steps.append(TraceStep(kind, attrs))

    def angle(self, cos_c: Decimal):
        self._add("construct-angle-from-cosine",
                  ("vertex", "C"), ("cos", str(cos_c)))

    def drop(self, frm: str, onto: str, foot: str, length: Decimal):
        self._add("drop-perpendicular",
                  ("from", frm), ("onto", onto), ("foot", foot),
                  ("length", str(length)))

    def bisect(self, cos_full: Decimal, cos_half: Decimal):
        self._add("bisect-angle",
                  ("vertex", "C"), ("cos-full", str(cos_full)),
                  ("cos-half", str(cos_half)))

    def rotate(self, pivot: str, cos_c: Decimal, iteration: int):
        self._add("rotate-hypotenuse",
                  ("pivot", pivot), ("cos", str(cos_c)),
                  ("iteration", str(iteration)))

    def measure(self, segment: str, value: Decimal):
        self._add("measure-length", ("segment", segment), ("value", str(value)))

    def dumps(self) -> str:
        return "".join([f"{s.to_line()}\n" for s in self.steps])

    def write(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.dumps())


def parse_trace(text: str) -> list[TraceStep]:
    # labels and values go into SVG unescaped: refuse markup characters
    if any(ch in text for ch in '<>&"'):
        raise InconsistentTrace('trace holds one of the characters <>&"')
    steps = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        attrs = []
        for f in fields[1:]:
            k, eq, v = f.partition("=")
            if not eq:
                raise InconsistentTrace(f"malformed attribute {f!r}")
            attrs.append((k, v))
        steps.append(TraceStep(fields[0], tuple(attrs)))
    return steps
