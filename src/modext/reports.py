"""Pass/fail reports with exact witnesses.

Every identity check in the toolkit reports either a clean pass or the
first failing instance: the basis indices involved and both evaluated
sides.  Checks marked informational are recorded but do not count
toward the overall verdict.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Record:
    """A mutable record: equal to a record of its own class whose fields
    are equal, and shown as Name(field=value, ...), for the _fields."""

    _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    __hash__ = None  # mutable: equal records may stop being equal

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))


class Check(NamedTuple):
    name: str
    passed: bool
    witness: Optional[tuple] = None  # (indices, lhs, rhs) for a failure
    note: str = ""
    informational: bool = False


class ConditionReport(Record):
    _fields = ("title", "checks")

    def __init__(self, title: str, checks: Optional[list] = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, name, passed, witness=None, note="", informational=False):
        self.checks.append(Check(name, passed, witness, note, informational))

    def first(self, name, failures, note="") -> "ConditionReport":
        """Record the check ``name`` from its lazy stream of failure
        witnesses: failed with the first one, which is all of the stream
        that is evaluated, or passed with ``note`` when there is none.
        Returns the report."""
        witness = next(iter(failures), None)
        self.add(name, witness is None, witness=witness, note=note if witness is None else "")
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def failures(self):
        return [c for c in self.checks if not c.passed and not c.informational]

    def __bool__(self):
        return self.passed

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            extra = " [info]" if c.informational else ""
            line = "%s: %s%s" % (c.name, tag, extra)
            if not c.passed and c.witness is not None:
                line += "  witness=%r" % (c.witness,)
            lines.append(line)
        return "\n".join(lines)


class HypothesisError(ValueError):
    """A construction's stated hypothesis failed; carries the report."""

    def __init__(self, hypothesis: str, report: Optional[ConditionReport] = None):
        self.hypothesis = hypothesis
        self.report = report
        msg = "hypothesis failed: %s" % hypothesis
        if report is not None and report.failures():
            msg += " (%s)" % report.failures()[0].name
        super().__init__(msg)


def require(report: ConditionReport, hypothesis: str) -> None:
    """Raise HypothesisError(hypothesis, report) unless the report passed."""
    if not report.passed:
        raise HypothesisError(hypothesis, report)
