"""How the benchmark judges one call.

A call *fails* when it raises, returns a flagged result, returns an interval
that misses the reference, or is an unflagged inversion whose z lies more
than its tolerance from the reference root.  A failure is also *wrong* when
the program claimed something false: an interval (flagged or not) that
misses the reference, an unflagged inversion outside its tolerance, or an
exception that is not one of the program's declared NumericsError types.
Honest failures keep ``correct`` true; a wrong result makes it false.

References arrive as decimal strings and every comparison is made in exact
rational arithmetic, so no float rounding sits in the judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool
    reason: str = ""


OK = Verdict(False, False)


def _raised(exc: BaseException, declared: tuple) -> Verdict:
    name = type(exc).__name__
    if isinstance(exc, declared):
        return Verdict(True, False, f"raised {name}")
    return Verdict(True, True, f"raised undeclared {name}: {exc}")


def check_interval(outcome, reference: str, declared: tuple = ()) -> Verdict:
    """Judge a CertifiedValue (or the exception a call raised) against a reference."""
    if isinstance(outcome, BaseException):
        return _raised(outcome, declared)
    gap = abs(Fraction(outcome.value) - Fraction(reference))
    if gap > Fraction(outcome.abs_error_bound):
        return Verdict(True, True, f"interval misses reference by {float(gap):.3e}")
    if outcome.flag:
        return Verdict(True, False, f"flagged {outcome.flag}")
    return OK


def check_inversion(outcome, root: str, tolerance: float, declared: tuple = ()) -> Verdict:
    """Judge an InverseResult (or the exception) against the reference root."""
    if isinstance(outcome, BaseException):
        return _raised(outcome, declared)
    if outcome.flag:
        return Verdict(True, False, f"flagged {outcome.flag}")
    gap = abs(Fraction(outcome.z) - Fraction(root))
    if gap > Fraction(tolerance):
        return Verdict(True, True, f"z is {float(gap):.3e} from the root, tolerance {tolerance:g}")
    return OK


def check_property(outcome, holds, declared: tuple = ()) -> Verdict:
    """Judge a result by a property it must have (``holds(result) -> str``,
    empty when the property holds)."""
    if isinstance(outcome, BaseException):
        return _raised(outcome, declared)
    problem = holds(outcome)
    return Verdict(True, True, problem) if problem else OK
