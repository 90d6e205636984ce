"""Structured outcome of an identity or theorem check."""

from __future__ import annotations

import json
import time

__all__ = ["VerificationReport", "timed_report", "InternalCheckError", "UsageError"]


class InternalCheckError(RuntimeError):
    """An internal consistency assertion failed; results cannot be trusted."""


class UsageError(ValueError):
    """A request the program does not take: input that does not parse or
    is below its minimum, or parameters that a documented engine cap
    refuses.  It is raised only where parameters are checked, never for a
    fault inside a computation."""


class VerificationReport:
    """Parameters, both sides of the checked identity, status and timing."""

    __slots__ = ("check", "params", "status", "lhs", "rhs", "elapsed_ms", "detail")

    def __init__(self, check, params, status, lhs="", rhs="", elapsed_ms=0, detail=""):
        self.check = check
        self.params = dict(params)
        self.status = status
        self.lhs = str(lhs)
        self.rhs = str(rhs)
        self.elapsed_ms = int(elapsed_ms)
        self.detail = detail

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self):
        out = {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.detail:
            out["detail"] = self.detail
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def __repr__(self):
        return f"VerificationReport({self.check}, {self.status})"


def timed_report(check, params, fn):
    """Run fn() -> (ok, lhs, rhs, detail) and wrap it with timing.  A count
    parameter n or r below 1 is refused before fn runs."""
    low = [f"{k} >= 1" for k in ("r", "n") if isinstance(params.get(k), int) and params[k] < 1]
    if low:
        raise UsageError("need " + " and ".join(low))
    start = time.monotonic()
    ok, lhs, rhs, detail = fn()
    elapsed = (time.monotonic() - start) * 1000
    return VerificationReport(check, params, "pass" if ok else "fail",
                              lhs, rhs, elapsed, detail)
