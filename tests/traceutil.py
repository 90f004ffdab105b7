"""Builds a `Trace` from (kind, value) events: the inverse of iterating one."""

from array import array

from crow.interp import Trace


def trace_of(events) -> Trace:
    return Trace(array("q", (2 * v + (k == "push") for k, v in events)))
