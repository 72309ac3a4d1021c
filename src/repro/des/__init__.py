"""``repro.des`` — a small, deterministic discrete-event simulation kernel.

A from-scratch kernel: :class:`Environment` advances a global clock over
a binary heap of scheduled zero-argument continuations
(:meth:`Environment.call_later`).  A model is a set of callback chains:
each continuation does its work and schedules the next.  See
:mod:`repro.des.core` for the execution model and
:mod:`repro.des.resources` for the queueing stations the cluster
simulator is built on.

Example
-------
Two clocks as callback chains.  Entries due at the same time run in
scheduling order, so the slow clock's first tick (queued at t=0) runs
before the fast clock's second (queued at t=1):

>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(name, period):
...     def tick():
...         log.append((name, env.now))
...         env.call_later(period, tick)
...     env.call_later(period, tick)
>>> clock("fast", 1)
>>> clock("slow", 2)
>>> env.run(until=4)
>>> log
[('fast', 1.0), ('slow', 2.0), ('fast', 2.0), ('fast', 3.0)]
"""

from .core import EmptySchedule, Environment
from .monitor import RateMeter, Tally, TimeWeightedValue
from .sanitize import DESSanitizer, LeakReport, SanitizerError, Violation
from .resources import PriorityResource, Resource

__all__ = [
    "Environment",
    "EmptySchedule",
    "Resource",
    "PriorityResource",
    "TimeWeightedValue",
    "Tally",
    "RateMeter",
    "DESSanitizer",
    "SanitizerError",
    "LeakReport",
    "Violation",
]
