"""``repro.des`` — a small, deterministic discrete-event simulation kernel.

A from-scratch kernel: :class:`Environment` advances a global clock over
a binary heap of scheduled zero-argument continuations
(:meth:`Environment.call_later`), and simpy-style processes — Python
generators that yield events — run on top.  See :mod:`repro.des.core`
for the execution model and :mod:`repro.des.resources` /
:mod:`repro.des.stores` for the queueing primitives the cluster
simulator is built on.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, period):
...     while True:
...         yield env.timeout(period)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4)
>>> log
[('fast', 1), ('fast', 2), ('slow', 2), ('fast', 3)]
"""

from .core import (
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    Process,
    StopProcess,
    Timeout,
)
from .events import AllOf, AnyOf, Condition, ConditionValue
from .monitor import RateMeter, Tally, TimeWeightedValue
from .sanitize import DESSanitizer, LeakReport, SanitizerError, Violation
from .resources import Container, PriorityResource, Resource
from .stores import FilterStore, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopProcess",
    "EmptySchedule",
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "TimeWeightedValue",
    "Tally",
    "RateMeter",
    "DESSanitizer",
    "SanitizerError",
    "LeakReport",
    "Violation",
]
