"""Event-driven space-sharing scheduler simulator.

This is the paper's simulation environment (§6.1): a 4x4x8 supernode
torus processed by an event-driven engine with *arrival*, *start*,
*finish* and *failure* events (checkpoint events are available through
:mod:`repro.checkpoint`).  Jobs always start the moment they are
scheduled; failures are transient — a failure on any node of a running
job destroys the whole job's unsaved work, re-queues it (original FCFS
priority) and leaves the node immediately available.
"""

from __future__ import annotations

from repro.core.arrivals import OnlineArrivalStream, TraceArrivalStream
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.events import Event, EventKind, EventQueue
from repro.core.jobstate import JobState
from repro.core.queue import WaitQueue
from repro.core.simulator import Simulator, simulate
from repro.core.policies import (
    SchedulingPolicy,
    KrevatPolicy,
    BalancingPolicy,
    TieBreakPolicy,
    make_policy,
)

__all__ = [
    "OnlineArrivalStream",
    "TraceArrivalStream",
    "BackfillMode",
    "SimulationConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "JobState",
    "WaitQueue",
    "Simulator",
    "simulate",
    "SchedulingPolicy",
    "KrevatPolicy",
    "BalancingPolicy",
    "TieBreakPolicy",
    "make_policy",
]
