"""``repro.wq`` — the Work Queue distributed execution framework.

A per-user master/worker system (paper §3): the master holds a queue of
tasks; workers — possibly behind an intermediate rank of foremen — pull
tasks, execute them, and return results.  Workers manage multiple cores
with a shared sandbox cache and survive on non-dedicated machines where
eviction can strike at any yield point.
"""

from .task import Task, TaskResult, TaskState
from .recovery import RecoveryPolicy
from .ready import ReadyQueue
from .master import Master
from .foreman import Foreman
from .worker import Worker
from .transfer import ship

__all__ = [
    "Task",
    "TaskResult",
    "TaskState",
    "RecoveryPolicy",
    "ReadyQueue",
    "Master",
    "Foreman",
    "Worker",
    "ship",
]
