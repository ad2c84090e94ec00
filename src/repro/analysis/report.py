"""Framework job reports and exit codes.

After the application exits, the Lobster wrapper parses the framework
job report to decide success or failure and to attribute time to the
right phase (paper §5).  Exit codes follow the CMS convention of
distinct ranges per failure family so that a timeline of exit codes
(paper Fig 11, bottom panel) separates squid trouble from storage
trouble from application bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict

__all__ = ["ExitCode", "FrameworkReport", "exit_code_name"]


class ExitCode(IntEnum):
    """Task exit codes, one family per failure mode."""

    SUCCESS = 0
    #: Environment / machine incompatibility found by the wrapper pre-check.
    BAD_MACHINE = 130
    #: Software delivery: squid/CVMFS timeout while building the environment.
    SETUP_FAILED = 169
    #: Input staging failed (Chirp / Work Queue transfer error).
    STAGE_IN_FAILED = 179
    #: Generic application failure (CMSSW internal).
    APPLICATION_FAILED = 8001
    #: Could not open remote input file over XrootD.
    FILE_OPEN_FAILED = 8020
    #: Read error mid-stream (WAN hiccup, federation outage).
    FILE_READ_FAILED = 8028
    #: Output stage-out to the storage element failed or timed out.
    STAGE_OUT_FAILED = 10031
    #: Worker was evicted while the task was running.
    EVICTED = 143

    @property
    def family(self) -> str:
        """Coarse grouping used by monitoring dashboards."""
        return {
            ExitCode.SUCCESS: "success",
            ExitCode.BAD_MACHINE: "environment",
            ExitCode.SETUP_FAILED: "software-delivery",
            ExitCode.STAGE_IN_FAILED: "data-access",
            ExitCode.APPLICATION_FAILED: "application",
            ExitCode.FILE_OPEN_FAILED: "data-access",
            ExitCode.FILE_READ_FAILED: "data-access",
            ExitCode.STAGE_OUT_FAILED: "stage-out",
            ExitCode.EVICTED: "eviction",
        }[self]


def exit_code_name(code: int) -> str:
    """The :class:`ExitCode` name of *code*, or the number itself as a
    string for a code outside the enum (a foreign recording)."""
    try:
        return ExitCode(code).name
    except ValueError:
        return str(code)


@dataclass
class FrameworkReport:
    """What the application reports back through the wrapper."""

    exit_code: ExitCode = ExitCode.SUCCESS
    events_read: int = 0
    events_written: int = 0
    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    output_bytes: float = 0.0
    input_bytes: float = 0.0
    #: Content digest of the output, computed at creation (stage-out);
    #: "" when the run has output verification disabled.
    output_checksum: str = ""
    #: Free-form diagnostics per phase, e.g. {"stream": "xrootd"}.
    annotations: Dict[str, str] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.exit_code == ExitCode.SUCCESS

    def merge_counts(self, other: "FrameworkReport") -> None:
        """Accumulate another report's counters (used by merge tasks)."""
        self.events_read += other.events_read
        self.events_written += other.events_written
        self.cpu_seconds += other.cpu_seconds
        self.io_seconds += other.io_seconds
        self.output_bytes += other.output_bytes
        self.input_bytes += other.input_bytes
