"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all repro-specific errors."""


class SpecificationViolation(ReproError):
    """A barrier-synchronization Safety or Progress violation was
    detected by the specification oracle."""


class FatalFaultError(ReproError):
    """An uncorrectable fault was detected (Section 7, bottom row of
    Table 1): the program reports a fatal error and stops -- the
    fail-safe guarantee is that it never *wrongly* reports completion."""


class SimulationError(ReproError):
    """A simulator invariant broke (event ordering, domain violation...)."""


class TopologyError(ReproError):
    """An invalid topology was supplied (disconnected graph, bad tree)."""


class ShardError(ReproError):
    """The sharded runtime's coordinator lost a worker: it raised, died
    without answering, or missed a start-up or result deadline."""

    def __init__(self, what: str, reason: str) -> None:
        self.what = what
        self.reason = reason
        super().__init__(f"shard {what}: {reason}")


class ObsPortInUseError(ReproError):
    """The observability HTTP port is already bound by another process.

    Raised instead of a raw ``OSError`` so callers (CLI, daemon) can
    print one actionable line -- which port, and that ``--obs-port 0``
    picks a free ephemeral port -- rather than a traceback."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        super().__init__(
            f"observability port {host}:{port} is already in use "
            "(pass --obs-port 0 for an ephemeral port)"
        )
