"""Exception types shared across the package."""


class TierAllocError(Exception):
    """Base class for all package-specific errors."""


class InvalidTrajectory(TierAllocError):
    """Trajectory is empty, contains non-positive dwell times, or has cell
    and dwell columns of unequal length."""


class InvalidGroup(TierAllocError):
    """Group is empty or references unknown users."""


class InvalidWorkflow(TierAllocError):
    """Workflow tree violates a structural rule (arity, loop count, data size)."""


class IncompletePlan(TierAllocError):
    """Execution plan misses an assignment for some function occurrence."""


class NoRealizingService(TierAllocError):
    """No service in the catalog implements the requested function."""


class NoFeasibleCandidates(TierAllocError):
    """Candidate search exhausted its radius budget without a feasible plan."""


class ExtremaMismatch(TierAllocError):
    """Value lies outside the normalization extrema it is scaled against."""


class IdError(TierAllocError):
    """Duplicate insert or unknown id in an index structure."""


class LedgerUnderflow(TierAllocError):
    """Release of a capacity slot that was never admitted."""


class AdmissionRefused(TierAllocError):
    """A capacity-bound cloud refused a plan that was checked to fit."""


class TooLargeForEnumeration(TierAllocError):
    """Joint plan space exceeds the exhaustive-search cap."""


class UndefinedThroughput(TierAllocError):
    """Throughput ratio requested against a non-positive optimal utility."""


class UndefinedGain(TierAllocError):
    """Gain requested against a zero baseline metric."""


class ScenarioError(TierAllocError):
    """Scenario file is malformed; message names the offending field."""
