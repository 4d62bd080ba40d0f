"""Exception types shared across the package."""


class StsBotError(Exception):
    """Base class for all stsbot errors."""


class Unreachable(StsBotError):
    """Target point lies outside the arm's reachable annulus."""

    def __init__(self, target):
        self.target = (float(target[0]), float(target[1]))
        super().__init__(f"target {self.target} is outside the reachable workspace")


class OutOfJointLimits(StsBotError):
    """A joint solution or commanded state violates the configured joint limits."""


class SingularTransmission(StsBotError):
    """A transmission derivative is too close to zero to invert safely."""

    def __init__(self, joint: str, value: float = 0.0):
        self.joint = joint
        self.value = value
        super().__init__(f"transmission singular at joint {joint} (derivative {value:.3e} m/rad)")


class EmptyWindow(StsBotError):
    """A log analysis window contains no samples."""


class DegenerateInput(StsBotError):
    """Analysis input carries no variance or is otherwise degenerate."""


class NumericalDivergence(StsBotError):
    """The integrator detected unbounded state growth and aborted."""


class ConfigError(StsBotError):
    """Scenario or mode configuration violates the schema or a consistency rule."""
