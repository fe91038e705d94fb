"""Exception types shared across the package.

Every error raised on purpose derives from InstanceEmbedError so the CLI can
map failures to its stable exit codes.
"""


class InstanceEmbedError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(InstanceEmbedError):
    """Two grid operands do not share the same width and height."""

    def __init__(self, shape_a, shape_b):
        super().__init__(f"grid shapes differ: {shape_a} vs {shape_b}")
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)


class EmptyInstance(InstanceEmbedError):
    """An instance ID in 1..C owns zero pixels."""


class NonFiniteLoss(InstanceEmbedError):
    """The loss or its gradient became NaN/inf (step size too large)."""


class DegenerateVector(InstanceEmbedError):
    """A vector cannot be scaled to unit length.

    Its norm is near zero, or its squared norm overflows float64.
    """


class DegenerateShift(InstanceEmbedError):
    """The weighted sum of a mean-shift step has near-zero norm."""


class EmptyForeground(InstanceEmbedError):
    """A foreground mask selects no pixels."""


class OriginOnBackground(InstanceEmbedError):
    """A receptive-field trace origin does not lie on a labeled instance."""


class NoGroundTruth(InstanceEmbedError):
    """Recall is undefined without at least one ground-truth box."""


class InfeasibleLayout(InstanceEmbedError):
    """Scene constraints cannot fit inside the requested canvas."""


class ConfigError(InstanceEmbedError):
    """A configuration document is malformed or violates a constraint."""


class FormatError(InstanceEmbedError):
    """A data file does not conform to its declared format."""
