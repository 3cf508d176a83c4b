"""Exception types shared across the toolkit.

Every data error is a `CloudSRError`; its message says what went wrong.  A
subclass exists only where some caller catches it by type.
"""


class CloudSRError(Exception):
    """Base class for every error raised by cloudsr, and the type of every
    data error that no caller tells apart from the others."""


class AllPointsCulled(CloudSRError):
    """No point of the cloud projects inside the image frame.  `refine`
    ends at a hull refresh that raises it; `synth` reports it as a shape
    out of frame."""


class HullFailed(CloudSRError):
    """No concave hull polygon exists: fewer than three distinct points,
    collinear points, or no neighbor count that gives a valid hull.
    `refine` ends at a hull refresh that raises it."""
