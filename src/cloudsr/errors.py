"""Exception types shared across the toolkit."""


class CloudSRError(Exception):
    """Base class for every error raised by cloudsr."""


# -- geometry ---------------------------------------------------------------

class EmptyInput(CloudSRError):
    """Spatial index construction received no points."""


class InsufficientPoints(CloudSRError):
    """A k-nearest-neighbor query asked for more neighbors than points exist."""


class InvalidTarget(CloudSRError):
    """Downsampling target count is zero or exceeds the input size, or a
    densification would rank more than `densify.MAX_MIDPOINT_ROWS` rows."""


# -- camera -----------------------------------------------------------------

class BehindCamera(CloudSRError):
    """Point lies at or behind the near plane; it has no valid projection."""


class AllPointsCulled(CloudSRError):
    """No point of the cloud projects inside the image frame."""


class CalibrationError(CloudSRError):
    """Calibration data is malformed or its rotation fails orthonormality."""


# -- images -----------------------------------------------------------------

class ImageTooSmall(CloudSRError):
    """Image is smaller than the 3x3 stencil the operation requires."""


# -- concave hull -----------------------------------------------------------

class TooFewPoints(CloudSRError):
    """Fewer than three distinct points; no polygon exists."""


class DegenerateCollinear(CloudSRError):
    """All input points are collinear; no polygon exists."""


class HullFailed(CloudSRError):
    """No neighbor count produced a valid hull (unreachable for finite
    non-collinear inputs; kept as a hard failure rather than silent output)."""


# -- losses -----------------------------------------------------------------

class EmptySet(CloudSRError):
    """A set-distance loss received an empty point set."""


class TooFewVertices(CloudSRError):
    """Smoothness loss needs at least three ordered vertices."""


class EmptyEdgeMap(CloudSRError):
    """Refinement received an edge map with no points to align to."""


class NonFiniteLoss(CloudSRError):
    """The refinement loss or its gradient overflowed float64."""


# -- file formats -----------------------------------------------------------

class MalformedHeader(CloudSRError):
    """File header does not parse or misses required fields."""


class UnsupportedFormat(CloudSRError):
    """File is valid but uses a variant this reader does not support."""


class TruncatedData(CloudSRError):
    """File body ends before the element count promised by the header."""


class UnsupportedMagic(CloudSRError):
    """Pixmap magic number is not one of P2/P3/P5/P6."""


# -- synthesis --------------------------------------------------------------

class ShapeOutOfFrame(CloudSRError):
    """Synthetic shape does not project fully inside the image frame."""


class FrameTooLarge(CloudSRError):
    """Calibrated frame has more pixels than synthesis renders."""
