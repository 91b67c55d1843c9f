"""Error types raised by the pipeline.

Every class name doubles as the machine-readable error code the CLI prints
before exiting with status 3 (data error).
"""


class TCMError(Exception):
    """Base class for data-level failures."""

    @property
    def code(self) -> str:
        return type(self).__name__


class CorruptScene(TCMError, ValueError):
    """A scene file or its sidecar cannot be decoded (bad magic, short payload, missing key)."""


class NonFinitePixels(TCMError):
    """A floating-point scene holds NaN or infinite samples."""


class DuplicateSceneYear(TCMError):
    """Two scenes of one dataset carry the same year."""


class MalformedLabels(TCMError):
    """Labels lack a required column, hold a non-integer index or year, leave the scene
    axis, or name a footprint the dataset does not have."""


class TooFewLabels(TCMError, ValueError):
    """Too few labelled footprints to split into train and test sides."""


class MalformedPolygons(TCMError, ValueError):
    """A polygons file is not JSON or not a FeatureCollection, a feature's
    properties is not an object, its id missing or neither a string nor an
    integer, its geometry not a Polygon, its label_year not an integer, or a
    Polygon's coordinates not rings of finite [x, y] numbers."""


class DegeneratePolygon(TCMError):
    """Polygon ring has fewer than 3 distinct vertices or zero area."""


class DuplicateFootprintId(TCMError):
    """Two footprints of one dataset share an id."""


class EmptyFootprintMask(TCMError):
    """No pixel center of the target grid falls inside the polygon."""


class FootprintOutsideImagery(TCMError):
    """After clipping to the imagery, the footprint mask is empty."""


class SceneMismatch(TCMError):
    """Scenes of one study area disagree on channel count or cannot be aligned."""


class TooFewPixels(TCMError):
    """Fewer feature rows than requested clusters."""


class FeatureDimMismatch(TCMError):
    """Image features do not match the dimensionality of a fitted cluster model."""


class EmptyRegion(TCMError):
    """The selected mask region (footprint or neighborhood) contains no pixels."""


class SupportMismatch(TCMError):
    """Two discrete distributions have different support sizes."""


class BinMismatch(TCMError):
    """Two histograms were built over different bin edges."""


class PlacementFailed(TCMError):
    """Could not place a random polygon inside the study extent."""


class SceneTooCrowded(TCMError):
    """Could not place the requested number of synthetic footprints without overlap."""


class DegenerateLabels(TCMError):
    """Training labels contain fewer than two distinct classes."""


class SeriesTooShort(TCMError):
    """Operation needs at least two time steps."""


class MissingPrediction(TCMError):
    """A labeled footprint has no prediction to score."""


class DegenerateRanks(TCMError):
    """Rank correlation is undefined when one variable has zero rank variance."""


class ConfigError(Exception):
    """Invalid run configuration; the CLI exits with status 2."""
