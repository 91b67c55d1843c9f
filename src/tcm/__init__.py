"""Temporal cluster matching: date structures in image time series from
footprints labeled at a single point in time."""

from .calibration import (
    CalibrationCell,
    CalibrationReport,
    Histogram,
    bhattacharyya,
    build_pq,
    calibrate,
    make_histogram,
    percentile_threshold,
    sample_random_polygons,
)
from .clustering import (
    ClusterModel,
    PixelFeatureConfig,
    assign_features,
    extract_features,
    fit_kmeans,
)
from .core import (
    DetectionResult,
    cluster_distribution,
    detect,
    divergence_series,
    first_crossing,
    first_crossings,
    kl_divergence,
    layer_divergence,
)
from .data import FootprintDataset
from .evaluation import (
    DivergenceCache,
    EvalResult,
    detect_all,
    evaluate_semi_supervised,
    grid_cell_accuracies,
    repeated_splits,
    score,
    spearman,
)
from .geometry import (
    AffineGeoTransform,
    ChipStack,
    Polygon,
    Scene,
    buffered_extent,
    extract_chip_stack,
)
from .supervised import (
    LogisticModel,
    avg_color_series,
    color_over_time_features,
    fit_lr,
    fit_lr_stack,
    fit_threshold,
    lr_probabilities,
    mode_predictor,
    predict_lr,
)
from .synthgen import SynthConfig, generate

__version__ = "0.1.0"
