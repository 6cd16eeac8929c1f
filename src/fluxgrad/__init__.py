"""Feature attribution via negative-flux aggregation on an epsilon-sphere,
with gradient-based baselines, brute-force divergence/flux verification,
and a deletion/insertion evaluation harness."""

from .attribution import AttributionMap
from .baselines import (
    IgConfig,
    SmoothGradConfig,
    ig_completeness_gap,
    integrated_gradients,
    random_attribution,
    saliency,
    smoothgrad,
)
from .divergence import (
    DivergenceTheoremReport,
    divergence_theorem_report,
    surface_flux_integral,
    volume_divergence_integral,
)
from .errors import (
    DimensionMismatch,
    FluxgradError,
    MeasureOverflow,
    NoNegativeFlux,
    NonFiniteAttribution,
    NonFiniteInput,
    NotSmooth,
    OffSphere,
    StationaryGradient,
)
from .evalkit import (
    BenchmarkReport,
    EvalConfig,
    EvalCurve,
    benchmark,
    deletion_curve,
    difference_score,
    insertion_curve,
    make_method,
    two_round_difference,
)
from .geometry import IntegralEstimate, SphereSpec, ball_volume, sphere_area
from .models import (
    Head,
    Layer,
    Model,
    evaluate,
    evaluate_batch,
    fd_gradient,
    gauss_bump,
    gauss_mixture_model,
    gradient,
    gradient_batch,
    laplacian_batch,
    linear_model,
    load_model,
    mlp_model,
    model_from_json,
    model_to_json,
    quadratic_model,
    random_mlp,
    save_model,
)
from .neflag import (
    FluxPoint,
    NeflagConfig,
    find_negative_flux_point,
    flux_at,
    neflag_attribute,
    recurrence_step,
    sample_sphere,
    taylor_heatmap,
)
from .train import (
    FitResult,
    blob_dataset,
    fit_toy_model,
    linear_rule_dataset,
    load_dataset_csv,
    save_dataset_csv,
    training_accuracy,
)

__version__ = "0.1.0"
