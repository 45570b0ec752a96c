"""Statistical-privacy accounting for query composition over random partitions."""

from .baseline import (
    AccuracyFigure,
    DpCalibration,
    gaussian_sigma_for,
    max_dp_queries,
    mse_increase,
)
from .compose import (
    AdaptiveSpec,
    BlockTerm,
    CompositionReport,
    CompositionSpec,
    NonadaptiveSpec,
    ThresholdTree,
    adaptive_general,
    adaptive_iid,
    composition_delta,
    nonadaptive_general,
    nonadaptive_iid,
)
from .curve import (
    d_hat,
    hockey_stick,
    property_query_answer_law,
    shift_pair_delta,
)
from .distkit import Pmf, binomial, cdf, hypergeometric, point, poisson_binomial, shift
from .errors import CapacityError, DomainError
from .oracle import (
    ExactMechanismLaw,
    McEstimate,
    exact_mechanism_law,
    mc_distinguish,
    verification_matrix,
)
from .partition import (
    PartitionLaw,
    Template,
    TemplateFormat,
    enumerate_templates,
    sample_template,
    template_count,
)
from .spc import (
    Enumerate,
    ExplicitEntries,
    IidEntries,
    KnownEntries,
    MonteCarlo,
    PropertyQuery,
    Scenario,
    SpcEstimate,
    spc_general,
    spc_iid,
    spc_known_entries,
    spc_known_entries_threshold_bound,
)

__version__ = "0.1.0"
