"""Exact divisor theory on finite multigraphs and metric Q-graphs.

Chip-firing equivalence, divisor rank with certificates, gonality and
Weierstrass points, Jacobian groups, specialization fixtures, and seeded
conjecture sweeps. All arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import (
    ChipfireError,
    DiscontinuityError,
    DisconnectedError,
    DivisorError,
    EdgeListSyntaxError,
    EmptyGraphError,
    FixtureError,
    GraphError,
    LoopEdgeError,
    MetricError,
    MissingVertexError,
    NonIntegerSlopeError,
    NonzeroDegreeError,
    RecordError,
    SearchDepthError,
    SubdivisionAuditError,
    UnassignedPointError,
    UnboundVertexError,
    UnrepresentablePointError,
)
from .graphs import (
    MultiGraph,
    banana_graph,
    banana_lengths_graph,
    complete_graph,
    cycle_graph,
    family,
    genus,
    parse_graph,
    path_graph,
    serialize_graph,
    subdivide,
    subdivide_edges,
)
from .divisors import (
    Divisor,
    canonical_divisor,
    divisor_of_vertex,
    is_equivalent,
    is_q_reduced,
    is_winnable,
    laplacian_apply,
    q_reduce,
    zero_divisor,
)
from .rank import (
    RankResult,
    RiemannRochReport,
    nu_divisor,
    rank,
    rank_with_certificate,
    riemann_roch_check,
)
from .linear_systems import (
    GrdWitness,
    exists_grd_witness,
    gap_sequence,
    gonality,
    is_hyperelliptic,
    is_residual_tree_vertex,
    min_degree_grd,
    rank_degree_floor,
    superstable_configs,
    weierstrass_points,
)
from .jacobian import (
    AbelianGroupStructure,
    ClassCoordinates,
    class_coordinates,
    jacobian_structure,
    reduced_laplacian,
    smith_normal_form,
    spanning_tree_count,
)
from .metric import (
    PLFunction,
    ProbeRecord,
    ProbeReport,
    QDivisor,
    QGraph,
    QPoint,
    canonical_qdivisor,
    divisor_of_function,
    metric_rr_check,
    norine_scan,
    parse_qgraph,
    q_rank,
    semicontinuity_probe,
    serialize_qgraph,
)
from .specialization import (
    LabeledCurveDivisor,
    SpecializationFixture,
    SpecializationReport,
    SpecializationTable,
    check_specialization_lemma,
    fixture_from_dict,
    fixture_reports,
    load_fixture,
    specialize,
)
from .experiments import (
    ExperimentRecord,
    SweepResult,
    bn_existence_sweep,
    brill_noether_threshold,
    gonality_bound_sweep,
    random_multigraph,
    read_records,
    replay_record,
    replay_records,
    subdivision_invariance_sweep,
)
