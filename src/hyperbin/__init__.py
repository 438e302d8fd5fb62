"""MDL-optimal temporal hypergraph snapshots from bipartite event data."""

from .combinatorics import log2_binomial, log2_multiset
from .encoding import (
    DLBreakdown,
    IntervalCostEngine,
    decoupled_constant,
    naive_dl,
    stage1_dl,
    total_dl_exact,
)
from .events import (
    Binning,
    DiscretizedEvents,
    EmptyClusterError,
    EventDataError,
    EventPartition,
    EventSet,
    HypergraphSnapshot,
    build_snapshot,
    canonical_binning,
    discretize,
    discretize_by_width,
    discretize_on_grid,
    induce_partition,
    parse_events,
    read_events_csv,
)
from .metrics import (
    ccami,
    gap_ratio_alpha,
    jsd_edges,
)
from .optimize import (
    BinningResult,
    baseline_uniform_count,
    baseline_uniform_duration,
    solve_dp,
    solve_greedy,
)
from .synth import (
    SynthParams,
    SynthResult,
    generate_synthetic,
    sample_contingency_table,
    sample_dirichlet_multinomial,
    sample_positive_composition,
    sample_weak_composition,
)

__version__ = "0.1.0"
