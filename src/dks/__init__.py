"""Densest k-subgraph via a diagonally loaded quadratic relaxation.

The relaxation maximizes x^T (A + loading*I) x over the polytope
{x in [0,1]^n : sum x = k}.  For loading >= 1 the relaxation is tight —
some integral point is globally optimal — and any fractional point can
be rounded to an integral one without losing objective value.  The
package provides:

- sparse CSR graphs with SNAP-style edge-list loading (``graph``),
- O(m+n) linear-algebra kernels and power-iteration spectral estimates
  built on one Perron eigensolve (``linalg``),
- a Frank-Wolfe solver whose linear step is a top-k selection (``fw``),
- a sigmoid-parameterized unconstrained ascent solver with an in-repo
  Adam optimizer (``param``),
- monotone rounding and the top-k projection (``rounding``),
- greedy and rank-1 eigenvector baselines plus a spectral density upper
  bound (``baselines``),
- exhaustive small-instance oracles (``oracle``),
- theory property suites (``verify``), sweep reports (``report``), and a
  CLI (``dks solve|sweep|verify|score``).
"""

from .baselines import density_upper_bound, greedy_feige, rank1_lrbo
from .fw import (FwConfig, SolveReport, SolverError, fw_multi_start, fw_solve,
                 lmp_top_k)
from .graph import (Graph, ProblemInstance, induced_edge_count, load_edge_list,
                    normalized_density)
from .linalg import (PowerResult, leading_eigenpair, loaded_matvec,
                     quadratic_form, spectral_norm, top_two_singular_values)
from .oracle import (dense_eig, exact_dks, max_clique, maximal_cliques,
                     project_scaled_simplex, simplex_qp_max)
from .param import (OptimizerConfig, param_objective_and_gradient, param_solve,
                    theta_to_x)
from .points import (is_feasible, project_capped_simplex, random_feasible_point,
                     uniform_point)
from .report import (ExperimentRecord, load_selection_file, read_report,
                     run_sweep, score_selection, solve_with, write_report)
from .rounding import (VertexSelection, make_selection, project_top_k,
                       round_to_integral, rounding_step)
from .topk import top_k_indices
from .verify import (SuiteResult, small_graph_family, suite_landscape,
                     suite_motzkin, suite_rounding, suite_tightness)

__version__ = "0.1.0"

__all__ = [
    "Graph", "ProblemInstance", "load_edge_list", "induced_edge_count",
    "normalized_density",
    "loaded_matvec", "quadratic_form", "spectral_norm", "leading_eigenpair",
    "top_two_singular_values", "PowerResult",
    "FwConfig", "SolveReport", "SolverError", "fw_solve", "fw_multi_start",
    "lmp_top_k",
    "OptimizerConfig", "theta_to_x", "param_objective_and_gradient",
    "param_solve",
    "VertexSelection", "make_selection", "project_top_k", "round_to_integral",
    "rounding_step",
    "greedy_feige", "rank1_lrbo", "density_upper_bound",
    "exact_dks", "max_clique", "maximal_cliques",
    "simplex_qp_max", "project_scaled_simplex", "dense_eig",
    "ExperimentRecord", "run_sweep", "write_report", "read_report",
    "score_selection", "solve_with", "load_selection_file",
    "SuiteResult", "small_graph_family", "suite_motzkin", "suite_rounding",
    "suite_tightness", "suite_landscape",
    "uniform_point", "is_feasible", "project_capped_simplex",
    "random_feasible_point", "top_k_indices",
]
