"""Extensions along the paper's future-work directions.

The paper's conclusion names three open ends.  The first — "for larger
clusters, it is essential to find a way to reduce the search space.
Approximation algorithms (i.e., heuristics) are also worth considering"
— is answered by the search backends of :mod:`repro.core.search` (greedy
growth, hill climbing, simulated annealing, beam, branch-and-bound).
The other two have modules here:

* "though we examine only the case of a 1-by-P process grid ... our scheme
  is universally applicable to any other process grid" —
  :mod:`repro.exts.grid2d` (P x Q block-cyclic grids and a 2-D variant of
  the schedule simulator);
* "this study examined one specific application (HPL), but other parallel
  applications should be also examined" — :mod:`repro.exts.apps` (SUMMA
  matrix multiplication and Cholesky factorization, both plugging into
  the same measurement/model/optimization pipeline unchanged);

plus :mod:`repro.exts.baselines`, which implements the *related-work*
approach the paper argues against (speed-weighted heterogeneous
distribution in rewritten applications) so the comparison can be run
rather than merely cited.
"""

from repro.exts.apps import run_cholesky, run_summa
from repro.exts.baselines import run_hbc, simulate_hbc, weighted_owner_sequence
from repro.exts.grid2d import GridShape, grid_shapes, simulate_schedule_2d

__all__ = [
    "GridShape",
    "grid_shapes",
    "run_cholesky",
    "run_hbc",
    "run_summa",
    "simulate_hbc",
    "simulate_schedule_2d",
    "weighted_owner_sequence",
]
