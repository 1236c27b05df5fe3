"""Exact-arithmetic toolkit for intersective polynomials and their
Fourier-analytic machinery: auxiliary families h_d, admissible-residue
sieves, sieved exponential sums, major/minor arcs, density increments and
additive energy."""

__version__ = "0.1.0"

from .arcs_fourier import (
    ArcSpec,
    TorusPoint,
    arc_list,
    circle_l2_mass,
    classify,
    fourier_set,
    parseval_total,
)
from .energy import FreqSet, additive_energy, ch_check, newbm_check
from .expsum import (
    ExpSumResult,
    PhaseSumSpec,
    cancellation_scan,
    complete_sum,
    fitted_C,
    main_term_check,
    normalized_S,
    phase_sum,
)
from .hfree import HFreeInstance, Violation, greedy_h_free, is_h_free, max_h_free_exact
from .increment import (
    GammaSelection,
    Increment,
    IncrementState,
    SmallFibers,
    cor0_dichotomy,
    find_increment,
    run_iteration,
    select_gamma,
)
from .intersective import (
    AuxFamily,
    IntersectiveUpTo,
    NotIntersective,
    PAdicRootData,
    check_intersective,
    hensel_roots,
)
from .intpoly import IntPoly
from .residue_sieve import (
    SieveProfile,
    expected_density,
    gamma_exponent,
    sieve_count,
)
