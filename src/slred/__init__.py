"""Exact-arithmetic toolkit for nilpotent orbits of sl_N, good gradings built
from pyramids, and the finite data attached to adjacent-orbit reductions:
ghost bases, auxiliary nilpotents, conjugators and screening coefficients.

Everything is computed over the rationals with `fractions.Fraction`; no
floating point arithmetic is used anywhere.
"""

__version__ = "0.1.0"

from .lie import (
    ExactMatrix,
    GradingElement,
    Root,
    all_roots,
    bracket,
    jordan_type,
    root_decomposition,
    trace_form,
)
from .orbits import (
    OrbitChain,
    Partition,
    box_move_witness,
    box_moves_from,
    covers_of,
    dominance_leq,
    is_adjacent,
    partitions_of,
    reduction_path,
    transpose,
)
from .pyramids import (
    GoodPair,
    Pyramid,
    align_for_theorem,
    good_pair,
    grading_element_of,
    is_good_grading,
    left_aligned_offsets,
    nilpotent_from_pyramid,
    render,
    right_aligned_offsets,
)
from .star import (
    BiGrading,
    StarCertificate,
    bigrade,
    check_star,
    compute_omega,
)
from .reduction import (
    AdjacencyData,
    ReductionDatum,
    adjacency_data,
    build_case_one,
    build_chain,
    build_reduction,
    conjugator_height_two,
    verify_conjugation,
)
from .screening import (
    OmegaSplit,
    Poly,
    PolyMatrix,
    ScreeningSet,
    UnipotentChart,
    exp_nilpotent,
    fourier_compare,
    fourier_signs,
    left_action_coeffs,
    left_action_of,
    right_action_of,
    screening_coeffs,
    screening_pair,
)
from .cli import Report, emit, main, verify_all
