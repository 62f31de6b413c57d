"""kinbench: positivity-preserving Markov semigroups from diffusion generators.

Pipeline: a generator spec (diffusion a, drift b) is discretized into a
Q-matrix whose off-diagonals are nonnegative by construction, evolved by
uniformization (exactly positivity-preserving), and checked against the
semigroup axioms, the H-theorem with its dissipation identity, and an
independent particle simulation.  All evaluation paths are pure functions
over immutable inputs; results are deterministic for fixed seeds.
"""

from .bands import BandMatrix
from .discretize import DiscreteGenerator, Grid, build_qmatrix
from .errors import KinbenchError
from .expressions import CompiledExpression
from .generator import (
    DomainSpec,
    EquilibriumDensity,
    GeneratorSpec,
    catalog_example,
    compute_Hi,
)
from .htheorem import (
    HCurve,
    HFunctional,
    boundary_term,
    dH_dt_consistency,
    dissipation_rate,
    h_curve,
    h_curves,
    h_function,
    solve_invariant,
)
from .oracle import (
    ParticleEnsemble,
    empirical_density,
    gaussian_source,
    moment_estimates,
    point_source,
    simulate,
    uniform_source,
)
from .pawula import (
    PawulaCertificate,
    TruncatedOperator,
    cube_test,
    maximum_principle_check,
    pawula_counterexample,
    second_order_sign_check,
)
from .semigroup import (
    ChainMoments,
    EvolutionResult,
    TransitionKernel,
    chain_moments,
    chapman_kolmogorov_defect,
    evolve_observable,
    evolve_series,
    generator_at_max,
    resolvent,
    transition_kernel,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
