import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import kinbench as kb
from kinbench.errors import (
    DomainError,
    MissingGibbsForm,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    PreconditionViolated,
    ShapeError,
    UnknownExample,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import (
    CATALOG_NAMES,
    DomainSpec,
    EquilibriumDensity,
    GeneratorSpec,
    _derivative_of,
    catalog_example,
    compute_Hi,
)
from kinbench.pawula import cube_test, second_order_sign_check


def line_spec(a_text, b_text, lo=-10.0, hi=10.0, kind="full-line"):
    return GeneratorSpec(1, CE(a_text), CE(b_text), DomainSpec(kind, ((lo, hi),)))


@pytest.mark.parametrize("call", [
    lambda spec: cube_test(spec, Polynomial([0.0, 1.0]), (0.0, 0.4)),
    lambda spec: second_order_sign_check(spec, [(0.0, 0.4)]),
], ids=["cube-test", "sign-check"])
def test_the_pawula_checks_refuse_a_generator(call):
    # they judge truncated operators; check_admissible judges a generator's a
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: np.array([1.0, 2.0]),
                         DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(PreconditionViolated,
                       match=r"^GeneratorSpec is not a TruncatedOperator \(a GeneratorSpec's "
                             r"diffusion is judged by its check_admissible\)$"):
        call(spec)


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

# H_i is the equilibrium's residual: (a rho)'' - (b rho)' = -(rho H_i)'/2, so
# with no current through the walls rho is the equilibrium exactly when H_i = 0

def test_residual_invariant_appendix2b():
    spec, rho = catalog_example("appendix2b", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 400)
    assert np.max(np.abs(compute_Hi(spec, rho, grid))) <= 1e-12


def test_residual_invariant_ou():
    spec, rho = catalog_example("ornstein-uhlenbeck")
    grid = kb.Grid.from_domain(spec.domain, 401)
    assert np.max(np.abs(compute_Hi(spec, rho, grid))) == 0.0


def test_residual_invariant_wrong_density():
    # flat samples recover H' = 0, so H_i is the whole drift's 2b
    spec, _ = catalog_example("ornstein-uhlenbeck")
    grid = kb.Grid.from_domain(spec.domain, 401)
    assert np.array_equal(compute_Hi(spec, np.ones(grid.size), grid), -2 * grid.x)


@pytest.mark.parametrize("name, alpha", [
    ("ornstein-uhlenbeck", None),
    ("appendix2a", 1.0),
])
def test_residual_fd_second_order(name, alpha):
    # samples are differentiated by np.gradient, which is second order and
    # exact on OU's quadratic -ln rho = x^2/2
    spec, rho = catalog_example(name, alpha)
    errs = []
    for n in [101, 201, 401, 801]:
        grid = kb.Grid.from_domain(spec.domain, n)
        errs.append(np.max(np.abs(compute_Hi(spec, rho.on_grid(grid), grid))))
    if name == "ornstein-uhlenbeck":
        assert max(errs) <= 1e-12, errs
        return
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(1.9 <= o <= 2.1 for o in orders), orders


# ---------------------------------------------------------------------------
# the fields on the grid nodes, against the formulas written out by hand

def on_x(values, x):
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)


def Hi_by_hand(spec, rho, x):
    """2(beta a H' - a' + b); H' exact, else the gradient of H or of
    -ln(rho/max rho) on the nodes."""
    d = _derivative_of
    if isinstance(rho, EquilibriumDensity):
        beta, H = float(rho.gibbs[0]), rho.gibbs[1]
        dh = on_x(d(H)(x), x) if d(H) is not None else np.gradient(on_x(H(x), x), x,
                                                                   edge_order=2)
    else:
        beta, vals = 1.0, np.asarray(rho, dtype=float)
        dh = np.gradient(-np.log(vals / vals.max()), x, edge_order=2)
    a = on_x(spec.a(x), x)
    da = on_x(d(spec.a)(x), x) if d(spec.a) is not None else np.gradient(a, x, edge_order=2)
    return 2.0 * (beta * a * dh - da + on_x(spec.b(x), x))


def bare_specs():
    """OU-like generators of plain callables: no exact derivative anywhere."""
    domain = DomainSpec("full-line", ((-8.0, 8.0),))
    return {
        "bare": GeneratorSpec(1, lambda x: 1 + 0.25 * np.asarray(x) ** 2,
                              lambda x: -np.asarray(x), domain),
        "bare-scalar-a": GeneratorSpec(1, lambda x: 1.0, lambda x: -np.asarray(x), domain),
    }


def densities(rho, grid):
    return {
        "analytic": rho,
        "normalized": rho.on_grid(grid, normalize=True),
        "samples": rho.on_grid(grid),
        "gibbs": EquilibriumDensity(gibbs=rho.gibbs),
        "rho_fn": EquilibriumDensity(rho_fn=rho.rho_fn),
    }


def field_cases():
    for name in CATALOG_NAMES:
        for n in (51, 401):
            spec, rho = catalog_example(name, 1.0)
            yield pytest.param(spec, rho, n, id=f"{name}-{n}")
    _, ou = catalog_example("ornstein-uhlenbeck")
    for name, spec in bare_specs().items():
        yield pytest.param(spec, ou, 51, id=name)


@pytest.mark.parametrize("spec, rho, n", field_cases())
def test_residual_and_Hi_are_bitwise_the_formulas_by_hand(spec, rho, n):
    grid = kb.Grid.from_domain(spec.domain, n)
    for kind, dens in densities(rho, grid).items():
        if isinstance(dens, EquilibriumDensity) and dens.gibbs is None:
            with pytest.raises(MissingGibbsForm):  # neither H nor samples
                compute_Hi(spec, dens, grid)
            continue
        Hi = compute_Hi(spec, dens, grid)
        assert Hi.tobytes() == Hi_by_hand(spec, dens, grid.x).tobytes(), kind


@pytest.mark.parametrize("kind", ["analytic", "gibbs"])
def test_residual_of_pure_diffusion_is_zero(kind):
    # constant expressions evaluate to scalars; the nodes still get one value each
    spec, rho = catalog_example("pure-diffusion")
    grid = kb.Grid.from_domain(spec.domain, 21)
    dens = rho if kind == "analytic" else EquilibriumDensity(gibbs=rho.gibbs)
    assert np.array_equal(compute_Hi(spec, dens, grid), np.zeros(grid.size))


def test_sympy_oracle_confirms_stationarity():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x", positive=True)
    for alpha in [sympy.Integer(0), sympy.Integer(1), sympy.Rational(5, 2)]:
        a = 1 + x**2
        b = -(2 * alpha - 1) * x
        rho = (1 + x**2) ** (-(alpha + sympy.Rational(1, 2)))
        residual = sympy.simplify(sympy.diff(a * rho, x, 2) - sympy.diff(b * rho, x))
        assert residual == 0
        a2 = x**2
        b2 = 1 - (2 * alpha - 1) * x
        rho2 = x ** (-(2 * alpha + 1)) * sympy.exp(-1 / x)
        residual2 = sympy.simplify(sympy.diff(a2 * rho2, x, 2) - sympy.diff(b2 * rho2, x))
        assert residual2 == 0


def test_on_grid_names_the_first_non_finite_sample():
    grid = kb.Grid.from_domain(DomainSpec("box", ((-1.0, 1.0),)), 11)
    rho = EquilibriumDensity(rho_fn=CE("ln(x - 2)"))
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange, match=r"^rho = nan at point 0 \(x = \[-1\.0\]\) is not finite$"):
        rho.on_grid(grid, normalize=True)


# ---------------------------------------------------------------------------
# gradient-structure field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, alpha", [("appendix2a", 1.0), ("appendix2b", 1.0)])
def test_Hi_vanishes_on_catalog(name, alpha):
    spec, rho = catalog_example(name, alpha)
    grid = kb.Grid.from_domain(spec.domain, 201)
    Hi = compute_Hi(spec, rho, grid)
    assert np.max(np.abs(Hi)) <= 1e-12


def test_Hi_trivial_flat_case():
    spec = line_spec("1", "0", -1, 1, "box")
    grid = kb.Grid.from_domain(spec.domain, 21)
    rho = EquilibriumDensity(rho_fn=CE("1"), gibbs=(1.0, CE("0")))
    Hi = compute_Hi(spec, rho, grid)
    assert np.max(np.abs(Hi)) == 0.0


def test_Hi_requires_gibbs_or_samples():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    grid = kb.Grid.from_domain(spec.domain, 21)
    bare = EquilibriumDensity(rho_fn=None)
    with pytest.raises(MissingGibbsForm):
        compute_Hi(spec, bare, grid)


def test_Hi_recovered_from_samples_matches_analytic():
    spec, rho = catalog_example("ornstein-uhlenbeck")
    grid = kb.Grid.from_domain(spec.domain, 401)
    Hi = compute_Hi(spec, np.exp(-grid.x**2 / 2), grid)
    # analytic field is 2(a*x - 0 - x) = 0; recovery differentiates samples
    assert np.max(np.abs(Hi[5:-5])) <= 1e-3


def test_Hi_identity_action_on_products():
    # adjoint(phi * rho0) = rho0 (Z phi - H_i dphi) + phi adjoint(rho0), nodewise,
    # with adjoint(r) = (a r)'' - (b r)' and Z phi = a phi'' + b phi' from exact
    # expression derivatives: for the equilibrium (H_i = 0) and for Gaussian
    # samples, whose current makes H_i = 2((1 + x^2) x - 2x - x) = 2x^3 - 4x
    spec, rho = catalog_example("appendix2a", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 201)
    nodes = slice(20, 181, 16)
    x = grid.x[nodes]

    def product(f, g):
        return CE(f"({f.text})*({g.text})")

    def adjoint(r):
        ar, br = product(spec.a, r), product(spec.b, r)
        return ar.derivative().derivative()(x) - br.derivative()(x)

    phi = CE("exp(-(x-1)^2/4)")
    dphi = phi.derivative()
    z_phi = spec.a(x) * dphi.derivative()(x) + spec.b(x) * dphi(x)
    gauss = CE("exp(-x^2/2)")
    for rfn, rho0 in [(rho.rho_fn, rho), (gauss, gauss(grid.x))]:
        Hi = compute_Hi(spec, rho0, grid)[nodes]
        lhs = adjoint(product(phi, rfn))
        rhs = rfn(x) * (z_phi - Hi * dphi(x)) + phi(x) * adjoint(rfn)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs)), rfn


# ---------------------------------------------------------------------------
# catalog and admissibility
# ---------------------------------------------------------------------------

def test_catalog_appendix2a_contents():
    spec, rho = catalog_example("appendix2a", 1.0)
    assert spec.a(2.0) == pytest.approx(5.0)
    assert spec.b(2.0) == pytest.approx(-2.0)
    assert rho.rho_fn(0.0) == pytest.approx(1.0)
    assert rho.rho_fn(1.0) == pytest.approx(2.0 ** -1.5)
    assert rho.normalizable
    assert rho.total_mass == pytest.approx(2.0)


def test_catalog_flags_nonintegrable_range():
    _, rho = catalog_example("appendix2a", 0.0)
    assert not rho.normalizable
    assert math.isinf(rho.total_mass)
    _, rho = catalog_example("appendix2a", -0.25)
    assert not rho.normalizable


def test_catalog_appendix2b_mass():
    _, rho = catalog_example("appendix2b", 1.0)
    assert rho.total_mass == pytest.approx(1.0)


def test_catalog_ou():
    spec, rho = catalog_example("ornstein-uhlenbeck")
    assert spec.a(3.0) == pytest.approx(1.0)
    assert spec.b(3.0) == pytest.approx(-3.0)
    assert rho.total_mass == pytest.approx(np.sqrt(2 * np.pi))


def test_catalog_errors():
    with pytest.raises(UnknownExample):
        catalog_example("nope")
    with pytest.raises(ParameterOutOfRange):
        catalog_example("appendix2a", -0.75)


def test_admissibility_check():
    spec = line_spec("-1", "0", -1, 1, "box")
    with pytest.raises(NonEllipticCoefficient):
        spec.check_admissible(np.linspace(-1, 1, 11))


# ---------------------------------------------------------------------------
# diffusion and drift: the one reader of a and b


def box_spec(a, b=lambda p: np.zeros(2)):
    return GeneratorSpec(2, a, b, DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0))))


def test_nd_sampler_stacks_and_symmetrizes():
    spec = box_spec(lambda p: np.array([[1.0, p[0]], [0.0, 2.0]]), lambda p: -p)
    pts = np.array([[0.5, 0.0], [-0.25, 1.0]])
    want = np.array([[[1.0, 0.25], [0.25, 2.0]], [[1.0, -0.125], [-0.125, 2.0]]])
    assert np.array_equal(spec.diffusion(pts), want)
    assert np.array_equal(spec.drift(pts), -pts)
    assert spec.diffusion(pts[1]).shape == (1, 2, 2)  # one point
    assert np.array_equal(spec.diffusion(pts[1])[0], want[1])


def test_1d_sampler_takes_the_whole_array_in_one_call():
    shapes = []
    spec = GeneratorSpec(1, lambda x: shapes.append(np.shape(x)) or 1 + x**2, lambda x: 3.0,
                         DomainSpec("box", ((-1.0, 1.0),)))
    x = np.linspace(-1, 1, 5)
    assert np.array_equal(spec.diffusion(x), (1 + x**2).reshape(5, 1, 1))
    assert np.array_equal(spec.drift(x), np.full((5, 1), 3.0))  # one number stands for all
    assert spec.diffusion(0.5)[0] == 1.25
    assert shapes == [(5,), ()]


@pytest.mark.parametrize("dim, name, value", [
    (2, "a", lambda p: np.eye(3)),
    (2, "a", lambda p: np.eye(2) if p[0] < 0 else np.ones(2)),
    (2, "b", lambda p: np.zeros(3)),
    (1, "a", lambda x: np.ones(3)),
    (1, "b", lambda x: np.ones((5, 1))),
], ids=["nd-big", "nd-ragged", "nd-drift", "1d-count", "1d-column"])
def test_sampler_rejects_a_value_of_the_wrong_shape(dim, name, value):
    coefficients = {"a": lambda p: np.eye(dim), "b": lambda p: np.zeros(dim), name: value}
    spec = GeneratorSpec(dim, coefficients["a"], coefficients["b"],
                         DomainSpec("box", ((-1.0, 1.0),) * dim))
    pts = np.linspace(-1, 1, 5) if dim == 1 else np.array([[-0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ShapeError, match=f"^{name} must map each point"):
        (spec.diffusion if name == "a" else spec.drift)(pts)


def test_nd_points_need_every_coordinate():
    with pytest.raises(ShapeError, match="points need 2 coordinates"):
        box_spec(lambda p: np.eye(2)).diffusion(np.zeros(3))


def test_nan_1d_diffusion_fails_the_admissibility_check():
    spec = line_spec("ln(x - 2)", "0", -1, 1, "box")  # nan on all of [-1, 1]
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange, match=r"^a = nan at point 0 \(x = \[-1.0\]\) is not finite$"):
        spec.check_admissible(np.linspace(-1, 1, 11))


def test_nan_2d_diffusion_fails_the_admissibility_check():
    # eigvalsh gives [0, -0] for diag(nan, 1), which would pass the floor
    spec = box_spec(lambda p: np.diag([np.nan, 1.0]))
    with pytest.raises(ParameterOutOfRange,
                       match=r"^a = nan at point 0 \(x = \[0.0, 0.5\]\) is not finite$"):
        spec.check_admissible(np.array([[0.0, 0.5]]))


def test_admissibility_names_the_first_point_below_the_floor():
    spec = box_spec(lambda p: np.array([[1.0, 0.0], [0.0, 0.5 - p[1]]]))
    pts = np.array([[0.0, 0.0], [0.0, 0.75], [0.0, 1.0]])
    with pytest.raises(NonEllipticCoefficient,
                       match=r"^a has eigenvalue -0.25 < 0 at point 1 \(x = \[0.0, 0.75\]\)$"):
        spec.check_admissible(pts)


def test_assembly_shares_the_admissibility_floor_rule():
    spec = line_spec("x", "0", -1, 1, "box")
    grid = kb.Grid.from_domain(spec.domain, 5)
    message = r"^a has eigenvalue -1 < 0 at point 0 \(x = \[-1.0\]\)$"
    with pytest.raises(NonEllipticCoefficient, match=message):
        spec.check_admissible(grid.nodes_for_eval())
    with pytest.raises(NonEllipticCoefficient, match=message):
        kb.build_qmatrix(spec, grid)


def test_half_line_domain_requires_positive_lo():
    with pytest.raises(DomainError):
        DomainSpec("half-line", ((-1.0, 5.0),))


def test_a_nan_point_is_never_in_the_domain():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    for interior in (False, True):
        assert not spec.domain.contains(float("nan"), interior=interior)
