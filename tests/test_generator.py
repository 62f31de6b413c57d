import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import kinbench as kb
from kinbench.errors import (
    DomainError,
    InsufficientSmoothness,
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
    apply_formal_adjoint,
    apply_generator,
    catalog_example,
    compute_Hi,
)
from kinbench.pawula import cube_test, second_order_sign_check


def line_spec(a_text, b_text, lo=-10.0, hi=10.0, kind="full-line"):
    return GeneratorSpec(1, CE(a_text), CE(b_text), DomainSpec(kind, ((lo, hi),)))


# ---------------------------------------------------------------------------
# apply_generator
# ---------------------------------------------------------------------------

def test_apply_generator_linear_observable():
    spec, _ = catalog_example("appendix2a", 1.0)
    # f(x) = x has zero curvature, so only the drift term survives
    assert apply_generator(spec, CE("x"), 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_apply_generator_annihilates_constants():
    for name, alpha in [("appendix2a", 1.0), ("appendix2b", 0.5),
                        ("ornstein-uhlenbeck", None)]:
        spec, _ = catalog_example(name, alpha)
        lo, hi = spec.domain.bounds[0]
        x = 0.5 * (lo + hi)
        assert apply_generator(spec, CE("1"), x) == 0.0


def test_apply_generator_quadratic_at_origin():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    assert apply_generator(spec, CE("x^2"), 0.0) == pytest.approx(2.0, abs=1e-12)


def test_apply_generator_finite_difference_path():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    val = apply_generator(spec, lambda x: np.sin(x), 0.7)
    exact = -np.sin(0.7) - 0.7 * np.cos(0.7)
    assert val == pytest.approx(exact, abs=1e-9)


def test_apply_generator_outside_domain():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    with pytest.raises(DomainError):
        apply_generator(spec, CE("x"), 9.0)


def test_apply_generator_rejects_a_nan_point():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    for interior in (False, True):
        assert not spec.domain.contains(float("nan"), interior=interior)
    with pytest.raises(DomainError):
        apply_generator(spec, CE("x^2"), float("nan"))


def test_apply_generator_stencil_needs_room():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    with pytest.raises(InsufficientSmoothness):
        apply_generator(spec, lambda x: x, 7.9999999)


@given(st.floats(-3.0, 3.0), st.floats(0.25, 2.0))
def test_apply_generator_linearity(alpha, x):
    spec, _ = catalog_example("appendix2a", 1.0)
    f, g = CE("x^2"), CE("exp(-x^2/2)")
    combo = CE(f"({alpha!r})*x^2 + exp(-x^2/2)")
    lhs = apply_generator(spec, combo, x)
    rhs = alpha * apply_generator(spec, f, x) + apply_generator(spec, g, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_apply_generator_2d_quadratic():
    domain = DomainSpec("box", ((-2.0, 2.0), (-2.0, 2.0)))
    a = lambda p: np.diag([1.0, 2.0])
    b = lambda p: np.array([0.5, -0.5])
    spec = GeneratorSpec(2, a, b, domain)
    f = lambda p: p[0] ** 2 + p[0] * p[1]
    # exact: 2*a11 + b1*(2x + y) + b2*x at (0.3, 0.1)
    val = apply_generator(spec, f, np.array([0.3, 0.1]))
    exact = 2.0 + 0.5 * (0.6 + 0.1) - 0.5 * 0.3
    assert val == pytest.approx(exact, abs=1e-6)


# a rotated anisotropic OU on a box: a = R diag(1, 0.2) R^T, R the rotation by
# pi/6, b(x) = -x; its invariant density is exp(-x^T a^-1 x / 2)
_C, _S = math.cos(math.pi / 6), math.sin(math.pi / 6)
ROTATED_A = np.array([[_C, -_S], [_S, _C]]) @ np.diag([1.0, 0.2]) @ np.array([[_C, _S],
                                                                            [-_S, _C]])
BOX_2D = DomainSpec("box", ((-4.0, 4.0), (-4.0, 4.0)))
POINTS_2D = [(0.3, 0.1), (1.2, -0.7), (-2.0, 1.5), (3.1, 2.2)]


def ou_2d(a):
    return GeneratorSpec(2, lambda p: a, lambda p: -np.asarray(p), BOX_2D)


def test_nd_adjoint_annihilates_the_rotated_ou_invariant():
    inv = np.linalg.inv(ROTATED_A)
    rho = lambda p: np.exp(-p @ inv @ p / 2)
    for pt in POINTS_2D:
        assert abs(apply_formal_adjoint(ou_2d(ROTATED_A), rho, pt)) <= 1e-9


def test_nd_apply_generator_of_a_callable_is_fourth_order():
    f = lambda p: math.sin(p[0]) * math.cos(2 * p[1])
    for x, y in POINTS_2D:
        grad = np.array([math.cos(x) * math.cos(2 * y), -2 * math.sin(x) * math.sin(2 * y)])
        hess = np.array([[-math.sin(x) * math.cos(2 * y), -2 * math.cos(x) * math.sin(2 * y)],
                         [-2 * math.cos(x) * math.sin(2 * y), -4 * math.sin(x) * math.cos(2 * y)]])
        exact = np.sum(ROTATED_A * hess) - np.dot([x, y], grad)
        assert apply_generator(ou_2d(ROTATED_A), f, (x, y)) == pytest.approx(exact, abs=1e-9)


def test_nd_apply_generator_of_an_expression_is_exact():
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    f = CE("x1^2*x2 + exp(x2)", 2)
    for x, y in POINTS_2D[:3]:
        hess = np.array([[2 * y, 2 * x], [2 * x, math.exp(y)]])
        exact = np.sum(a * hess) - np.dot([x, y], [2 * x * y, x * x + math.exp(y)])
        assert apply_generator(ou_2d(a), f, (x, y)) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("pt", [(4.0 - 1e-4, 0.5), (0.5, -4.0 + 1e-4)])
def test_nd_stencil_needs_room(pt):
    with pytest.raises(InsufficientSmoothness):
        apply_generator(ou_2d(ROTATED_A), lambda p: math.sin(p[0] + p[1]), pt)


def _counted(f):
    """f, and the list of the points it has been called at."""
    reads = []
    return (lambda p: reads.append(p) or f(p)), reads


def test_point_rule_reads_each_stencil_line_once():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    f, reads = _counted(np.sin)
    apply_generator(spec, f, 0.3)
    assert len(reads) == 5
    f, reads = _counted(lambda p: math.sin(p[0]) * math.cos(2 * p[1]))
    apply_generator(ou_2d(ROTATED_A), f, (0.3, 0.1))
    assert len(reads) == 13  # the centre, then the two axes and their sum
    rho, reads = _counted(lambda x: np.exp(-x**2 / 2))
    apply_formal_adjoint(spec, rho, 0.3)
    assert len(reads) == 6  # rho at the point, then one stencil line


@pytest.mark.parametrize("call", [
    lambda spec: apply_generator(spec, Polynomial([0.0, 0.0, 1.0]), (0.3, 0.4)),
    lambda spec: apply_generator(spec, lambda p: np.array([p[0], p[1]]), (0.3, 0.4)),
], ids=["polynomial", "vector-callable"])
def test_a_test_function_must_map_a_point_to_one_number(call):
    # a numpy polynomial maps the point vector to one value per coordinate
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: np.array([1.0, 2.0]),
                         DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(ShapeError, match="test function must map a point to one number"):
        call(spec)


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


def test_a_density_must_map_a_point_to_one_number():
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: np.array([1.0, 2.0]),
                         DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(ShapeError, match=r"^the density must map a point to one number"):
        apply_formal_adjoint(spec, lambda p: np.array([p[0], p[1]]), (0.3, 0.4))


def _line_by_hand(f, x, v, h):
    """The 4th-order first and second derivatives of f along v at x."""
    p2, p1, m1, m2, c = (f(x + t * h * v) for t in (2, 1, -1, -2, 0))
    return ((-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h),
            (-p2 + 16 * p1 - 30 * c + 16 * m1 - m2) / (12 * h * h))


def test_point_rule_is_bitwise_the_five_point_formulas():
    spec, _ = catalog_example("ornstein-uhlenbeck")  # a = 1, b = -x
    d1, d2 = _line_by_hand(np.sin, 0.3, 1.0, 1e-3)
    assert apply_generator(spec, np.sin, 0.3) == d2 + -0.3 * d1
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    f = lambda p: math.sin(p[0]) * math.cos(2 * p[1])
    pt, e = np.array([1.2, -0.7]), np.eye(2)
    h = 1e-3 * 1.2
    (g1, d11), (g2, d22) = (_line_by_hand(f, pt, v, h) for v in e)
    d12 = (_line_by_hand(f, pt, e[0] + e[1], h)[1] - d11 - d22) / 2
    expected = np.sum(a * np.array([[d11, d12], [d12, d22]])) + np.dot(-pt, [g1, g2])
    assert apply_generator(ou_2d(a), f, pt) == expected


# ---------------------------------------------------------------------------
# formal adjoint and stationarity residual
# ---------------------------------------------------------------------------

def test_adjoint_annihilates_catalog_equilibria():
    spec, rho = catalog_example("appendix2a", 1.0)
    for x in [-3.0, 0.1, 2.5]:
        assert apply_formal_adjoint(spec, rho.rho_fn, x) == pytest.approx(0.0, abs=1e-10)


def test_adjoint_gaussian_equilibrium():
    spec, _ = catalog_example("ornstein-uhlenbeck")
    assert apply_formal_adjoint(spec, CE("exp(-x^2/2)"), 1.3) == pytest.approx(0.0, abs=1e-12)


def test_adjoint_pure_diffusion_is_second_derivative():
    spec = line_spec("1", "0", -5, 5, "full-line")
    assert apply_formal_adjoint(spec, CE("x^2"), 0.7) == pytest.approx(2.0, abs=1e-10)


def test_adjoint_stencil_needs_room_in_1d():
    spec, _ = catalog_example("ornstein-uhlenbeck")  # on [-8, 8]
    with pytest.raises(InsufficientSmoothness):
        apply_formal_adjoint(spec, lambda x: np.exp(-x**2 / 2), 8 - 1e-7)


def test_adjoint_reads_a_through_the_sampler():
    spec = line_spec("ln(x - 2)", "0", -1, 1, "box")
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange, match=r"^a = nan at point 0 \(x = \[0\.3\]\) is not finite$"):
        apply_formal_adjoint(spec, CE("1"), 0.3)


def test_nd_adjoint_of_an_expression_is_exact():
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: np.zeros(2), BOX_2D)
    assert apply_formal_adjoint(spec, CE("x1^3 + x2^3", 2), (1.0, 1.0)) == 12.0


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


def test_nd_formal_adjoint_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    c = sympy.Rational(3, 10)
    a = [[1 + x**2, c], [c, 2]]
    b = [-x, x - 2 * y]
    rho = sympy.exp(-(x**2 + y**2) / 2)
    xs = (x, y)
    exact = sympy.lambdify(xs, sum(sympy.diff(a[i][j] * rho, xs[i], xs[j])
                                   for i in range(2) for j in range(2))
                           - sum(sympy.diff(b[i] * rho, xs[i]) for i in range(2)))
    spec = GeneratorSpec(2, lambda p: np.array([[1 + p[0] ** 2, 0.3], [0.3, 2.0]]),
                         lambda p: np.array([-p[0], p[0] - 2 * p[1]]),
                         DomainSpec("box", ((-3.0, 3.0), (-3.0, 3.0))))
    for pt in [(0.3, 0.1), (-1.1, 0.7), (0.0, 0.0)]:
        value = apply_formal_adjoint(spec, lambda p: np.exp(-(p[0] ** 2 + p[1] ** 2) / 2), pt)
        assert value == pytest.approx(float(exact(*pt)), abs=1e-6)


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
    # adjoint(phi * rho0) = rho0 (Z phi - H_i dphi) + phi adjoint(rho0), nodewise
    spec, rho = catalog_example("appendix2a", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 201)
    req = rho.on_grid(grid)
    Hi = compute_Hi(spec, rho, grid)
    phi = CE("exp(-(x-1)^2/4)")
    dphi = phi.derivative()
    rfn = rho.rho_fn
    prod = CE(f"({phi.text})*({rfn.text})")
    for i in range(20, 181, 16):
        x = grid.x[i]
        lhs = apply_formal_adjoint(spec, prod, x)
        rhs = (req[i] * (apply_generator(spec, phi, x) - Hi[i] * dphi(x))
               + phi(x) * apply_formal_adjoint(spec, rfn, x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


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


# ---------------------------------------------------------------------------
# discrete duality of the two operators
# ---------------------------------------------------------------------------

def test_adjoint_duality_bound():
    # the defect integrand is an exact flux derivative of a decaying
    # function, so the sums agree far inside the C*dx^2 budget
    spec, _ = catalog_example("appendix2a", 1.0)
    f = CE("exp(-(x-1)^2/2)")
    phi = CE("exp(-(x+1)^2/2)")
    for n in [101, 201, 401]:
        grid = kb.Grid.from_domain(spec.domain, n)
        xs = grid.x[2:-2]
        dx = grid.x[1] - grid.x[0]
        zf = np.array([apply_generator(spec, f, x) for x in xs])
        zphi = np.array([apply_formal_adjoint(spec, phi, x) for x in xs])
        defect = abs(np.sum(phi(xs) * zf) * dx - np.sum(zphi * f(xs)) * dx)
        assert defect <= dx**2
