import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import kinbench as kb
import kinbench.discretize as kd
from kinbench.discretize import (
    DiscreteGenerator,
    Grid,
    _sample_coefficients,
    bernoulli_ratio,
    build_qmatrix,
)
from kinbench.errors import (
    DomainError,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    ShapeError,
    UnsupportedTensor,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import CATALOG_NAMES, DomainSpec, GeneratorSpec
from kinbench.pawula import maximum_principle_check

from conftest import toarray


def uniform_spec(a_text, b_text, lo, hi, bc="no-flux"):
    return GeneratorSpec(1, CE(a_text), CE(b_text),
                         DomainSpec("box", ((lo, hi),), bc))


def test_bernoulli_ratio_branches():
    assert bernoulli_ratio(0.0) == pytest.approx(1.0)
    assert bernoulli_ratio(1e-9) == pytest.approx(1.0 - 5e-10, rel=1e-12)
    assert bernoulli_ratio(1.0) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-12)
    assert bernoulli_ratio(-50.0) == pytest.approx(50.0, rel=1e-12)
    assert bernoulli_ratio(800.0) == 0.0  # graceful overflow limit


def test_laplacian_stencil():
    spec = uniform_spec("1", "0", 0.0, 4.0)
    Q = toarray(build_qmatrix(spec, Grid((np.linspace(0, 4, 5),))).Q)
    assert np.allclose(Q[2], [0.0, 1.0, -2.0, 1.0, 0.0], rtol=0, atol=0)


def test_pure_drift_upwind_row():
    spec = uniform_spec("0", "1", 0.0, 4.0)
    Q = toarray(build_qmatrix(spec, Grid((np.linspace(0, 4, 5),))).Q)
    assert np.allclose(Q[2], [0.0, 0.0, -1.0, 1.0, 0.0], rtol=0, atol=0)


def test_degenerate_limit_matches_tiny_diffusion():
    # rates at a = 1e-13 (fitted branch) agree with the a = 0 upwind branch
    g = Grid((np.linspace(0.0, 4.0, 5),))
    q_tiny = toarray(build_qmatrix(uniform_spec("0.0000000000001", "1", 0, 4), g).Q)
    q_zero = toarray(build_qmatrix(uniform_spec("0", "1", 0, 4), g).Q)
    assert np.allclose(q_tiny[2], q_zero[2], atol=1e-9)


def test_appendix2a_assembly_is_markov(a2a201):
    rep = maximum_principle_check(a2a201.Q)
    assert rep.passed
    assert rep.min_offdiag >= 0.0
    assert rep.max_abs_rowsum <= 1e-12


def test_row_sums_exactly_zero(a2b400):
    rs = a2b400.Q.Q @ np.ones(a2b400.Q.size)
    assert np.max(np.abs(rs)) == 0.0


def test_nonelliptic_rejected():
    spec = uniform_spec("-1", "0", 0.0, 1.0)
    with pytest.raises(NonEllipticCoefficient):
        build_qmatrix(spec, Grid((np.linspace(0, 1, 11),)))


def test_offdiagonal_tensor_rejected():
    domain = DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0)))
    a = lambda p: np.array([[1.0, 0.3], [0.3, 1.0]])
    b = lambda p: np.zeros(2)
    spec = GeneratorSpec(2, a, b, domain)
    grid = Grid.from_domain(domain, 5)
    with pytest.raises(UnsupportedTensor):
        build_qmatrix(spec, grid)


def per_node_coefficients(spec, grid):
    """The node-by-node reference for n-D sampling: each a(p) is checked for
    off-diagonal entries against max(1, max|a(p)|) before its diagonal is kept."""
    pts = grid.nodes()
    a, b = np.empty(pts.shape), np.empty(pts.shape)
    for i, p in enumerate(pts):
        amat = spec.diffusion(p)[0]
        off = amat - np.diag(np.diag(amat))
        if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(amat)))):
            raise UnsupportedTensor(f"off-diagonal entry at node {i}")
        a[i] = np.diag(amat)
        b[i] = np.asarray(spec.b(p), dtype=float).reshape(grid.ndim)
    return a, b


@pytest.mark.parametrize("shape", [(9, 7), (5, 4, 6)])
def test_nd_sampling_is_bitwise_the_per_node_loop(shape):
    dim = len(shape)
    bounds = tuple((-1.0 - k, 2.0 + 0.5 * k) for k in range(dim))

    def a(p):  # large diagonal, off-diagonal rounding below the 1e-12 scale
        return np.diag(1e6 * (1.0 + np.sin(p) ** 2)) + 1e-7 * (1.0 - np.eye(dim))

    spec = GeneratorSpec(dim, a, lambda p: np.cos(p) - p, DomainSpec("box", bounds))
    grid = Grid.from_domain(spec.domain, shape)
    got = _sample_coefficients(spec, grid)
    want = per_node_coefficients(spec, grid)
    assert all(g.tobytes() == w.tobytes() and g.shape == w.shape for g, w in zip(got, want))


def test_nd_sampling_rejects_one_off_diagonal_node():
    domain = DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0)))
    a = lambda p: np.array([[1.0, 1e-3 * (p[0] > 0.9)], [0.0, 1.0]])
    spec = GeneratorSpec(2, a, lambda p: np.zeros(2), domain)
    grid = Grid.from_domain(domain, 5)
    with pytest.raises(UnsupportedTensor):
        per_node_coefficients(spec, grid)
    with pytest.raises(UnsupportedTensor, match="off-diagonal diffusion entries"):
        _sample_coefficients(spec, grid)


def test_nd_sampling_rejects_a_scalar_diffusion():
    domain = DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0)))
    spec = GeneratorSpec(2, lambda p: 1.0, lambda p: np.zeros(2), domain)
    with pytest.raises(ShapeError):
        _sample_coefficients(spec, Grid.from_domain(domain, 5))


@pytest.mark.parametrize("a, b", [("(0.25 - x)^0.5 + 1", "0"), ("1", "(0.25 - x)^0.5")],
                         ids=["diffusion", "drift"])
def test_non_finite_coefficient_is_named_by_its_node(a, b):
    # both are nan at the nodes 0.5 and 1 of five on [-1, 1]; the first is node 3
    name = "a" if b == "0" else "b"
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange, match=rf"^{name} = nan at point 3 \(x = \[0.5\]\) is not finite$"):
        build_qmatrix(uniform_spec(a, b, -1, 1), Grid.from_domain(DomainSpec("box", ((-1, 1),)), 5))


# the ids name the wall convention the sum holds for
@pytest.mark.parametrize("scheme", ["exponential-fitting", "upwind"],
                         ids=lambda scheme: f"half-cell-{scheme}")
def test_2d_assembly_is_kronecker_sum_of_1d_chains(scheme):
    # a separable diagonal-tensor generator on a no-flux box: the 2-D chain
    # is two independent 1-D chains, so Q = Qx (+) Qy with C-order strides
    bounds = ((-2.0, 2.0), (-1.0, 3.0))
    spec2 = GeneratorSpec(2, lambda p: np.diag([1 + p[0] ** 2, 0.5 + 0.1 * p[1] ** 2]),
                          lambda p: np.array([-p[0], 1 - p[1]]), DomainSpec("box", bounds))
    Q = build_qmatrix(spec2, Grid.from_domain(spec2.domain, (9, 7)), scheme).Q
    specx = GeneratorSpec(1, lambda x: 1 + x**2, lambda x: -x, DomainSpec("box", bounds[:1]))
    specy = GeneratorSpec(1, lambda y: 0.5 + 0.1 * y**2, lambda y: 1 - y,
                          DomainSpec("box", bounds[1:]))
    Qx = build_qmatrix(specx, Grid.from_domain(specx.domain, 9), scheme).Q
    Qy = build_qmatrix(specy, Grid.from_domain(specy.domain, 7), scheme).Q
    kron_sum = np.kron(toarray(Qx), np.eye(7)) + np.kron(np.eye(9), toarray(Qy))
    assert np.max(np.abs(toarray(Q) - kron_sum)) <= 1e-14 * np.max(np.abs(kron_sum))


def qmatrix_1d_by_hand(spec, x, scheme):
    """The 1-D no-flux chain written out: half-cell walls, rates floored at
    one ulp of the opposite rate, the smaller rate of each row adjusted so
    the row sums to zero exactly.  Assumes a > 1e-14 at every node."""
    a = np.maximum(np.broadcast_to(np.asarray(spec.a(x), dtype=float), x.shape), 0.0)
    b = np.broadcast_to(np.asarray(spec.b(x), dtype=float), x.shape)
    assert a.min() > 1e-14
    h = np.diff(x)
    hm, hp = np.concatenate(([h[0]], h)), np.concatenate((h, [h[-1]]))
    span = np.concatenate(([0.0], h)) + np.concatenate((h, [0.0]))
    if scheme == "exponential-fitting":
        q_p = 2 * a / (hp * span) * bernoulli_ratio(-b * hp / a)
        q_m = 2 * a / (hm * span) * bernoulli_ratio(b * hm / a)
        q_p, q_m = np.maximum(q_p, np.spacing(q_m)), np.maximum(q_m, np.spacing(q_p))
    else:
        q_p = 2 * a / (hp * span) + np.maximum(b, 0.0) / hp
        q_m = 2 * a / (hm * span) + np.maximum(-b, 0.0) / hm
    q_m[0] = q_p[-1] = 0.0
    big, small = np.maximum(q_m, q_p), np.minimum(q_m, q_p)
    total = big + small
    total = np.where((small > 0) & (total == big), np.nextafter(big, np.inf), total)
    q_m, q_p = np.where(q_m >= q_p, big, total - big), np.where(q_m >= q_p, total - big, big)
    return np.diag(-total) + np.diag(q_p[:-1], 1) + np.diag(q_m[1:], -1)


def qmatrix_cases():
    for name in CATALOG_NAMES:
        yield pytest.param(kb.catalog_example(name, 1.0)[0], id=name)
    domain = DomainSpec("full-line", ((-8.0, 8.0),))
    yield pytest.param(GeneratorSpec(1, lambda x: 1 + 0.25 * np.asarray(x) ** 2,
                                     lambda x: -np.asarray(x), domain), id="bare")
    yield pytest.param(GeneratorSpec(1, lambda x: 1.0, lambda x: 0.5, domain), id="bare-scalar")


@pytest.mark.parametrize("scheme", ["exponential-fitting", "upwind"])
@pytest.mark.parametrize("spec", qmatrix_cases())
def test_1d_assembly_is_bitwise_the_chain_by_hand(spec, scheme):
    for n in (5, 51, 401):
        grid = Grid.from_domain(spec.domain, n)
        Q = toarray(build_qmatrix(spec, grid, scheme).Q)
        assert Q.tobytes() == qmatrix_1d_by_hand(spec, grid.x, scheme).tobytes(), n


def test_2d_diagonal_tensor_assembles():
    domain = DomainSpec("box", ((-1.0, 1.0), (-1.0, 1.0)))
    a = lambda p: np.diag([1.0, 2.0])
    b = lambda p: np.array([0.2, -0.1])
    spec = GeneratorSpec(2, a, b, domain)
    Q = build_qmatrix(spec, Grid.from_domain(domain, 7))
    rep = maximum_principle_check(Q)
    assert rep.passed
    # interior rates along axis 0 sum to ~2*a00/dx^2 (drift correction is tiny)
    dx = 2.0 / 6
    dense = toarray(Q.Q)
    center = 3 * 7 + 3
    assert dense[center, center - 7] + dense[center, center + 7] == pytest.approx(
        2 / dx**2, rel=1e-3)


def test_underflowing_exponential_fitting_rates_keep_the_chain_irreducible():
    # at x = +-1.5 the cell Peclet number |b| h / a is 2250, so B(z) underflows
    # to 0 and, unfloored, no rate would lead to the walls
    Q = build_qmatrix(uniform_spec("0.001", "-x", -3.0, 3.0), Grid((np.linspace(-3.0, 3.0, 5),)))
    dense = toarray(Q.Q)
    assert np.all(np.diag(dense, 1) > 0) and np.all(np.diag(dense, -1) > 0)
    assert np.all(dense.sum(axis=1) == 0.0)
    sol = kb.solve_invariant(Q)
    assert sol.unique and np.all(sol.pi > 0)
    # the same x-axis in 2-D goes through the banded GTH elimination, which
    # a subnormal rate would turn into an overflowing division
    domain = DomainSpec("box", ((-3.0, 3.0), (-3.0, 3.0)))
    spec = GeneratorSpec(2, lambda p: np.diag([1e-3, 1.0]), lambda p: -np.asarray(p), domain)
    sol = kb.solve_invariant(build_qmatrix(spec, Grid.from_domain(domain, 5)))
    assert sol.unique and np.all(np.isfinite(sol.pi)) and np.all(sol.pi > 0)


def test_absorbing_boundary_rows_are_zero():
    spec = uniform_spec("1", "0", 0.0, 1.0, bc="absorbing")
    Q = toarray(build_qmatrix(spec, Grid((np.linspace(0, 1, 9),))).Q)
    assert np.all(Q[0] == 0.0)
    assert np.all(Q[-1] == 0.0)


@pytest.mark.parametrize("bc", ["no-flux", "absorbing"])
def test_grid_from_axes_takes_the_domains_wall_rule(bc):
    # the rule is the domain's alone: a grid built from bare axes assembles
    # the same chain, bit for bit, as one built from the domain
    spec = uniform_spec("1 + x^2", "-x", -2.0, 3.0, bc=bc)
    x = np.linspace(-2.0, 3.0, 21)
    Q = toarray(build_qmatrix(spec, Grid((x,))).Q)
    assert np.array_equal(Q, toarray(build_qmatrix(spec, Grid.from_domain(spec.domain, 21)).Q))
    walls_empty = not Q[0].any() and not Q[-1].any()
    assert walls_empty == (bc == "absorbing")


@pytest.mark.parametrize("axes", [
    (np.linspace(0.0, 0.9, 10), np.linspace(-1.0, 1.0, 5)),           # ends inside
    (np.linspace(0.1, 1.0, 10), np.linspace(-1.0, 1.0, 5)),           # starts inside
    (np.linspace(0.0, 1.0, 10), np.linspace(-1.0, 1.5, 5)),           # passes a wall
    (np.linspace(0.0, np.nextafter(1.0, 0.0), 10), np.linspace(-1.0, 1.0, 5)),  # one ulp short
])
def test_grid_off_the_domains_walls_is_rejected_before_sampling(axes):
    calls = []

    def a(p):
        calls.append("a")
        return np.eye(2)

    def b(p):
        calls.append("b")
        return np.zeros(2)

    spec = GeneratorSpec(2, a, b, DomainSpec("box", ((0.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(DomainError, match="walls"):
        build_qmatrix(spec, Grid(axes))
    assert calls == []


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid((np.array([0.0, 1.0]),))          # too few nodes
    with pytest.raises(DomainError):
        Grid((np.array([0.0, 0.5, 0.4]),))     # not increasing
    with pytest.raises(DomainError):
        Grid((np.array([0.0, 1.0, np.inf]),))  # not finite
    with pytest.raises(DomainError):
        Grid((np.array([np.nan, 0.0, 1.0]),))  # NaN compares false to everything
    with pytest.raises(DomainError):
        DomainSpec("box", ((0.0, np.inf),))   # Grid.from_domain would give NaN nodes
    with pytest.raises(ShapeError):
        DiscreteGenerator(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="^a grid of 3 nodes does not match a chain of 2 states$"):
        DiscreteGenerator([[-1.0, 1.0], [1.0, -1.0]], grid=Grid((np.linspace(-1.0, 1.0, 3),)))


def _csr_with_duplicates(dense):
    """``dense`` as CSR with every nonzero off-diagonal v stored twice, as v + 1
    and -1, so only the summed duplicates give the matrix."""
    data, indices, indptr = [], [], [0]
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if i != j and v != 0.0:
                data += [v + 1.0, -1.0]
                indices += [j, j]
            elif v != 0.0:
                data.append(v)
                indices.append(j)
        indptr.append(len(data))
    Q = sp.csr_matrix((data, indices, indptr), shape=np.shape(dense))
    assert not Q.has_canonical_format
    return Q


_NEGATIVE_OFFDIAG = np.array([[-1.0, 1.0, 0.0], [-0.5, 0.0, 0.5], [0.0, 1.0, -1.0]])
_ROWSUM_DEFECT = np.array([[-1.0, 1.0 + 1e-9, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]])


@pytest.mark.parametrize("form", [np.asarray, _csr_with_duplicates], ids=["dense", "csr-dup"])
def test_discrete_generator_rejects_negative_offdiagonal(form):
    message = r"^negative off-diagonal -0\.5 breaks the discrete maximum principle$"
    with pytest.raises(NonEllipticCoefficient, match=message):
        DiscreteGenerator(form(_NEGATIVE_OFFDIAG))


@pytest.mark.parametrize("form", [np.asarray, _csr_with_duplicates], ids=["dense", "csr-dup"])
def test_discrete_generator_rejects_rowsum_defect(form):
    with pytest.raises(ShapeError, match=r"^row sums deviate from zero by 1e-09$"):
        DiscreteGenerator(form(_ROWSUM_DEFECT))


@pytest.mark.parametrize("form", [np.asarray, _csr_with_duplicates], ids=["dense", "csr-dup"])
def test_discrete_generator_keeps_its_maximum_principle_report(form):
    dense = np.array([[-1.0, 1.0, 0.0], [0.25, -0.5, 0.25], [0.0, 2.0, -2.0]])
    Q = DiscreteGenerator(form(dense))
    assert Q.maximum_principle == maximum_principle_check(dense)
    assert Q.maximum_principle.passed and Q.lambda_max == 2.0


@pytest.mark.parametrize("dense, named", [
    ([[np.nan, 1.0], [1.0, -1.0]], "Q[0, 0] = nan"),
    ([[-1.0, np.nan], [1.0, -1.0]], "Q[0, 1] = nan"),
    ([[-1.0, 1.0], [np.inf, -np.inf]], "Q[1, 0] = inf"),
    ([[-1.0, 1.0, 0.0], [0.0, -np.inf, np.nan], [0.0, 0.0, 0.0]], "Q[1, 1] = -inf"),
], ids=["diagonal-nan", "offdiagonal-nan", "first-of-two-inf", "row-major-first"])
def test_non_finite_entries_are_named_before_the_report(dense, named, monkeypatch):
    reports = []
    check = kd.maximum_principle_check
    monkeypatch.setattr(kd, "maximum_principle_check", lambda Q: reports.append(Q) or check(Q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(named)} is not finite$"):
            DiscreteGenerator(dense)
    assert reports == []


@pytest.mark.parametrize("Q", [[1.0, 2.0], np.zeros((2, 2, 2)), 3.0], ids=["1-d", "3-d", "scalar"])
def test_non_2d_input_reports_its_own_shape(Q):
    shape = np.shape(Q)
    with pytest.raises(ShapeError, match=f"^expected a square matrix, got shape {re.escape(str(shape))}$"):
        DiscreteGenerator(Q)


@pytest.mark.parametrize("empty", [np.zeros((0, 0)), sp.csr_matrix((0, 0))], ids=["dense", "csr"])
def test_discrete_generator_accepts_empty_matrix(empty):
    Q = DiscreteGenerator(empty)
    assert Q.size == 0 and Q.lambda_max == 0.0 and Q.maximum_principle.passed


def test_lambda_max_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        DiscreteGenerator([[-1.0, 1.0], [1.0, -1.0]], None, "raw", 99.0)


def test_trapezoid_weights_sum_to_length():
    g = Grid((np.linspace(-3.0, 5.0, 33),))
    assert g.weights().sum() == pytest.approx(8.0, rel=1e-14)


def test_adjoint_is_transpose():
    Q = DiscreteGenerator([[-1.0, 1.0], [0.0, 0.0]])
    Qt = toarray(Q.Q.T)
    assert np.array_equal(Qt, [[-1.0, 0.0], [1.0, 0.0]])


def test_adjoint_columns_conserve_mass(a2a201):
    colsums = toarray(a2a201.Q.Q.T).sum(axis=0)
    assert np.max(np.abs(colsums)) == 0.0


def test_adjoint_annihilates_sampled_equilibrium(a2a201):
    # the invariant-measure residual of the sampled analytic density is
    # bounded by the scheme truncation error
    m = a2a201.rho.on_grid(a2a201.grid) * a2a201.w
    m /= m.sum()
    res = np.max(np.abs(a2a201.Q.Q.T @ m))
    dx = a2a201.x[1] - a2a201.x[0]
    assert res <= 5.0 * dx**2


def test_duality_transpose_identity(a2a201):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(a2a201.grid.size)
    phi = rng.standard_normal(a2a201.grid.size)
    lhs = float(phi @ (a2a201.Q.Q @ f))
    rhs = float((a2a201.Q.Q.T @ phi) @ f)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("scheme, lo_order, hi_order", [
    ("exponential-fitting", 1.7, 2.3),
    ("upwind", 0.8, 1.3),
])
def test_consistency_order(scheme, lo_order, hi_order):
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    f = CE("exp(-(x-1)^2/2)")
    df, d2f = f.derivative(), f.derivative().derivative()
    errs = []
    for n in [101, 201, 401]:
        grid = Grid.from_domain(spec.domain, n)
        Q = build_qmatrix(spec, grid, scheme)
        x = grid.x
        qf = Q.Q @ f(x)
        zf = spec.a(x) * d2f(x) + spec.b(x) * df(x)
        errs.append(np.abs(qf - zf)[10:-10].max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(lo_order <= o <= hi_order for o in orders), (errs, orders)


@st.composite
def smooth_admissible(draw):
    c0 = draw(st.floats(0.0, 2.0))
    c1 = draw(st.floats(-1.5, 1.5))
    c2 = draw(st.floats(-1.5, 1.5))
    d0 = draw(st.floats(-3.0, 3.0))
    d1 = draw(st.floats(-3.0, 3.0))
    n = draw(st.integers(5, 40))
    scheme = draw(st.sampled_from(["exponential-fitting", "upwind"]))
    return c0, c1, c2, d0, d1, n, scheme


@given(smooth_admissible())
def test_assembly_always_markov(params):
    c0, c1, c2, d0, d1, n, scheme = params
    a = lambda x: c0 + (c1 + c2 * np.sin(x)) ** 2
    b = lambda x: d0 + d1 * np.asarray(x, dtype=float)
    spec = GeneratorSpec(1, a, b, DomainSpec("box", ((-2.0, 3.0),)))
    Q = build_qmatrix(spec, Grid((np.linspace(-2, 3, n),)), scheme)
    rep = maximum_principle_check(Q)
    assert rep.passed, (rep.min_offdiag, rep.max_abs_rowsum)


@st.composite
def quadratic_generators(draw):
    """a = a0 + a1 x^2 with a0 > 0, a1 >= 0; b = b0 + b1 x; n <= 41 nodes."""
    a0 = draw(st.floats(0.05, 2.0))
    a1 = draw(st.floats(0.0, 2.0))
    b0 = draw(st.floats(-3.0, 3.0))
    b1 = draw(st.floats(-3.0, 3.0))
    n = draw(st.integers(5, 41))
    scheme = draw(st.sampled_from(["exponential-fitting", "upwind"]))
    return a0, a1, b0, b1, n, scheme


@given(quadratic_generators())
def test_random_admissible_chain_is_markov_and_dissipates_entropy(params):
    a0, a1, b0, b1, n, scheme = params
    spec = GeneratorSpec(1, lambda x: a0 + a1 * np.asarray(x, dtype=float) ** 2,
                         lambda x: b0 + b1 * np.asarray(x, dtype=float),
                         DomainSpec("box", ((-3.0, 3.0),)))
    Q = build_qmatrix(spec, Grid((np.linspace(-3.0, 3.0, n),)), scheme)
    off = toarray(Q.Q)
    np.fill_diagonal(off, 0.0)
    assert off.min() >= 0.0
    assert np.all(Q.Q @ np.ones(Q.size) == 0.0)
    nu0 = np.exp(-(Q.grid.x - 1.0) ** 2)
    curve = kb.h_curve(Q, nu0 / nu0.sum(), kb.HFunctional.from_name("xlogx"),
                       np.linspace(0.0, 2.0, 9), tol=1e-12, reference=kb.solve_invariant(Q))
    assert curve.max_increase <= 1e-12, curve.H
