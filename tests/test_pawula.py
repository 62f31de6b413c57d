import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import kinbench as kb
from kinbench.errors import (
    InsufficientSmoothness,
    NoViolationAtPoint,
    OrderTooLow,
    ParameterOutOfRange,
    PreconditionViolated,
    ShapeError,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.pawula import (
    TruncatedOperator,
    apply_operator,
    cube_test,
    maximum_principle_check,
    pawula_counterexample,
    second_order_sign_check,
)


# ---------------------------------------------------------------------------
# discrete maximum principle
# ---------------------------------------------------------------------------

def test_max_principle_symmetric_chain():
    assert maximum_principle_check(np.array([[-1.0, 1.0], [1.0, -1.0]])).passed


def test_max_principle_asymmetric_chain():
    assert maximum_principle_check(np.array([[-1.0, 1.0], [2.0, -2.0]])).passed


def test_max_principle_central_differencing_fails():
    # 3-node central scheme for pure drift b=1: negative west coefficient
    dx = 1.0
    Q = np.zeros((3, 3))
    Q[1, 0] = -1.0 / (2 * dx)
    Q[1, 2] = 1.0 / (2 * dx)
    rep = maximum_principle_check(Q)
    assert not rep.passed
    assert rep.worst_entry[2] == pytest.approx(-0.5)


def test_max_principle_shape_error():
    with pytest.raises(ShapeError):
        maximum_principle_check(np.zeros((2, 3)))


def test_max_principle_holds_for_assembled_chains(a2a201):
    assert maximum_principle_check(a2a201.Q).passed


def _dense_max_principle(dense):
    """Dense reference: first row-major off-diagonal argmin, dense row sums."""
    off = dense.copy()
    np.fill_diagonal(off, np.inf)
    i, j = np.unravel_index(np.argmin(off), off.shape)
    min_off = float(off[i, j]) if dense.shape[0] > 1 else 0.0
    max_rs = float(np.max(np.abs(dense.sum(axis=1))))
    return (min_off >= -1e-12 and max_rs <= 1e-10, min_off, max_rs,
            (int(i), int(j), min_off))


_FULL = np.random.default_rng(5).uniform(0.1, 1.0, size=(5, 5))
np.fill_diagonal(_FULL, 0.0)
np.fill_diagonal(_FULL, -_FULL.sum(axis=1))


# Rows stay shorter than numpy's 8-wide pairwise block, so dense and CSR
# row sums add the same numbers in the same order.
@pytest.mark.parametrize("dense", [
    np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.25, 0.25, -0.5]]),  # tied minima
    np.array([[-1.0, 0.5, 0.5], [0.0, -1.0, 1.0], [0.0, 2.0, -2.0]]),  # tied implicit zeros
    np.array([[0.0, 0.0, 0.0], [-0.5, 0.0, 0.5], [0.0, -0.5, 0.5]]),  # negative entries
    np.array([[0.0]]),
    np.array([[3.0]]),
    _FULL,  # no implicit zeros
], ids=["ties", "zero-ties", "negative", "n1", "n1-rowsum", "full"])
def test_max_principle_csr_matches_dense_reference(dense):
    ref = _dense_max_principle(dense)
    for form in (dense, sp.csr_matrix(dense), sp.coo_matrix(dense).tocsc()):
        rep = maximum_principle_check(form)
        assert (rep.passed, rep.min_offdiag, rep.max_abs_rowsum, rep.worst_entry) == ref


def test_max_principle_sums_duplicates_and_reads_explicit_zeros():
    # (1, 0) is stored twice, summing to -0.25; (0, 2) is an explicit zero
    Q = sp.coo_matrix(([-1.0, 1.0, 0.0, 0.25, -0.5, 0.25], ([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 0, 2])),
                      shape=(3, 3))
    rep = maximum_principle_check(Q)
    assert rep.worst_entry == (1, 0, -0.25) and not rep.passed
    assert rep == maximum_principle_check(Q.toarray())


# ---------------------------------------------------------------------------
# counterexample construction
# ---------------------------------------------------------------------------

def test_certificate_matches_hand_computation():
    op = TruncatedOperator(3, {2: 1.0, 3: 1.0})
    cert = pawula_counterexample(op, 0.0, epsilon=0.1, amplitude=0.1)
    assert cert.value == pytest.approx(0.4, rel=1e-12)
    assert cert.validity_radius == pytest.approx(1.0, rel=1e-12)
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.all(cert.g(xs) <= 1e-15)


def test_certificate_default_amplitude_even_order():
    op = TruncatedOperator(4, {4: -1.0})
    cert = pawula_counterexample(op, 0.0)
    assert cert.amplitude < 0
    assert cert.value == pytest.approx(24 * abs(cert.amplitude), rel=1e-12)
    assert math.isinf(cert.validity_radius)  # -|a| u^2 (u^2 - eps/|a|)... <= 0 everywhere


def test_certificate_reevaluates_through_apply_path():
    op = TruncatedOperator(3, {2: lambda x: 1 + x**2, 3: lambda x: np.cos(x)})
    cert = pawula_counterexample(op, 0.5)
    val = apply_operator(op, cert.polynomial(), 0.5)
    assert val == pytest.approx(cert.value, rel=1e-9)


def test_certificate_local_maximum():
    op = TruncatedOperator(5, {2: 2.0, 5: 1.0})
    cert = pawula_counterexample(op, 1.0)
    d = min(cert.validity_radius, 1.0) / 7
    assert cert.g(np.array([1.0]))[0] == 0.0
    assert cert.g(np.array([1.0 - d]))[0] < 0
    assert cert.g(np.array([1.0 + d]))[0] < 0


def test_order_too_low():
    with pytest.raises(OrderTooLow):
        pawula_counterexample(TruncatedOperator(2, {2: 1.0}), 0.0)


def test_no_violation_where_leading_term_vanishes():
    op = TruncatedOperator(3, {2: 1.0, 3: lambda x: x})
    with pytest.raises(NoViolationAtPoint):
        pawula_counterexample(op, 0.0)
    assert pawula_counterexample(op, 0.5).value >= 1.0  # away from the zero it is witnessed


def test_bad_amplitude_rejected():
    op = TruncatedOperator(3, {3: 1.0})
    with pytest.raises(PreconditionViolated):
        pawula_counterexample(op, 0.0, amplitude=-1.0)


def test_zeroth_order_term_rejected():
    with pytest.raises(PreconditionViolated):
        TruncatedOperator(2, {0: 1.0, 2: 1.0})


def test_nd_mixed_certificate():
    # third-order mixed term in two dimensions
    op = TruncatedOperator(3, {(2, 1): 1.0, (2, 0): 1.0, (0, 2): 1.0},
                           dimension=2)
    cert = pawula_counterexample(op, np.array([0.0, 0.0]))
    assert cert.value > 0
    assert cert.multi_index == ((0, 2), (1, 1))
    assert 0 < cert.validity_radius < np.inf
    # witness is nonpositive on sampled directions within the radius
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((200, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = 0.9 * cert.validity_radius * dirs
    assert np.all(cert.g(pts) <= 1e-12)


@pytest.mark.parametrize("multi, coeff", [
    ((2, 1), 1.0),
    ((1, 1, 1), 1.0),
    ((3, 1), -1.0),
    ((1, 2), 1.0),
    ((1, 1, 1, 1, 1), 1.0),
])
def test_nd_validity_radius_is_exact_along_the_peak_direction(multi, coeff):
    n, k = len(multi), sum(multi)
    x0 = 0.25 * np.arange(1, n + 1)
    cert = pawula_counterexample(TruncatedOperator(k, {multi: coeff}, dimension=n), x0)
    r = cert.validity_radius
    # |d^a| peaks on the unit sphere at d_i^2 = a_i/k; flip one odd axis
    # if needed so that A d^a > 0 there
    d = np.sqrt(np.array(multi) / k)
    if cert.amplitude * np.prod(d ** np.array(multi)) < 0:
        d[next(i for i, a in enumerate(multi) if a % 2)] *= -1
    assert cert.g(x0 + 0.9999 * r * d) <= 0
    assert cert.g(x0 + 1.0001 * r * d) > 0


def test_nd_even_multi_index_with_negative_amplitude_has_infinite_radius():
    cert = pawula_counterexample(TruncatedOperator(4, {(2, 2): -1.0}, dimension=2),
                                 np.zeros(2))
    assert cert.amplitude < 0
    assert math.isinf(cert.validity_radius)
    pts = np.random.default_rng(1).uniform(-50.0, 50.0, (500, 2))
    assert np.all(cert.g(pts) <= 0)


def test_coefficient_keys_are_multi_indices():
    op = TruncatedOperator(3, {2: 1.0, (3,): 2.0})
    assert set(op.coefficients) == {(2,), (3,)}
    assert op.coefficient(3)(0.0) == op.coefficient((3,))(0.0) == 2.0
    for bad in ({3: 1.0}, {(1, 1, 1): 1.0}):
        with pytest.raises(PreconditionViolated):
            TruncatedOperator(3, bad, dimension=2)


@pytest.mark.parametrize("key, dimension", [((-1, 4), 2), (-1, 1), ((3, -2, 1), 3)])
def test_negative_multi_index_entry_is_rejected(key, dimension):
    with pytest.raises(PreconditionViolated, match="negative entry"):
        TruncatedOperator(3, {key: 1.0}, dimension=dimension)


# ---------------------------------------------------------------------------
# apply_operator: exact partials per multi-index, in every dimension
# ---------------------------------------------------------------------------

def test_apply_operator_of_expression_is_exact():
    x = 0.7
    got = [apply_operator(TruncatedOperator(k, {k: 1.0}), CE("exp(2*x)"), x) for k in (1, 2, 3)]
    assert got == pytest.approx([2.0**k * math.exp(1.4) for k in (1, 2, 3)], rel=1e-15)


def test_apply_operator_of_polynomial_is_exact():
    x = 0.7
    p = Polynomial([1.0, -2.0, 0.5, 3.0])
    exact = [-2 + x + 9 * x**2, 1 + 18 * x, 18.0, 0.0]
    got = [apply_operator(TruncatedOperator(k, {k: 1.0}), p, x) for k in (1, 2, 3, 4)]
    assert got == pytest.approx(exact, rel=1e-15, abs=0)


def test_apply_operator_takes_mixed_partials_in_2d():
    op = TruncatedOperator(3, {(2, 1): 1.0}, dimension=2)
    assert apply_operator(op, CE("x1^2*x2", 2), (0.3, 0.4)) == 2.0


def _witness_expression(cert):
    """The n-D witness polynomial of a certificate as a compiled expression."""
    u = [f"(x{i + 1} - ({float(c)!r}))" for i, c in enumerate(cert.x0)]
    mono = "*".join(f"{u[i]}^{a}" for i, a in cert.multi_index)
    square = " + ".join(f"{v}^2" for v in u)
    return CE(f"({cert.amplitude!r})*{mono} - ({cert.epsilon!r})*({square})", cert.dimension)


def test_2d_certificate_reevaluates_through_apply_path():
    op = TruncatedOperator(3, {(2, 1): lambda p: 1 + p[0] ** 2, (2, 0): 1.0, (0, 2): 0.5},
                           dimension=2)
    cert = pawula_counterexample(op, (0.3, -0.2))
    val = apply_operator(op, _witness_expression(cert), cert.x0)
    assert val == pytest.approx(cert.value, rel=1e-12)


def test_apply_operator_refuses_a_callable_without_exact_partials():
    op = TruncatedOperator(4, {3: 1.0, 4: 0.5})
    with pytest.raises(InsufficientSmoothness, match="CompiledExpression"):
        apply_operator(op, np.sin, 0.3)
    with pytest.raises(InsufficientSmoothness):
        cube_test(op, np.sin, 0.0)


def test_an_nd_operator_refuses_a_polynomial():
    op = TruncatedOperator(3, {(3, 0): 1.0}, dimension=2)
    p = Polynomial([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(InsufficientSmoothness, match=r"polynomial \(1-D\)"):
        apply_operator(op, p, (0.3, 0.4))
    with pytest.raises(InsufficientSmoothness, match=r"polynomial \(1-D\)"):
        cube_test(op, p, (0.3, 0.4))


@pytest.mark.parametrize("run, named", [
    (lambda: cube_test(TruncatedOperator(3, {3: 1.0}), CE("x^(1/3)"), 0.0),
     "partial (3,) of the test function = nan at point 0 (x = [0.0])"),
    (lambda: apply_operator(TruncatedOperator(2, {2: float("nan")}), CE("x^2"), 0.3),
     "coefficient (2,) = nan at point 0 (x = [0.3])"),
    (lambda: apply_operator(TruncatedOperator(3, {(2, 1): lambda p: math.inf}, dimension=2),
                            CE("x1^2*x2", 2), (0.3, 0.4)),
     "coefficient (2, 1) = inf at point 0 (x = [0.3, 0.4])"),
], ids=["partial", "coefficient", "2-d-coefficient"])
def test_apply_operator_names_a_non_finite_term(run, named):
    with np.errstate(all="ignore"), pytest.raises(
            ParameterOutOfRange, match=f"^{re.escape(named)} is not finite$"):
        run()


def test_pawula_scan_script_output():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "pawula_scan.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "third-order truncation:",
        "  witness g(x) = -0.1*(x - 0)^2 + 0.1*(x - 0)^3",
        "  operator value at the local maximum: 0.4 > 0",
        "  validity radius: 1",
        "  re-evaluated through the generic apply path: 0.4",
        "second-order operator with c2 = 1 + x^2: pass (min c2 sampled = 1)",
    ]


# ---------------------------------------------------------------------------
# second-order sign check and the cube characterization
# ---------------------------------------------------------------------------

def test_sign_check_catalog_examples():
    xs = np.linspace(-10, 10, 101)
    ok, worst = second_order_sign_check(
        TruncatedOperator(2, {1: lambda x: -x, 2: lambda x: 1 + x**2}), xs)
    assert ok and worst >= 1.0

    ok, worst = second_order_sign_check(TruncatedOperator(2, {2: -1.0}), xs)
    assert not ok and worst == -1.0

    xs_half = np.linspace(1e-6, 20, 101)
    ok, worst = second_order_sign_check(
        TruncatedOperator(2, {1: lambda x: 1 - x, 2: lambda x: x**2}), xs_half)
    assert ok and worst >= 0.0


def test_sign_check_generator_spec():
    # a generator is second order by construction; check_admissible judges its a
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    with pytest.raises(PreconditionViolated, match="^GeneratorSpec is not a TruncatedOperator"):
        second_order_sign_check(spec, np.linspace(-10, 10, 51))
    spec.check_admissible(np.linspace(-10, 10, 51))


def test_sign_check_names_a_non_finite_second_order_coefficient():
    op = TruncatedOperator(2, {1: CE("x"), 2: CE("ln(x)")})  # nan below 0, -inf at 0
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange,
            match=r"^second-order coefficient = nan at point 2 \(x = \[-1.0\]\) is not finite$"):
        second_order_sign_check(op, [1.0, 2.0, -1.0, 3.0])


def test_sign_check_without_points_passes():
    assert second_order_sign_check(TruncatedOperator(2, {2: -1.0}), []) == (True, math.inf)


def _second_order(name, alpha=1.0):
    """The catalog generator's a f'' + b f' as a truncated operator."""
    spec, _ = kb.catalog_example(name, alpha)
    return TruncatedOperator(2, {1: spec.b, 2: spec.a})


def test_cube_vanishes_for_ou():
    val = cube_test(_second_order("ornstein-uhlenbeck"), CE("x"), 0.0)
    assert val == 0.0


def test_cube_vanishes_for_quadratic_diffusion():
    val = cube_test(_second_order("appendix2a"), CE("exp(x) - 1"), 0.0)
    assert abs(val) <= 1e-10


def test_cube_flags_third_order_term():
    op = TruncatedOperator(3, {3: 1.0})
    val = cube_test(op, Polynomial([0.0, 1.0]), 0.0)
    assert val == pytest.approx(6.0, rel=1e-9)


def test_cube_precondition():
    with pytest.raises(PreconditionViolated, match=r"^A\(x0\) = 1 is not zero$"):
        cube_test(_second_order("ornstein-uhlenbeck"), CE("x + 1"), 0.0)


def test_cube_vanishes_for_2d_ou():
    # a = [[1, 0.3], [0.3, 0.5]] puts 2*0.3 on the mixed partial; b = -x
    op = TruncatedOperator(2, {(2, 0): 1.0, (1, 1): 0.6, (0, 2): 0.5,
                               (1, 0): CE("-x1", 2), (0, 1): CE("-x2", 2)}, dimension=2)
    assert cube_test(op, CE("x1 + 2*x2 - 0.5", 2), (0.5, 0.0)) == 0.0


def test_cube_of_a_truncated_operator_is_exact_for_expressions():
    # A = e^x - 1 gives A^3 = x^3 + 3x^4/2 + ..., so 6 + 0.5*36
    assert cube_test(TruncatedOperator(4, {3: 1.0, 4: 0.5}), CE("exp(x) - 1"), 0.0) == 24.0


def test_cube_of_a_2d_truncated_operator():
    # A linear: d^(1,2) A^3 = 6 * 1 * 2 * 2, and d^(2,0) A^3 = 6 A = 0 at the zero
    op = TruncatedOperator(3, {(1, 2): 1.0, (2, 0): 0.5}, dimension=2)
    assert cube_test(op, CE("x1 + 2*x2 - 0.5", 2), (0.5, 0.0)) == 24.0


# ---------------------------------------------------------------------------
# property batteries
# ---------------------------------------------------------------------------

@st.composite
def higher_order_ops(draw):
    k = draw(st.sampled_from([3, 4, 5]))
    c2 = draw(st.floats(-3.0, 3.0))
    ck = draw(st.one_of(st.floats(-4.0, -0.05), st.floats(0.05, 4.0)))
    x0 = draw(st.floats(-2.0, 2.0))
    return k, c2, ck, x0


@given(higher_order_ops())
def test_every_higher_order_term_is_witnessed(params):
    k, c2, ck, x0 = params
    op = TruncatedOperator(k, {2: c2, k: ck})
    cert = pawula_counterexample(op, x0)
    assert cert.value >= 1.0 - 1e-12  # default amplitude guarantees this
    val = apply_operator(op, cert.polynomial(), x0)
    assert val == pytest.approx(cert.value, rel=1e-8, abs=1e-10)


@given(st.floats(0.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_admissible_second_order_has_no_certificate(c2_floor, c1, x0):
    op = TruncatedOperator(2, {1: c1, 2: lambda x: c2_floor + x**2})
    ok, _ = second_order_sign_check(op, np.linspace(-3, 3, 31))
    assert ok
    with pytest.raises(OrderTooLow):
        pawula_counterexample(op, x0)


@given(st.floats(-1.5, 1.5), st.floats(0.1, 2.0), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0))
def test_cube_identity_random_battery(x0, a0, b0, slope):
    op = TruncatedOperator(2, {1: lambda x: b0 + 0.3 * x,
                               2: lambda x: a0 + 0.5 * math.sin(x) ** 2})
    A = Polynomial([-x0, 1.0]) * Polynomial([1.0, slope, 0.25])
    val = cube_test(op, A, x0)
    assert abs(val) <= 1e-10
