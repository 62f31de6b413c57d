import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

import kinbench as kb
from kinbench.htheorem import _GTH_RESCALE
from kinbench.pawula import PawulaCertificate

settings.register_profile(
    "kinbench",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kinbench")


@pytest.fixture
def two_state():
    return kb.DiscreteGenerator([[-1.0, 1.0], [1.0, -1.0]])


class Setup:
    def __init__(self, name, alpha, n, scheme="exponential-fitting"):
        self.spec, self.rho = kb.catalog_example(name, alpha)
        self.grid = kb.Grid.from_domain(self.spec.domain, n)
        self.Q = kb.build_qmatrix(self.spec, self.grid, scheme)
        self.x = self.grid.x
        self.w = self.grid.weights()


@pytest.fixture(scope="session")
def ou400():
    return Setup("ornstein-uhlenbeck", None, 400)


@pytest.fixture(scope="session")
def a2a401():
    return Setup("appendix2a", 1.0, 401)


@pytest.fixture(scope="session")
def a2a201():
    return Setup("appendix2a", 1.0, 201)


@pytest.fixture(scope="session")
def a2b400():
    return Setup("appendix2b", 1.0, 400)


def gaussian_measure(x, center, sigma):
    v = np.exp(-((x - center) ** 2) / (2 * sigma**2))
    return v / v.sum()


# readers of the CLI's artifacts: the package writes them, only tests read them back

def read_csv_columns(path):
    """Parse one of the CSV artifacts back into float columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {name: [] for name in header}
        for line in fh:
            for name, tok in zip(header, line.strip().split(",")):
                cols[name].append(float(tok))
    return {k: np.asarray(v) for k, v in cols.items()}


def reject_json_constant(name):
    """``json.loads`` hook: NaN and Infinity are not RFC 8259 JSON."""
    raise ValueError(f"{name} is not RFC 8259 JSON")


def read_qmatrix(path_matrix, size):
    rows, cols, vals = [], [], []
    with open(path_matrix) as fh:
        for line in fh:
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def toarray(Q):
    """A ``BandMatrix`` as a dense array, each band added into zeros as scipy's
    ``toarray`` adds the stored entries, so a stored -0.0 reads +0.0 there too."""
    n = Q.shape[0]
    A = np.zeros((n, n))
    flat = A.reshape(-1)
    for part, rows, cols in Q._spans:
        flat[rows.start * n + cols.start::n + 1][:part.size] += part
    return A


def band_csr(Q):
    """A ``BandMatrix``'s stored entries as a scipy CSR matrix, the reference
    the band products are checked against."""
    rows, cols, vals = Q.entries()
    indptr = np.searchsorted(rows, np.arange(Q.shape[0] + 1))
    return sp.csr_matrix((vals, cols, indptr), shape=Q.shape)


def dense_gth(A):
    """GTH elimination on a dense irreducible rate matrix (Grassmann, Taksar
    and Heyman 1985), the reference for ``solve_invariant``'s banded one.

    It eliminates from the last state down and back-substitutes from
    pi_0 = 1, dividing by the power of two _GTH_RESCALE whenever an entry
    exceeds it; O(m^3) time and a dense m x m copy of A.
    """
    A = np.array(A, dtype=float)
    m = A.shape[0]
    if m == 1:
        return np.ones(1)
    s = np.zeros(m)
    for n in range(m - 1, 0, -1):
        s[n] = A[n, :n].sum()
        assert s[n] > 0, "GTH hit a non-communicating state"
        A[:n, :n] += np.outer(A[:n, n], A[n, :n]) / s[n]
    pi = np.zeros(m)
    pi[0] = 1.0
    for n in range(1, m):
        pi[n] = float(pi[:n] @ A[:n, n]) / s[n]
        if pi[n] > _GTH_RESCALE:
            pi[:n + 1] /= _GTH_RESCALE
    return pi / pi.sum()


def assert_matches_dense_gth(pi, A, rtol=1e-13):
    """pi has dense GTH's zero pattern and agrees with it entrywise to rtol."""
    ref = dense_gth(A)
    assert np.array_equal(pi == 0.0, ref == 0.0)
    live = ref != 0.0
    assert np.max(np.abs(pi[live] - ref[live]) / ref[live], initial=0.0) <= rtol


def certificate_from_dict(d):
    multi = d.get("multi_index")
    return PawulaCertificate(
        x0=d["x0"] if d.get("dimension", 1) == 1 else tuple(d["x0"]),
        epsilon=float(d["epsilon"]),
        amplitude=float(d["amplitude"]),
        order=int(d["order"]),
        value=float(d["value"]),
        validity_radius=math.inf if d["validity_radius"] is None else float(d["validity_radius"]),
        dimension=int(d.get("dimension", 1)),
        multi_index=tuple(tuple(p) for p in multi) if multi else None,
    )
