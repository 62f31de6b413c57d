"""``BandMatrix`` against the scipy objects a Q-matrix used to be.

``build_qmatrix`` used to assemble COO triplets of the positive neighbour
rates and the whole diagonal and convert them to CSR; ``DiscreteGenerator``
used ``csr_matrix`` of the dense input.  On every 1-D catalog chain (both
schemes, both walls), the chain-2d benchmark chain, ``scenarios/
absorbing.json`` and a dense chain, the bands give those CSR arrays (as
``conftest.band_csr`` builds them from ``entries()``), nnz, products, row
sums and P = I + Q/lambda bit for bit.
"""

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import kinbench.semigroup as sg
from kinbench.bands import BandMatrix
from kinbench.discretize import (
    DiscreteGenerator,
    Grid,
    _axis_rates,
    _exact_row_pair,
    _sample_coefficients,
    build_qmatrix,
)
from kinbench.generator import CATALOG_NAMES, catalog_example
from kinbench.serialize import load_generator

from conftest import band_csr, toarray

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _coo_assembly(spec, grid, scheme):
    """Q as a COO -> CSR assembly: the positive rates of each axis at its
    node stride, then the whole diagonal, with the rates of ``build_qmatrix``."""
    a, b = _sample_coefficients(spec, grid)
    shape, n = grid.shape, grid.size
    idx = np.arange(n)
    multi = np.unravel_index(idx, shape)
    on_wall = np.any([(k == 0) | (k == size - 1) for k, size in zip(multi, shape)], axis=0)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for ax, k in enumerate(multi):
        dxs = np.diff(grid.axes[ax])
        hm = np.where(k > 0, dxs[np.maximum(k - 1, 0)], np.nan)
        hp = np.where(k < shape[ax] - 1, dxs[np.minimum(k, dxs.size - 1)], np.nan)
        q_m, q_p = _axis_rates(a[:, ax], b[:, ax], hm, hp, scheme)
        if spec.domain.boundary_condition == "absorbing":
            q_m[on_wall] = 0.0
            q_p[on_wall] = 0.0
        if grid.ndim == 1:
            q_m, q_p, diag = _exact_row_pair(q_m, q_p)
        else:
            diag -= q_m + q_p
        stride = int(np.prod(shape[ax + 1:]))
        for q, step in ((q_m, -stride), (q_p, stride)):
            sel = q > 0
            rows.append(idx[sel])
            cols.append(idx[sel] + step)
            vals.append(q[sel])
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _catalog(name, scheme, wall):
    spec, _ = catalog_example(name)
    spec = dataclasses.replace(spec, domain=dataclasses.replace(spec.domain,
                                                                boundary_condition=wall))
    return spec, Grid.from_domain(spec.domain, 101), scheme


def _chain2d():
    path = ROOT / "benchmarks" / "chain2d.py"
    module_spec = importlib.util.spec_from_file_location("chain2d", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return (*module.make_chain(), "exponential-fitting")


def _absorbing():
    doc = json.loads((ROOT / "scenarios" / "absorbing.json").read_text())
    spec, _ = load_generator(doc["generator"])
    return spec, Grid.from_domain(spec.domain, doc["grid"]["n"]), "exponential-fitting"


def _dense_chain(n=40):
    rng = np.random.default_rng(7)
    Q = np.where(rng.uniform(size=(n, n)) < 0.3, rng.uniform(0.0, 2.0, size=(n, n)), 0.0)
    Q[3] = 0.0  # an absorbing state: its zero diagonal is not stored
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _assert_bitwise(qm, ref):
    Q, n = qm.Q, qm.size
    csr = band_csr(Q)
    assert Q.nnz == ref.nnz == csr.nnz
    assert np.array_equal(csr.indptr, ref.indptr)
    assert np.array_equal(csr.indices, ref.indices)
    assert np.array_equal(_bits(csr.data), _bits(ref.data))
    rng = np.random.default_rng(1)
    v, block = rng.standard_normal(n), rng.standard_normal((n, 5))
    lam = sg._uniformization(qm, 1.0, 1e-9).lam
    P = sg._stochastic(Q, lam)
    P_ref = sp.identity(n, format="csr") + ref / lam
    Pt_ref = sp.identity(n, format="csr") + ref.T.tocsr() / lam
    pairs = [
        (Q @ v, ref @ v),
        (Q.T @ v, ref.T @ v),
        (Q @ block, ref @ block),
        (Q @ np.ones(n), ref @ np.ones(n)),  # the row sums maximum_principle_check takes
        (toarray(Q), ref.toarray()),
        (toarray(P), P_ref.toarray()),
        (P @ v, P_ref @ v),
        (sg._stochastic(Q.T, lam) @ v, Pt_ref @ v),
    ]
    pairs += [(Q.diagonal(k), ref.diagonal(k)) for k in range(-n + 1, n, max(n // 7, 1))]
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape
        assert np.array_equal(_bits(mine), _bits(theirs))
    i, j = rng.integers(0, n, size=(2, 50))
    assert np.array_equal(Q[i, j], np.asarray(ref[i, j]).ravel())


@pytest.mark.parametrize("wall", ["no-flux", "absorbing"])
@pytest.mark.parametrize("scheme", ["exponential-fitting", "upwind"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_1d_catalog_bands_are_bitwise_the_csr(name, scheme, wall):
    spec, grid, scheme = _catalog(name, scheme, wall)
    qm = build_qmatrix(spec, grid, scheme)
    assert qm.Q.offsets.tolist() == [-1, 0, 1]
    _assert_bitwise(qm, _coo_assembly(spec, grid, scheme))


def test_chain2d_bands_are_bitwise_the_csr():
    spec, grid, scheme = _chain2d()
    qm = build_qmatrix(spec, grid, scheme)
    assert qm.Q.offsets.tolist() == [-41, -1, 0, 1, 41]
    assert qm.Q.nnz == 8241
    _assert_bitwise(qm, _coo_assembly(spec, grid, scheme))


def test_absorbing_scenario_stores_its_zero_diagonal():
    spec, grid, scheme = _absorbing()
    qm = build_qmatrix(spec, grid, scheme)
    ref = _coo_assembly(spec, grid, scheme)
    assert qm.Q.nnz == 599 and np.count_nonzero(ref.data) == 597
    rows, cols, vals = qm.Q.entries()
    assert [(int(r), float(v)) for r, c, v in zip(rows, cols, vals) if v == 0.0] == \
        [(0, -0.0), (200, -0.0)]
    assert all(np.signbit(vals[vals == 0.0]))
    _assert_bitwise(qm, ref)


def test_dense_chain_bands_are_bitwise_the_csr():
    dense = _dense_chain()
    qm = DiscreteGenerator(dense)
    assert qm.Q.offsets.size <= 2 * qm.size - 1
    assert qm.Q.diagonal()[3] == 0.0
    _assert_bitwise(qm, sp.csr_matrix(dense))


def test_sparse_input_sums_its_duplicates():
    coo = sp.coo_matrix(([-1.0, 0.5, 0.5, 2.0, -2.0], ([0, 0, 0, 1, 1], [0, 1, 1, 0, 1])),
                        shape=(2, 2))
    Q = BandMatrix.from_matrix(coo)
    assert np.array_equal(toarray(Q), [[-1.0, 1.0], [2.0, -2.0]])
    assert Q.nnz == 4
    T = BandMatrix.from_entries(coo.row, coo.col, coo.data, 2)
    assert np.array_equal(T.offsets, Q.offsets) and np.array_equal(_bits(T.bands), _bits(Q.bands))


def test_transpose_keeps_the_stored_diagonal():
    spec, grid, scheme = _absorbing()
    Q = build_qmatrix(spec, grid, scheme).Q
    assert Q.T.nnz == Q.nnz
    assert np.array_equal(toarray(Q.T), toarray(Q).T)
    assert np.array_equal(_bits(Q.T.T.bands), _bits(Q.bands))
