"""Lattice assembly: structure, Hermiticity, sparsity, quadrature consistency."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from enslat import (
    DimensionMismatch,
    DisorderDistribution,
    EnsembleSpec,
    LatticeBasis,
    LatticeOperator,
    PolynomialCoupling,
    TableTooShort,
    boundary_shell,
    build_general,
    build_linear,
    gauss_rule,
    load_triplets,
    orthonormal_values,
    recurrence_analytic,
    recurrence_table,
    save_triplets,
    table_orders,
)
from enslat.dynamics import _Boxes
from conftest import dimer_spec, qubit_spec


# ---------------------------------------------------------------------------
# basis bookkeeping
# ---------------------------------------------------------------------------

def test_basis_flat_index_roundtrip_exhaustive():
    basis = LatticeBasis(3, (2, 3))
    seen = set()
    for n in range(3):
        for k1 in range(3):
            for k2 in range(4):
                flat = basis.flat_index(n, (k1, k2))
                assert basis.unflatten(flat) == (n, (k1, k2))
                seen.add(flat)
    assert seen == set(range(basis.size))


def test_basis_roundtrip_random(rng):
    basis = LatticeBasis(4, (7, 5, 3))
    for _ in range(200):
        flat = int(rng.integers(basis.size))
        n, multi = basis.unflatten(flat)
        assert basis.flat_index(n, multi) == flat


def test_origin_is_node_zero():
    basis = LatticeBasis(2, (4, 4))
    assert basis.flat_index(0, (0, 0)) == 0
    assert basis.flat_index(1, (0, 0)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda l: st.tuples(*[st.integers(0, 6)] * l)),
       st.integers(1, 3), st.tuples(*[st.integers(0, 4)] * 3))
def test_basis_layout_by_shell(depths, n, extra):
    basis = LatticeBasis(n, depths)
    multi = basis.node_multi_indices()
    shells = multi.sum(axis=1)
    # shells sum_i k_i never decrease along the nodes, so every box is a
    # prefix, and box r holds the N * #{K : sum_i k_i <= r} entries of its ball
    assert np.all(np.diff(shells) >= 0)
    grid = list(itertools.product(*map(range, basis.shape)))
    if min(depths) >= 1:
        boxes = _Boxes(LatticeOperator(basis.size, lambda: [(np.arange(basis.size),) * 2
                                                            + (np.ones(basis.size),)]), basis)
        for r in range(sum(depths) + 2):
            assert boxes.rows(r) == n * sum(sum(k) <= r for k in grid)
    # a grown lattice keeps the nodes through shell min_i D_i over the axes
    # that grow, and no further: shell m + 1 gains (m + 1) e_i on such an axis
    grown = LatticeBasis(n, [d + e for d, e in zip(depths, extra)])
    m = min((d for d, e in zip(depths, extra) if e), default=sum(depths))
    kept = np.count_nonzero(shells <= m)
    assert np.array_equal(grown.node_multi_indices()[:kept], multi[:kept])
    if grown.depths != basis.depths:
        assert (np.count_nonzero(grown.node_multi_indices().sum(axis=1) == m + 1)
                > np.count_nonzero(shells == m + 1))
    # the origin is node 0; in 1-D node k is k_1
    assert basis.node_index((0,) * basis.l) == 0
    if basis.l == 1:
        assert np.array_equal(multi[:, 0], np.arange(depths[0] + 1))
    # every multi-index of the box once, and flat_index / unflatten invert each other
    assert sorted(map(tuple, multi)) == grid
    assert np.array_equal(basis.node_index(multi), np.arange(basis.node_count))
    for flat in range(basis.size):
        a, k = basis.unflatten(flat)
        assert basis.flat_index(a, k) == flat
    # the boundary shell is exactly the nodes with some k_i = D_i
    if min(depths) >= 1:
        want = [basis.flat_index(a, k) for k in map(tuple, multi) for a in range(n)
                if any(ki == d for ki, d in zip(k, depths))]
        assert sorted(boundary_shell(basis)) == sorted(want)


# ---------------------------------------------------------------------------
# linear assembly
# ---------------------------------------------------------------------------

def test_qubit_chain_structure():
    # node energies (E0, E1 + alpha_k) and hops sigma*sqrt(k+1) on |1> only
    sigma = 0.7
    spec = qubit_spec(DisorderDistribution.gaussian(sigma), e0=0.25, e1=1.0)
    d = 6
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table], [d])
    h = op.to_dense()
    basis = LatticeBasis(2, (d,))
    for k in range(d + 1):
        assert h[basis.flat_index(0, (k,)), basis.flat_index(0, (k,))] == 0.25
        assert h[basis.flat_index(1, (k,)), basis.flat_index(1, (k,))] == 1.0
    for k in range(d):
        i, j = basis.flat_index(1, (k,)), basis.flat_index(1, (k + 1,))
        assert abs(h[i, j] - sigma * np.sqrt(k + 1)) < 1e-15
        assert h[basis.flat_index(0, (k,)), basis.flat_index(0, (k + 1,))] == 0.0


def test_zero_coupling_is_block_diagonal():
    h0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 1.0]])
    spec = EnsembleSpec(h0, (PolynomialCoupling.linear(np.zeros((2, 2))),),
                        (DisorderDistribution.gaussian(1.0),))
    table = recurrence_analytic(spec.distributions[0], 9)
    op = build_linear(spec, [table], [8])
    h = op.to_dense()
    expected = np.kron(np.eye(9), h0)
    assert np.abs(h - expected).max() < 1e-15


def test_block_count_chain():
    # l=1, depth D: D+1 on-node blocks plus D hop blocks
    spec = qubit_spec(DisorderDistribution.uniform(1.0), e0=0.5, e1=1.5)
    d = 11
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table], [d])
    up = sp.triu(op.csr, format="coo")
    node_pairs = {(int(r) // 2, int(c) // 2) for r, c in zip(up.row, up.col)}
    on_node = {p for p in node_pairs if p[0] == p[1]}
    hops = node_pairs - on_node
    assert len(on_node) == d + 1
    assert len(hops) == d
    assert all(b == a + 1 for a, b in hops)


def test_dimer_lattice_matches_quadrature_oracle():
    """Entry-wise check of the assembled blocks against direct integrals.

    Independent oracle: f^{(k,k')} = sum_q w_q (c * x_q) phi_k(x_q) phi_k'(x_q)
    from a high-order Gauss rule, evaluated for every block of a small 2-D
    gaussian dimer lattice.
    """
    sigma = 0.8
    spec = dimer_spec(1.5, 0.9, 0.3, sigma)
    d = 3
    table = recurrence_table(spec.distributions[0], 40)
    op = build_linear(spec, [table, table], (d, d))
    h = op.to_dense()
    basis = LatticeBasis(2, (d, d))

    x, w = gauss_rule(table, 30)
    phi = orthonormal_values(table, x, d)
    lam_int = np.einsum("q,kq,mq->km", w * x, phi, phi)   # <lambda phi_k phi_m>

    for k1 in range(d + 1):
        for k2 in range(d + 1):
            for q1 in range(d + 1):
                for q2 in range(d + 1):
                    blk = np.array([[h[basis.flat_index(a, (k1, k2)),
                                       basis.flat_index(b, (q1, q2))]
                                     for b in range(2)] for a in range(2)])
                    want = np.zeros((2, 2), complex)
                    if (k1, k2) == (q1, q2):
                        want += spec.h0
                    if k2 == q2:
                        want[0, 0] += lam_int[k1, q1]     # site-1 projector, axis 1
                    if k1 == q1:
                        want[1, 1] += lam_int[k2, q2]     # site-2 projector, axis 2
                    assert np.abs(blk - want).max() < 1e-12, (k1, k2, q1, q2)


def test_hop_amplitudes_per_axis():
    sigma = 0.8
    spec = dimer_spec(1.5, 0.9, 0.3, sigma)
    d = 4
    table = recurrence_analytic(spec.distributions[0], d + 1)
    h = build_linear(spec, [table, table], (d, d)).to_dense()
    basis = LatticeBasis(2, (d, d))
    for k in range(d):
        i = basis.flat_index(0, (k, 2))
        j = basis.flat_index(0, (k + 1, 2))
        assert abs(h[i, j] - sigma * np.sqrt(k + 1)) < 1e-14
        i = basis.flat_index(1, (2, k))
        j = basis.flat_index(1, (2, k + 1))
        assert abs(h[i, j] - sigma * np.sqrt(k + 1)) < 1e-14


def test_build_linear_errors():
    spec = qubit_spec(DisorderDistribution.gaussian(1.0))
    short = recurrence_analytic(spec.distributions[0], 4)
    with pytest.raises(TableTooShort):
        build_linear(spec, [short], [8])
    with pytest.raises(DimensionMismatch):
        build_linear(spec, [short, short], [3])


def test_hermiticity_random_specs(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h0 = 0.5 * (a + a.conj().T)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = 0.5 * (b + b.conj().T)
        spec = EnsembleSpec(h0, (PolynomialCoupling.linear(c),),
                            (DisorderDistribution.uniform(0.9),))
        table = recurrence_analytic(spec.distributions[0], 7)
        h = build_linear(spec, [table], [6]).to_dense()
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_nearest_neighbour_sparsity(rng):
    # no entry may connect nodes whose multi-indices differ by more than one
    spec = dimer_spec(1.0, 0.5, 0.2, 0.6)
    d = 5
    table = recurrence_analytic(spec.distributions[0], d + 1)
    op = build_linear(spec, [table, table], (d, d))
    basis = LatticeBasis(2, (d, d))
    multi = basis.node_multi_indices()
    up = sp.triu(op.csr, format="coo")
    src = multi[up.row // 2]
    dst = multi[up.col // 2]
    assert int(np.abs(src - dst).sum(axis=1).max()) <= 1


def test_no_duplicate_triplets():
    spec = dimer_spec(1.0, 0.5, 0.2, 0.6)
    table = recurrence_analytic(spec.distributions[0], 5)
    op = build_linear(spec, [table, table], (4, 4))
    up = sp.triu(op.csr, format="coo")
    keys = up.row.astype(np.int64) * op.dim + up.col
    assert np.unique(keys).size == keys.size


def test_spectral_containment_uniform():
    # chain spectrum stays within the union of realization spectra, up to
    # small truncation-edge effects
    v = 1.0
    spec = qubit_spec(DisorderDistribution.uniform(v), e0=0.0, e1=1.0)
    d = 50
    table = recurrence_analytic(spec.distributions[0], d + 1)
    h = build_linear(spec, [table], [d]).to_dense()
    eigs = np.linalg.eigvalsh(h)
    cnorm = 1.0    # ||diag(0, 1)||
    lo = 0.0 - v * cnorm
    hi = 1.0 + v * cnorm
    pad = 1e-2 * (hi - lo)
    assert eigs.min() >= lo - pad and eigs.max() <= hi + pad


# ---------------------------------------------------------------------------
# general (polynomial / tabulated) assembly
# ---------------------------------------------------------------------------

def test_general_degree_one_equals_linear():
    spec = qubit_spec(DisorderDistribution.gaussian(0.9), e0=0.2, e1=1.3)
    d = 6
    poly_spec = EnsembleSpec(
        spec.h0,
        (PolynomialCoupling((np.zeros((2, 2)), spec.couplings[0].matrices[1])),),
        spec.distributions)
    table = recurrence_analytic(spec.distributions[0], 2 * d)
    h_lin = build_linear(spec, [table], [d]).to_dense()
    h_gen = build_general(poly_spec, [table], [d]).to_dense()
    assert np.abs(h_lin - h_gen).max() < 1e-12


def test_general_quadratic_coupling_values():
    # lambda^2 coupling with a unit gaussian: f^{(0,0)} = second moment = 1,
    # f^{(0,2)} = <lambda^2 phi_2> = sqrt(2)  (monic He_2 = x^2 - 1, zeta_2 = 2)
    dist = DisorderDistribution.gaussian(1.0)
    spec = EnsembleSpec(np.zeros((1, 1)),
                        (PolynomialCoupling((np.zeros((1, 1)), np.zeros((1, 1)),
                                             np.ones((1, 1)))),),
                        (dist,))
    d = 4
    table = recurrence_analytic(dist, 12)
    h = build_general(spec, [table], [d]).to_dense()
    assert abs(h[0, 0] - 1.0) < 1e-12
    assert abs(h[0, 2] - np.sqrt(2.0)) < 1e-12
    # degree-2 band: nothing beyond |k - k'| = 2
    assert abs(h[0, 3]) == 0.0 and abs(h[0, 4]) == 0.0
    assert np.abs(h - h.conj().T).max() < 1e-14


def test_general_band_structure():
    dist = DisorderDistribution.uniform(1.0)
    deg = 3
    mats = tuple(np.ones((1, 1)) * c for c in (0.1, -0.4, 0.25, 0.7))
    spec = EnsembleSpec(np.zeros((1, 1)), (PolynomialCoupling(mats),), (dist,))
    d = 8
    table = recurrence_analytic(dist, 2 * d)
    op = build_general(spec, [table], [d])
    up = sp.triu(op.csr, format="coo")
    assert int(np.abs(up.col - up.row).max()) <= deg


def test_general_quadrature_validation():
    dist = DisorderDistribution.uniform(1.0)
    spec = EnsembleSpec(np.zeros((1, 1)),
                        (PolynomialCoupling((np.zeros((1, 1)), np.ones((1, 1)))),),
                        (dist,))
    need = table_orders(spec, [8])[0]
    assert need == 9
    with pytest.raises(TableTooShort):
        build_general(spec, [recurrence_analytic(dist, need - 1)], [8])
    build_general(spec, [recurrence_analytic(dist, need)], [8])


def test_tabulated_coupling_matches_polynomial():
    # tabulate f(lambda) = 0.3 - 0.5 lambda^2 exactly; the fit recovers the
    # polynomial and the builds agree within the reported residual
    dist = DisorderDistribution.uniform(1.0)
    lam = np.linspace(-1, 1, 41)
    vals = (0.3 - 0.5 * lam ** 2)[:, None, None] * np.ones((1, 1))
    tab_spec = EnsembleSpec(np.zeros((1, 1)),
                            (PolynomialCoupling.fit(lam, vals, 4),), (dist,))
    poly_spec = EnsembleSpec(np.zeros((1, 1)),
                             (PolynomialCoupling((0.3 * np.ones((1, 1)),
                                                  np.zeros((1, 1)),
                                                  -0.5 * np.ones((1, 1)))),), (dist,))
    d = 5
    table = recurrence_analytic(dist, 24)
    op_tab = build_general(tab_spec, [table], [d])
    op_pol = build_general(poly_spec, [table], [d])
    resid = tab_spec.couplings[0].fit_residual
    assert resid < 1e-13
    assert np.abs(op_tab.to_dense() - op_pol.to_dense()).max() < max(1e-12, 10 * resid)
    assert poly_spec.couplings[0].fit_residual is None      # exact, not fitted
    with pytest.raises(ValueError, match="fit degree must be non-negative"):
        PolynomialCoupling.fit(lam, vals, -1)


def _quadrature_operator(spec, tables, depths):
    """Dense lattice operator from blocks F[k, k'] = sum_q w_q f(x_q) phi_k(x_q) phi_k'(x_q).

    A Gauss rule of depth + degree + 1 points integrates every block exactly.
    """
    n = spec.n
    nodes = [d + 1 for d in depths]
    h = np.kron(np.eye(int(np.prod(nodes))), spec.h0)
    for i, (c, t, d) in enumerate(zip(spec.couplings, tables, depths)):
        x, w = gauss_rule(t, d + c.degree + 1)
        phi = orthonormal_values(t, x, d)
        f = sum(m[:, :, None] * x ** p for p, m in enumerate(c.matrices))   # (n, n, Q)
        blocks = np.einsum("kq,abq,mq->kamb", phi, f * w, phi)             # (D+1, n, D+1, n)
        before, after = int(np.prod(nodes[:i])), int(np.prod(nodes[i + 1:]))
        h = h + np.einsum("jJ,kamb,lL->jklaJmLb", np.eye(before), blocks,
                          np.eye(after)).reshape(h.shape)
    return h


_FAMILIES = {
    "gaussian": DisorderDistribution.gaussian,
    "uniform": DisorderDistribution.uniform,
    "semicircle": DisorderDistribution.semicircle,
    "cut-gaussian": lambda w: DisorderDistribution.gaussian(w, cutoff=(-2.5 * w, 2.0 * w)),
}


@st.composite
def _polynomial_specs(draw):
    n = draw(st.integers(1, 3))
    l = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def hermitian():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        keep = rng.random((n, n)) < 0.7          # some entries exactly zero
        return 0.5 * (a + a.conj().T) * (keep & keep.T)

    couplings = tuple(PolynomialCoupling(tuple(hermitian() for _ in range(draw(st.integers(1, 4)) + 1)))
                      for _ in range(l))
    dists = tuple(_FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))](
        draw(st.floats(0.3, 2.0))) for _ in range(l))
    depths = tuple(draw(st.integers(0, 7 if l == 1 else 4)) for _ in range(l))
    return EnsembleSpec(hermitian(), couplings, dists), depths


@settings(max_examples=40, deadline=None)
@given(_polynomial_specs())
def test_general_blocks_match_quadrature(case):
    # exact Jacobi-matrix blocks against Gauss quadrature of the same integrals
    spec, depths = case
    tables = [recurrence_table(dist, d + c.degree + 1)
              for dist, c, d in zip(spec.distributions, spec.couplings, depths)]
    h = build_general(spec, tables, depths).to_dense()
    # the reference is laid out row-major: take its rows and columns in node order
    basis = LatticeBasis(spec.n, depths)
    row_major = np.ravel_multi_index(tuple(basis.node_multi_indices().T), basis.shape)
    flat = (row_major[:, None] * spec.n + np.arange(spec.n)).ravel()
    ref = _quadrature_operator(spec, tables, depths)[np.ix_(flat, flat)]
    assert np.abs(h - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    # beyond the band, along one axis or across two, entries are exactly zero
    multi = np.repeat(basis.node_multi_indices(), spec.n, axis=0)
    gap = np.abs(multi[:, None, :] - multi[None, :, :])
    degrees = np.array([c.degree for c in spec.couplings])
    band = ((gap > 0).sum(axis=-1) <= 1) & np.all(gap <= degrees, axis=-1)
    assert np.all(h[~band] == 0)


# ---------------------------------------------------------------------------
# boundary shell and serialization
# ---------------------------------------------------------------------------

def test_boundary_shell_chain():
    basis = LatticeBasis(2, (10,))
    idx = boundary_shell(basis, 1)
    assert sorted(idx) == [basis.flat_index(n, (10,)) for n in range(2)]


def test_boundary_shell_2d():
    basis = LatticeBasis(2, (3, 3))
    idx = boundary_shell(basis, 1)
    # multi-indices with k1 = 3 or k2 = 3: 7 nodes x 2 states
    assert idx.size == 7 * 2


def test_boundary_shell_full_width():
    basis = LatticeBasis(1, (4,))
    idx = boundary_shell(basis, 4)
    assert idx.size == basis.size - 1          # everything except K = 0


def test_boundary_shell_validation():
    basis = LatticeBasis(1, (4,))
    with pytest.raises(ValueError):
        boundary_shell(basis, 0)
    with pytest.raises(ValueError):
        boundary_shell(basis, 5)


def test_operator_rejects_imaginary_diagonal():
    from enslat import NotHermitian
    with pytest.raises(NotHermitian):
        LatticeOperator(2, lambda: [(np.array([0]), np.array([0]), np.array([1.0 + 1e-10j]))])
    with pytest.raises(ValueError):
        LatticeOperator(2, lambda: [(np.array([1]), np.array([0]), np.array([1.0 + 0j]))])


def test_triplet_dump_is_byte_stable(tmp_path):
    # the upper triangle in (row, col) order, nodes by shell sum_i k_i: the
    # dump of the max_i k_i layout, every index relabelled by its multi-index
    spec = dimer_spec(1.5, 0.9, 0.3, 0.8)
    op = build_general(spec, [recurrence_analytic(spec.distributions[0], 5)] * 2, (3, 4))
    path = tmp_path / "op.txt"
    save_triplets(op, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dd58b9c460ef6b890ae834e4d47e444598426032b4da68b4e6a0af1c190d5c17")


def test_assembly_memory_is_a_few_operators():
    # the operator is filled block by block: the entries are never all held
    # beside the matrix, and the matrix is all the operator keeps
    spec = EnsembleSpec(np.zeros((1, 1)), (PolynomialCoupling.linear(np.eye(1)),) * 2,
                        (DisorderDistribution.semicircle(1.0),) * 2)
    depths = (300, 300)
    tables = [recurrence_table(dist, order)
              for dist, order in zip(spec.distributions, table_orders(spec, depths))]
    tracemalloc.start()
    try:
        op = build_general(spec, tables, depths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = op.csr.data.nbytes + op.csr.indices.nbytes + op.csr.indptr.nbytes
    assert peak < 4 * csr_bytes
    assert list(vars(op)) == ["csr"]


def test_triplet_file_roundtrip(tmp_path):
    spec = qubit_spec(DisorderDistribution.gaussian(1.0), e0=0.5, e1=1.5)
    table = recurrence_analytic(spec.distributions[0], 5)
    op = build_linear(spec, [table], [4])
    path = tmp_path / "op.txt"
    save_triplets(op, path)
    header = path.read_text().splitlines()[0]
    assert header == f"{op.dim} {sp.triu(op.csr).nnz}"
    back = load_triplets(path)
    assert back.dim == op.dim
    assert np.abs(back.to_dense() - op.to_dense()).max() < 1e-15
