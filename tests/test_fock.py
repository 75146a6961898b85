"""Tests for the truncated Fock oracle.

The oracle represents normal-form elements as plain complex matrices on
a finite window of Fock fibers, with no symbolic arithmetic involved.
Agreement between matrix products and star products, and between Gibbs
diagonals and the truncated series state, is therefore independent
evidence for the normal-form engine rather than a restatement of it.

The oracle stores creation operators as index arrays and never forms a
dense product; the dense definitions live here, and the parity tests
hold the oracle to them entry for entry.
"""

import time
from pathlib import Path
from random import Random

import numpy as np
import pytest

from ntkms.coeff import CoefficientElement, haar_trace, identity_trace
from ntkms.fock import FOCK_DIMENSION_CAP, TruncatedFock
from ntkms.nt import NTElement
from ntkms.product_system import BUILTIN_SYSTEMS, AffineToeplitzSystem, CuntzSystem, get_system
from ntkms.states import KMSContext
from ntkms.verify import (
    check_fock_nica,
    check_fock_product,
    check_fock_state,
    sample_element,
    sample_vector,
)

CUNTZ = CuntzSystem(2)
DATA = Path(__file__).parent / "data"


# -- the dense definitions ------------------------------------------------------


def dense_creation_vector(fock, xi):
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for j, c in xi.entries.items():
        out += c.terms.get((), 0j) * fock.creation(xi.fiber, j)
    return out


def dense_represent(fock, y):
    """Sum over the sorted terms of l(xi) l(1_l)^*, as dense matrix products."""
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for (s, r, l), vec in y.sorted_terms():
        out += dense_creation_vector(fock, vec) @ fock.creation(r, l).conj().T
    return out


def dense_product_defect(fock, x, y):
    cols = fock.interior_columns(y)
    if not cols:
        return 0.0, 0
    lhs = dense_represent(fock, x * y)[:, cols]
    rhs = (dense_represent(fock, x) @ dense_represent(fock, y))[:, cols]
    return float(np.abs(lhs - rhs).max()), len(cols)


def dense_state_value(fock, y, beta):
    diag = np.diagonal(dense_represent(fock, y.core_expectation()))
    num = 0.0 + 0.0j
    zeta = 0.0
    for s in fock.trunc.values:
        w = fock.system.weight(s) ** (-beta)
        base = fock.offsets[s]
        n = fock.system.basis_count(s)
        num += w * complex(np.sum(diag[base : base + n]))
        zeta += w * n
    return num / zeta


@pytest.mark.parametrize("k, bound, fibers", [(2, 5, (0, 1, 2)), (3, 4, (0, 1))])
def test_oracle_matches_the_dense_definitions_exactly(k, bound, fibers):
    system = CuntzSystem(k)
    fock = TruncatedFock(system, bound)
    rng = Random(29 + k)
    for _ in range(50):
        x = sample_element(rng, system, fibers)
        y = sample_element(rng, system, fibers)
        # the commutator's terms cancel in the matrix, entry by entry
        for z in (x, x.adjoint(), x * y, x * y - y * x):
            assert np.array_equal(fock.represent(z), dense_represent(fock, z))
        assert fock.product_defect(x, y) == dense_product_defect(fock, x, y)
        assert (fock.state_value(x * y, 3.0, identity_trace())
                == dense_state_value(fock, x * y, 3.0))


def test_creation_operators_are_cached_as_index_arrays():
    fock = TruncatedFock(CUNTZ, 4)
    img = fock.image(2, 1)
    assert img.dtype.kind == "i" and img.shape == (fock.dim + 1,)
    assert img is fock.image(2, 1)
    # the dense matrix is a view built on each call, not a cached array
    assert fock.creation(2, 1) is not fock.creation(2, 1)
    mat = fock.creation(2, 1)
    cols = np.flatnonzero(img[:-1] >= 0)
    assert np.count_nonzero(mat) == len(cols) and (mat[img[cols], cols] == 1).all()


def test_fock_checks_on_cuntz_3_match_the_golden_lines():
    """Recorded with the dense oracle: the floats must not move."""
    system = CuntzSystem(3)
    fock = TruncatedFock(system, 5)
    lines = [check(fock, seed=7).json_line() + "\n"
             for check in (check_fock_product, check_fock_state, check_fock_nica)]
    assert "".join(lines) == (DATA / "fock-cuntz-3.jsonl").read_text()


def test_needs_scalar_coefficients():
    """Every builtin has a window; the four operator methods refuse a
    coefficient engine other than the scalars, through one error."""
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        fock = TruncatedFock(system, 5)
        assert fock.dim == sum(system.basis_count(s) for s in fock.trunc.values)
    affine = AffineToeplitzSystem()
    fock = TruncatedFock(affine, 4)
    shift = NTElement.embed_coeff(affine, CoefficientElement.monomial(affine.engine, (1, 0)))
    xi = affine.basis_vector(2, 0)
    calls = (lambda: fock.represent(shift), lambda: fock.product_defect(shift, shift),
             lambda: fock.rank_one_matrix(xi, xi), lambda: fock.nica_defect(xi, xi, xi, xi))
    for call in calls:
        with pytest.raises(ValueError, match="^the Fock operators need a scalar coefficient engine$"):
            call()


def test_gibbs_sum_checks_its_trace_and_exponents():
    affine = AffineToeplitzSystem()
    fock = TruncatedFock(affine, 4)
    unit = NTElement.unit(affine)
    with pytest.raises(ValueError, match="trace does not belong"):
        fock.state_value(unit, 3.0, identity_trace())
    assert fock.state_value(unit, 3.0, haar_trace(affine.engine)) == complex(1.0)
    huge = NTElement.embed_coeff(affine, CoefficientElement.monomial(affine.engine, (2**61, 0)))
    with pytest.raises(ValueError, match="2\\^61"):
        fock.state_value(huge, 3.0, haar_trace(affine.engine))


def test_dimension_bookkeeping_and_cap():
    fock = TruncatedFock(CUNTZ, 5)
    # the window {0, ..., 5} stacks fibers of size 2^n
    assert fock.dim == 63
    assert [fock.offsets[s] for s in range(6)] == [0, 1, 3, 7, 15, 31]
    assert fock.basis_index(3, 5) == 12
    assert TruncatedFock(CUNTZ, 11).dim <= FOCK_DIMENSION_CAP
    with pytest.raises(ValueError, match="cap"):
        TruncatedFock(CUNTZ, 12)


@pytest.mark.parametrize("system, bound", [(AffineToeplitzSystem(), 10**7), (CUNTZ, 10**6)],
                         ids=["affine-toeplitz", "cuntz"])
def test_an_oversized_window_is_refused_before_it_is_built(system, bound):
    # at most cap + 1 fiber ranks are read, not the window's tuple
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the cap 5000"):
        TruncatedFock(system, bound)
    assert time.perf_counter() - start < 0.1


def test_creation_matrix_agrees_with_index_map():
    fock = TruncatedFock(CUNTZ, 4)
    s, j = 2, 1
    mat = fock.creation(s, j)
    assert set(np.unique(mat)) <= {0, 1}
    for r in range(3):
        for k in range(CUNTZ.basis_count(r)):
            col = mat[:, fock.basis_index(r, k)]
            assert col[fock.basis_index(s + r, CUNTZ.index_map(s, r, j, k))] == 1
            assert np.count_nonzero(col) == 1
    # raising past the window clips to zero
    for k in range(CUNTZ.basis_count(3)):
        assert not mat[:, fock.basis_index(3, k)].any()


def image_by_fiber(fock, s, j):
    """image(s, j) built fiber by fiber, one index_map call per window fiber."""
    system = fock.system
    img = np.full(fock.dim + 1, -1)
    for r in fock.trunc.values:
        sr = system.semigroup.mul(s, r)
        if sr in fock.trunc:
            k = np.arange(system.basis_count(r))
            img[fock.offsets[r] + k] = fock.offsets[sr] + system.index_map(s, r, j, k)
    return img


@pytest.mark.parametrize("system", [
    *(get_system(name) for name in BUILTIN_SYSTEMS),
    get_system("lattice-dilation", d=2), CuntzSystem(3),
    AffineToeplitzSystem().corrupted(2, 2, (0, 1), (1, 0)),
    CUNTZ.corrupted(1, 1, (0, 0), (1, 0)),
], ids=lambda system: system.name)
def test_creation_arrays_match_the_fiber_by_fiber_construction(system):
    fock = TruncatedFock(system, 5)
    for s in fock.trunc.values:
        for j in range(system.basis_count(s)):
            img = fock.image(s, j)
            want = image_by_fiber(fock, s, j)
            assert img.dtype == want.dtype and np.array_equal(img, want), (s, j)


def test_creation_ranges_are_orthogonal():
    fock = TruncatedFock(CUNTZ, 4)
    a = fock.creation(1, 0)
    b = fock.creation(1, 1)
    assert not (a.conj().T @ b).any()
    # l(1_j)^* l(1_j) projects onto the fibers the raising keeps inside
    want = np.zeros(fock.dim)
    for r in range(4):
        base = fock.offsets[r]
        want[base : base + CUNTZ.basis_count(r)] = 1.0
    assert np.array_equal((a.conj().T @ a).real, np.diag(want))


def test_represent_matches_rank_one_lift():
    rng = Random(3)
    fock = TruncatedFock(CUNTZ, 4)
    for s in (1, 2):
        for _ in range(4):
            xi = sample_vector(rng, CUNTZ, s)
            eta = sample_vector(rng, CUNTZ, s)
            y = NTElement.embed(CUNTZ, s, xi) * NTElement.embed(CUNTZ, s, eta).adjoint()
            got = fock.represent(y)
            assert np.abs(got - fock.rank_one_matrix(xi, eta)).max() <= 1e-12


def test_adjoint_is_conjugate_transpose():
    rng = Random(5)
    fock = TruncatedFock(CUNTZ, 4)
    for _ in range(6):
        y = sample_element(rng, CUNTZ, (0, 1, 2))
        got = fock.represent(y.adjoint())
        assert np.abs(got - fock.represent(y).conj().T).max() <= 1e-14


def test_product_defect_on_interior_columns():
    rng = Random(11)
    fock = TruncatedFock(CUNTZ, 5)
    checked = 0
    for _ in range(40):
        x = sample_element(rng, CUNTZ, (0, 1, 2))
        y = sample_element(rng, CUNTZ, (0, 1, 2))
        defect, ncols = fock.product_defect(x, y)
        assert defect <= 1e-12
        checked += ncols
    assert checked > 0


def test_interior_fibers_stop_where_raising_clips():
    fock = TruncatedFock(CUNTZ, 4)
    y = NTElement.embed(CUNTZ, 2, CUNTZ.basis_vector(2, 0))
    assert fock.interior_fibers(y) == [0, 1, 2]
    assert len(fock.interior_columns(y)) == 7


def test_nica_defect_vanishes_for_the_builtin():
    rng = Random(17)
    fock = TruncatedFock(CUNTZ, 4)
    for s, r in ((1, 1), (1, 2), (2, 1)):
        xi = sample_vector(rng, CUNTZ, s)
        eta = sample_vector(rng, CUNTZ, s)
        zeta = sample_vector(rng, CUNTZ, r)
        kappa = sample_vector(rng, CUNTZ, r)
        assert fock.nica_defect(xi, eta, zeta, kappa) <= 1e-12


def test_nica_defect_needs_the_join_inside():
    fock = TruncatedFock(CUNTZ, 2)
    xi = CUNTZ.basis_vector(3, 0)
    with pytest.raises(ValueError, match="window"):
        fock.nica_defect(xi, xi, xi, xi)


def test_rank_one_data_must_share_a_fiber():
    fock = TruncatedFock(CUNTZ, 3)
    with pytest.raises(ValueError, match="fiber"):
        fock.rank_one_matrix(CUNTZ.basis_vector(1, 0), CUNTZ.basis_vector(2, 0))


def test_represent_rejects_foreign_elements():
    fock = TruncatedFock(CUNTZ, 3)
    other = CuntzSystem(3)
    with pytest.raises(ValueError, match="different"):
        fock.represent(NTElement.unit(other))


def test_gibbs_diagonal_matches_series_state():
    rng = Random(23)
    fock = TruncatedFock(CUNTZ, 5)
    for beta in (1.5, 3.0):
        ctx = KMSContext(CUNTZ, identity_trace(), beta, 5)
        # the unit is exact: numerator and normaliser are the same sum
        assert fock.state_value(NTElement.unit(CUNTZ), beta, ctx.trace) == complex(1.0)
        for _ in range(8):
            y = sample_element(rng, CUNTZ, (0, 1, 2), terms=3)
            got = fock.state_value(y, beta, ctx.trace)
            assert abs(got - ctx.kms(y).value) <= 1e-12
