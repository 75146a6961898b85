from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkms.coeff import CoefficientElement
from ntkms.product_system import (
    AffineToeplitzSystem,
    BUILTIN_SYSTEMS,
    CuntzSystem,
    ModuleVector,
    TorusDilationSystem,
    get_system,
)
from ntkms.semigroup import TruncationSet

AFFINE = AffineToeplitzSystem()
TORUS2 = TorusDilationSystem(2)
CUNTZ = CuntzSystem(2)

ALL = [AFFINE, TorusDilationSystem(1), TORUS2, CUNTZ]


def small_fibers(system, count=4):
    sg = system.semigroup
    vals = sg.enumerate_values(8)
    out = [v for v in vals if system.basis_count(v) <= 9]
    return out[:count] if len(out) >= count else out


def random_vector(rng, system, s, span=3):
    coords = []
    mons = system.generator_monomials() + [system.engine.unit()]
    for _ in range(system.basis_count(s)):
        if rng.random() < 0.5:
            coords.append(CoefficientElement.zero(system.engine))
        else:
            mon = rng.choice(mons)
            w = complex(rng.randint(-span, span), rng.randint(-span, span))
            coords.append(CoefficientElement.monomial(system.engine, mon, w))
    return ModuleVector(system, s, tuple(coords))


# -- factory ---------------------------------------------------------------


def test_factory_knows_every_builtin():
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        assert system.semigroup.name in ("nat-mult", "nat-add")
    assert get_system("lattice-dilation", d=3).params == {"d": 3}
    assert get_system("cuntz", k=5).params == {"k": 5}
    with pytest.raises(ValueError):
        get_system("affine-toeplitz", d=2)
    with pytest.raises(ValueError):
        get_system("no-such-system")


# -- index maps --------------------------------------------------------------


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_index_map_bijective_and_split_inverse(system):
    sg = system.semigroup
    for s in small_fibers(system):
        for r in small_fibers(system):
            sr = sg.mul(s, r)
            if system.basis_count(sr) > 512:
                continue
            seen = set()
            for j in range(system.basis_count(s)):
                for k in range(system.basis_count(r)):
                    i = system.index_map(s, r, j, k)
                    assert 0 <= i < system.basis_count(sr)
                    assert i not in seen
                    seen.add(i)
                    assert system.index_split(s, r, i) == (j, k)
            assert len(seen) == system.basis_count(sr)
            # the maps act elementwise on index grids and leave them alone
            grid = np.indices((system.basis_count(s), system.basis_count(r)))
            j, k = grid.copy()
            i = system.index_map(s, r, j, k)
            assert (j == grid[0]).all() and (k == grid[1]).all()
            scalar = [[system.index_map(s, r, a, b) for b in range(k.shape[1])]
                      for a in range(j.shape[0])]
            assert i.tolist() == scalar
            before = i.copy()
            sj, sk = system.index_split(s, r, i)
            assert (i == before).all()
            assert (sj == j).all() and (sk == k).all()


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_index_map_associative(system):
    sg = system.semigroup
    fibers = small_fibers(system, count=3)
    for s in fibers:
        for r in fibers:
            for t in fibers:
                if system.basis_count(sg.mul(sg.mul(s, r), t)) > 512:
                    continue
                for j in range(system.basis_count(s)):
                    for k in range(system.basis_count(r)):
                        for l in range(system.basis_count(t)):
                            left = system.index_map(sg.mul(s, r), t,
                                                    system.index_map(s, r, j, k), l)
                            right = system.index_map(s, sg.mul(r, t), j,
                                                     system.index_map(r, t, k, l))
                            assert left == right


# -- left actions against the symbolic transfer oracle -------------------------


def test_affine_left_action_matches_symbolic_reduction():
    """L_s(a)[nu, j] must be the transfer of S*^nu a S^j, computed here
    by shifting basis indices of the one-sided shift directly."""
    eng = AFFINE.engine
    for s in (2, 3, 4):
        for m in range(4):
            for n in range(4):
                for nu in range(s):
                    for j in range(s):
                        # S*^nu S^m S*^n S^j acting on e_(s p) lands on
                        # e_(j - n + m - nu + s p) when p clears the dips
                        got = AFFINE.left_entry(s, (m, n), nu, j)
                        if (m - n + j - nu) % s != 0:
                            assert got is None
                            continue
                        assert got is not None
                        a, b = got
                        assert eng.check(got) == got
                        # degree transfers: s * (a - b) == m - n + j - nu
                        assert s * (a - b) == (m - n) + (j - nu)


def test_affine_transfer_oracle_small_cases():
    assert AFFINE.transfer_monomial(2, (2, 0)) == (1, 0)
    assert AFFINE.transfer_monomial(2, (3, 1)) == (2, 1)
    assert AFFINE.transfer_monomial(2, (1, 0)) is None
    assert AFFINE.transfer_monomial(3, (4, 1)) == (2, 1)
    assert AFFINE.transfer_monomial(5, (0, 0)) == (0, 0)


def test_torus_left_action_is_translation_of_digits():
    for s in (2, 3):
        for nu in range(TORUS2.basis_count(s)):
            for j in range(TORUS2.basis_count(s)):
                got = TORUS2.left_entry(s, (1, -1), nu, j)
                gj, gn = TORUS2._digits(s, j), TORUS2._digits(s, nu)
                shifted = (1 + gj[0] - gn[0], -1 + gj[1] - gn[1])
                if all(x % s == 0 for x in shifted):
                    assert got == tuple(x // s for x in shifted)
                else:
                    assert got is None


def test_cuntz_left_action_is_diagonal():
    for s in (1, 2, 3):
        n = CUNTZ.basis_count(s)
        for nu in range(n):
            for j in range(n):
                got = CUNTZ.left_entry(s, (), nu, j)
                assert got == (() if nu == j else None)


# -- module products ------------------------------------------------------------


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_module_product_associative(system):
    rng = Random(5)
    fibers = small_fibers(system, count=3)
    for trial in range(8):
        s, r, t = (rng.choice(fibers) for _ in range(3))
        sg = system.semigroup
        if system.basis_count(sg.mul(sg.mul(s, r), t)) > 729:
            continue
        x = random_vector(rng, system, s)
        y = random_vector(rng, system, r)
        z = random_vector(rng, system, t)
        left = system.module_product(system.module_product(x, y), z)
        right = system.module_product(x, system.module_product(y, z))
        assert left == right


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_basis_vectors_orthonormal(system):
    for s in small_fibers(system):
        for j in range(system.basis_count(s)):
            for k in range(system.basis_count(s)):
                inner = system.basis_vector(s, j).inner(system.basis_vector(s, k))
                if j == k:
                    assert inner == CoefficientElement.unit(system.engine)
                else:
                    assert inner.is_zero()


def test_inner_product_is_conjugate_linear_in_first_slot():
    rng = Random(11)
    for s in (2, 3):
        x = random_vector(rng, AFFINE, s)
        y = random_vector(rng, AFFINE, s)
        lhs = x.scale(2j).inner(y)
        rhs = x.inner(y).scale(-2j)
        assert lhs == rhs


def test_left_action_is_star_homomorphism_spot():
    eng = AFFINE.engine
    a = CoefficientElement.monomial(eng, (1, 0), 1.0) + CoefficientElement.monomial(
        eng, (0, 2), 2.0
    )
    b = CoefficientElement.monomial(eng, (1, 1), 1.5)
    for s in (2, 3):
        la = AFFINE.left_matrix(s, a)
        lb = AFFINE.left_matrix(s, b)
        assert la.matmul(lb) == AFFINE.left_matrix(s, a * b)
        assert la.adjoint() == AFFINE.left_matrix(s, a.adjoint())


# -- validation -------------------------------------------------------------------


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_validation_passes(system):
    if not system.semigroup.is_multiplicative:
        bound = 5
    elif getattr(system, "d", 1) >= 2:
        bound = 4  # fibers grow like s^d, keep the triple scan small
    else:
        bound = 8
    report = system.validate(TruncationSet(system.semigroup, bound))
    assert report.ok, report.first_failure()
    names = [c.name for c in report.checks]
    assert "index-map-bijective" in names
    assert "index-map-associative" in names
    assert "left-action-unital" in names


def test_corrupted_system_fails_associativity_with_witness():
    bad = AFFINE.corrupted(2, 2, (0, 1), (1, 0))
    # the swap stays bijective but breaks the mixed associativity law
    report = bad.validate(TruncationSet(bad.semigroup, 6))
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["index-map-bijective"].passed
    failure = by_name["index-map-associative"]
    assert not failure.passed
    assert failure.witness == {"s": 2, "r": 2, "q": 2, "j": 0, "k": 0, "l": 1,
                               "lhs": 4, "rhs": 2}
    assert by_name["left-action-coherent"].witness == {
        "s": 2, "r": 2, "a": "(1+0j)*S", "nu": 0, "j": 0, "u": 1, "k": 0}
    # the coherence scan runs over (j, nu, k, u); this swap breaks two cells
    other = AFFINE.corrupted(2, 2, (0, 0), (0, 1))
    report = other.validate(TruncationSet(other.semigroup, 4))
    by_name = {c.name: c for c in report.checks}
    assert by_name["left-action-coherent"].witness == {
        "s": 2, "r": 2, "a": "(1+0j)*S", "nu": 1, "j": 0, "u": 0, "k": 0}


class _AddedIndices(AffineToeplitzSystem):
    def index_map(self, s, r, j, k):
        return j + k


class _FoldedIndices(AffineToeplitzSystem):
    def index_map(self, s, r, j, k):
        return j + s * (k % 2) if r > 2 else j + s * k


class _ShiftedIndices(AffineToeplitzSystem):
    def index_map(self, s, r, j, k):
        return j + s * k + 1


@pytest.mark.parametrize("system, witness", [
    (_AddedIndices(), {"s": 2, "r": 2, "j": 0, "k": 1, "split": (1, 0)}),
    (_FoldedIndices(), {"s": 1, "r": 3, "j": 0, "k": 2, "value": 0, "clash": (0, 0)}),
    (_ShiftedIndices(), {"s": 1, "r": 1, "j": 0, "k": 0, "value": 1, "clash": None}),
], ids=["split", "clash", "out-of-range"])
def test_non_bijective_index_map_names_the_first_bad_pair(system, witness):
    report = system.validate(TruncationSet(system.semigroup, 6))
    check = next(c for c in report.checks if c.name == "index-map-bijective")
    assert not check.passed
    assert check.witness == witness


def test_corrupted_split_still_inverts_map():
    bad = AFFINE.corrupted(2, 3, (0, 1), (1, 2))
    for j in range(2):
        for k in range(3):
            i = bad.index_map(2, 3, j, k)
            assert bad.index_split(2, 3, i) == (j, k)


def test_coprime_pair_scan_clean_on_builtins():
    for system in ALL:
        ok, witness, pairs = system.check_coprime_pairs(
            TruncationSet(system.semigroup, 6)
        )
        assert ok, witness
        if system.semigroup.is_multiplicative:
            assert pairs >= 1  # nat-add is a chain, nothing nontrivial to scan
        else:
            assert pairs == 0
