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
from ntkms.semigroup import NAT_MULT, TruncationSet

AFFINE = AffineToeplitzSystem()
TORUS2 = TorusDilationSystem(2)
CUNTZ = CuntzSystem(2)

ALL = [AFFINE, TorusDilationSystem(1), TORUS2, CUNTZ]


def small_fibers(system, count=4):
    sg = system.semigroup
    vals = TruncationSet(sg, 8)
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


@pytest.mark.parametrize("name, key, value", [
    ("lattice-dilation", "d", 2.7), ("cuntz", "k", 3.9), ("lattice-dilation", "d", True),
    ("cuntz", "k", "3"),
])
def test_factory_refuses_non_integral_parameters(name, key, value):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        get_system(name, **{key: value})
    # an integral float reads as the integer, as on the command line
    assert get_system(name, **{key: 2.0}).params == {key: 2}


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


def left_cell(system, s, mon, nu, j):
    """L_s(mon)[nu, j] read off column j, as a monomial or None."""
    col = system.left_column(s, mon, j)
    return col[1] if col is not None and col[0] == nu else None


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
                        got = left_cell(AFFINE, s, (m, n), nu, j)
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
                got = left_cell(TORUS2, s, (1, -1), nu, j)
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
                got = left_cell(CUNTZ, s, (), nu, j)
                assert got == (() if nu == j else None)


def left_entry_by_reduction(system, s, mon, nu, j):
    """L_s(mon)[nu, j] from the defining reduction, one cell at a time."""
    system = getattr(system, "base", system)
    if isinstance(system, AffineToeplitzSystem):
        eng = system.engine
        return system.transfer_monomial(s, eng.mul(eng.mul((0, nu), mon), (j, 0)))
    if isinstance(system, TorusDilationSystem):
        gj, gn = system._digits(s, j), system._digits(s, nu)
        return system.transfer_monomial(s, tuple(g + a - b for g, a, b in zip(mon, gj, gn)))
    return () if nu == j else None


def sample_monomials(rng, system, count=3):
    eng = system.engine
    if eng.tag == "toeplitz":
        return [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(count)]
    if eng.tag == "laurent":
        return [tuple(rng.randint(-9, 9) for _ in range(eng.d)) for _ in range(count)]
    return []


@pytest.mark.parametrize("system", ALL + [AFFINE.corrupted(2, 2, (0, 1), (1, 0))],
                         ids=lambda s: s.name)
def test_left_column_is_the_one_nonzero_of_the_exhaustive_scan(system):
    rng = Random(17)
    mons = system.generator_monomials() + sample_monomials(rng, system)
    bound = 12 if system.semigroup.is_multiplicative else 6
    for s in TruncationSet(system.semigroup, bound):
        n = system.basis_count(s)
        for mon in mons:
            for j in range(n):
                hits = [(nu, res) for nu in range(n)
                        if (res := left_entry_by_reduction(system, s, mon, nu, j)) is not None]
                col = system.left_column(s, mon, j)
                assert hits == ([] if col is None else [col]), (s, mon, j)


def random_coeff(rng, system, terms=3):
    mons = system.generator_monomials() + [system.engine.unit()] + sample_monomials(rng, system)
    out = CoefficientElement.zero(system.engine)
    for _ in range(terms):
        w = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + CoefficientElement.monomial(system.engine, rng.choice(mons), w)
    return out


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_module_product_matches_the_dense_left_matrix(system):
    """(xi eta)[m(j, v)] = sum_k L_r(x_j)[v, k] y_k, with the sum over the
    whole matrix as reference and several entries in eta."""
    rng = Random(23)
    sg = system.semigroup
    fibers = small_fibers(system)
    for s in fibers:
        for r in fibers:
            n = system.basis_count(r)
            xi = ModuleVector(system, s, {j: random_coeff(rng, system)
                                          for j in range(system.basis_count(s))})
            eta = ModuleVector(system, r, {k: random_coeff(rng, system) for k in range(n)})
            want = {}
            for j, xc in xi.entries.items():
                for (v, k), c in system.left_matrix(r, xc).items():
                    if k in eta.entries:
                        i, y = system.index_map(s, r, j, v), c * eta.entries[k]
                        want[i] = want[i] + y if i in want else y
            assert system.module_product(xi, eta) == ModuleVector(system, sg.mul(s, r), want)
            if s == sg.identity_value and xi.entries:
                assert system.left_act(r, xi.entries[0], eta) == system.module_product(xi, eta)


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_fiber_trace_is_the_diagonal_sum_of_the_left_matrix(system):
    rng = Random(29)
    zero = CoefficientElement.zero(system.engine)
    for s in small_fibers(system):
        for _ in range(4):
            a = random_coeff(rng, system, terms=4)
            lm = system.left_matrix(s, a)
            diag = sum((lm[j, j] for j in range(system.basis_count(s)) if (j, j) in lm), zero)
            first = system.fiber_trace(s, a)
            assert first == diag
            assert system.fiber_trace(s, a) == first  # repeated calls agree


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
        product = {}
        for (i, k), x in la.items():
            for (k2, j), y in lb.items():
                if k2 == k:
                    product[i, j] = product[i, j] + x * y if (i, j) in product else x * y
        assert {key: c for key, c in product.items() if not c.is_zero()} == (
            AFFINE.left_matrix(s, a * b))
        assert {(j, i): c.adjoint() for (i, j), c in la.items()} == (
            AFFINE.left_matrix(s, a.adjoint()))


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
    assert all(c.passed for c in report), [c for c in report if not c.passed]
    names = [c.name for c in report]
    assert "structure:index-map-bijective" in names
    assert "structure:index-map-associative" in names
    assert "structure:left-action-unital" in names


def test_corrupted_system_fails_associativity_with_witness():
    bad = AFFINE.corrupted(2, 2, (0, 1), (1, 0))
    # the swap stays bijective but breaks the mixed associativity law
    report = bad.validate(TruncationSet(bad.semigroup, 6))
    assert not all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["structure:index-map-bijective"].passed
    failure = by_name["structure:index-map-associative"]
    assert not failure.passed
    assert failure.metrics.get("witness") == {"s": 2, "r": 2, "q": 2, "j": 0, "k": 0, "l": 1,
                               "lhs": 4, "rhs": 2}
    assert by_name["structure:left-action-coherent"].metrics.get("witness") == {
        "s": 2, "r": 2, "a": "(1+0j)*S", "nu": 0, "j": 0, "u": 1, "k": 0}
    # the coherence scan runs over (j, nu, k, u); this swap breaks two cells
    other = AFFINE.corrupted(2, 2, (0, 0), (0, 1))
    report = other.validate(TruncationSet(other.semigroup, 4))
    by_name = {c.name: c for c in report}
    assert by_name["structure:left-action-coherent"].metrics.get("witness") == {
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
    check = next(c for c in report if c.name == "structure:index-map-bijective")
    assert not check.passed
    assert check.metrics.get("witness") == witness


def broken_column(base, s0, mon0, change, *args, **kwargs):
    """An instance of base whose column j of L_s0(mon0) is change(j, column)."""
    class Broken(base):
        def left_column(self, s, mon, j):
            col = super().left_column(s, mon, j)
            return change(j, col) if (s, mon) == (s0, mon0) else col
    return Broken(*args, **kwargs)


LAWS = ["structure:" + law for law in (
    "identity-fiber-rank", "basis-count-multiplicative", "index-map-unit",
    "index-map-bijective", "index-map-associative", "left-action-unital",
    "left-action-homomorphism", "left-action-star", "left-action-coherent",
    "basis-orthonormal-via-transfer", "scaling-homomorphism", "coprime-compatibility")]


@pytest.mark.parametrize("system, bound, failures", [
    (broken_column(AffineToeplitzSystem, 3, (0, 0), lambda j, c: ((j + 1) % 3, c[1])), 12, {
        "left-action-unital": {"s": 3},
        "left-action-homomorphism": {"s": 3, "a": "(1+0j)*S*", "b": "(1+0j)*S"},
        "left-action-coherent": {"s": 2, "r": 3, "a": "(1+0j)*S",
                                 "nu": 1, "j": 0, "u": 0, "k": 0}}),
    (broken_column(AffineToeplitzSystem, 4, (1, 0), lambda j, c: None if j == 2 else c), 12, {
        "left-action-homomorphism": {"s": 4, "a": "(1+0j)*S", "b": "(1+0j)*S"},
        "left-action-star": {"s": 4, "a": "(1+0j)*S"},
        "left-action-coherent": {"s": 2, "r": 2, "a": "(1+0j)*S",
                                 "nu": 1, "j": 0, "u": 1, "k": 1}}),
    (broken_column(AffineToeplitzSystem, 2, (0, 1),
                   lambda j, c: (c[0], (c[1][0] + 1, c[1][1]))), 12, {
        "left-action-homomorphism": {"s": 2, "a": "(1+0j)*S", "b": "(1+0j)*S*"},
        "left-action-star": {"s": 2, "a": "(1+0j)*S"},
        "left-action-coherent": {"s": 2, "r": 2, "a": "(1+0j)*S*",
                                 "nu": 1, "j": 0, "u": 0, "k": 0}}),
    (broken_column(TorusDilationSystem, 3, (1,), lambda j, c: (c[0], (c[1][0] + 1,)) if j == 0
                   else c, 1, name="additive-toeplitz"), 12, {
        "left-action-homomorphism": {"s": 3, "a": "(1+0j)*z", "b": "(1+0j)*z"},
        "left-action-star": {"s": 3, "a": "(1+0j)*z"},
        "left-action-coherent": {"s": 2, "r": 3, "a": "(1+0j)*z",
                                 "nu": 0, "j": 1, "u": 1, "k": 0}}),
    (broken_column(TorusDilationSystem, 2, (0, 0), lambda j, c: (c[0] + 1, c[1]) if j == 1
                   else c, 2), 6, {
        "left-action-unital": {"s": 2},
        "left-action-homomorphism": {"s": 2, "a": "(1+0j)*z1", "b": "(1+0j)*z1^-1"},
        "left-action-coherent": {"s": 2, "r": 2, "a": "(1+0j)*z1",
                                 "nu": 1, "j": 0, "u": 1, "k": 1}}),
    (broken_column(TorusDilationSystem, 3, (0, -1), lambda j, c: None if j == 4 else c, 2), 6, {
        "left-action-homomorphism": {"s": 3, "a": "(1+0j)*z1", "b": "(1+0j)*z2^-1"},
        "left-action-star": {"s": 3, "a": "(1+0j)*z2"},
        "left-action-coherent": {"s": 2, "r": 3, "a": "(1+0j)*z2^-1",
                                 "nu": 2, "j": 0, "u": 1, "k": 4}}),
    # a scalar engine runs the same laws and names the same kind of witness
    (broken_column(CuntzSystem, 2, (), lambda j, c: ((j + 1) % 4, c[1]), 2), 6, {
        "left-action-unital": {"s": 2},
        "left-action-homomorphism": {"s": 2, "a": "(1+0j)*1", "b": "(1+0j)*1"},
        "left-action-star": {"s": 2, "a": "(1+0j)*1"},
        "left-action-coherent": {"s": 1, "r": 1, "a": "(1+0j)*1",
                                 "nu": 0, "j": 0, "u": 0, "k": 0}}),
], ids=["affine-unit-row-shifted", "affine-S-column-dropped", "affine-S*-exponent-raised",
        "additive-z-exponent-raised", "torus-unit-row-shifted", "torus-column-dropped",
        "cuntz-unit-column-shifted"])
def test_broken_left_action_names_the_first_bad_law(system, bound, failures):
    report = system.validate(TruncationSet(system.semigroup, bound))
    laws = [name.removeprefix("structure:") for name in LAWS]
    assert [(c.name, c.passed, c.metrics.get("witness")) for c in report] == [
        ("structure:" + law, law not in failures, failures.get(law)) for law in laws]


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.name)
def test_corrupted_system_subclasses_its_base(system):
    name = system.name
    bad = system.corrupted(2, 2, (0, 0), (1, 0))
    assert isinstance(bad, type(system)) and type(bad) is not type(system)
    assert bad.name == system.name + "-corrupted"
    assert bad.params == system.params and bad.beta_c == system.beta_c
    assert bad.weight(3) == system.weight(3)
    # only the images at (2, 2) trade places
    assert bad.index_map(2, 2, 0, 0) == system.index_map(2, 2, 1, 0)
    assert bad.index_map(2, 3, 1, 2) == system.index_map(2, 3, 1, 2)
    assert bad.left_column(2, system.engine.unit(), 1) == system.left_column(
        2, system.engine.unit(), 1)
    assert system.name == name  # the base is left as it was


def test_corrupted_split_still_inverts_map():
    bad = AFFINE.corrupted(2, 3, (0, 1), (1, 2))
    for j in range(2):
        for k in range(3):
            i = bad.index_map(2, 3, j, k)
            assert bad.index_split(2, 3, i) == (j, k)


@pytest.mark.parametrize("pair_b, witness", [
    ((1, 0), {"j": 0, "l": 1, "collisions": [(0, 0), (2, 1)]}),
    ((1, 2), {"j": 0, "l": 2, "collisions": [(1, 0), (0, 1)]}),
])
def test_coprime_scan_names_the_first_collision(pair_b, witness):
    window = TruncationSet(NAT_MULT, 12)
    bad = AFFINE.corrupted(2, 3, (0, 0), pair_b)
    assert bad.check_coprime_pairs(window) == (False, {"s": 2, "r": 3, **witness}, 1)
    assert AFFINE.check_coprime_pairs(window) == (True, None, 68)


class _TabledIndices(AffineToeplitzSystem):
    """Row 0 of m(2, 3; ., .) repeats the value 3, at m = 1 and m = 2,
    and two values of m(3, 2; 0, .) hit it, so the last m must win."""

    TABLES = {(2, 3): np.array([[5, 3, 3], [1, 1, 0]]),
              (3, 2): np.array([[3, 5], [1, 4], [4, 0]])}

    def index_map(self, s, r, j, k):
        table = self.TABLES.get((s, r))
        return super().index_map(s, r, j, k) if table is None else table[j, k]


def coprime_scan_by_loops(system, window):
    """The scalar scan the grid version must reproduce, witness included."""
    sg = system.semigroup
    pairs = 0
    for s in window.values:
        for r in window.values:
            if sg.identity_value in (s, r) or sg.glb(s, r) != sg.identity_value:
                continue
            pairs += 1
            for j in range(system.basis_count(s)):
                row_j = {system.index_map(s, r, j, m): m for m in range(system.basis_count(r))}
                for l in range(system.basis_count(r)):
                    hits = [(row_j[i], g) for g in range(system.basis_count(s))
                            if (i := system.index_map(r, s, l, g)) in row_j]
                    if len(hits) > 1:
                        return False, {"s": s, "r": r, "j": j, "l": l,
                                       "collisions": hits[:2]}, pairs
    return True, None, pairs


def test_coprime_scan_matches_the_scalar_loop():
    window = TruncationSet(NAT_MULT, 6)
    systems = [_TabledIndices(), _AddedIndices(), _FoldedIndices(), TORUS2]
    for base in (AFFINE, TorusDilationSystem(1)):
        for s, r in ((2, 3), (3, 2), (2, 5), (3, 4)):
            cells = [(j, k) for j in range(min(s, 3)) for k in range(min(r, 3))]
            systems += [base.corrupted(s, r, a, b) for a in cells for b in cells if a < b]
    for system in systems:
        assert system.check_coprime_pairs(window) == coprime_scan_by_loops(system, window)


def test_vector_is_sparse_and_checks_its_indices():
    unit = CoefficientElement.unit(AFFINE.engine)
    zero = CoefficientElement.zero(AFFINE.engine)
    vec = ModuleVector(AFFINE, 3, {2: unit, 1: zero, 0: unit.scale(2.0)})
    assert list(vec.entries) == [0, 2]
    assert vec == ModuleVector(AFFINE, 3, (unit.scale(2.0), zero, unit))
    assert hash(vec) == hash(ModuleVector(AFFINE, 3, (unit.scale(2.0), zero, unit)))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            ModuleVector(AFFINE, 3, {bad: unit})
    with pytest.raises(ValueError, match="needs 3 coordinates"):
        ModuleVector(AFFINE, 3, (unit, unit))
    assert CUNTZ.basis_vector(60, 7).entries == {7: CoefficientElement.unit(CUNTZ.engine)}


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
