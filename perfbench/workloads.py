"""The three benchmark workloads: inputs from a seed, timed passes, oracles.

Each workload turns its seed into a list of plain-data items (ints,
strings and lists, digested so two commits can be shown to run the same
inputs), builds program objects from them, and runs passes over the
item list.  Inside a pass only the calls into ntkms are timed; every
check of an output runs after its item, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from random import Random
from time import perf_counter

from ntkms import (
    CoefficientElement,
    KMSContext,
    ModuleVector,
    NTElement,
    get_system,
    haar_trace,
    identity_trace,
    parse_element,
    point_mass_trace,
    unit_projection,
)

# Allowance for float rounding in state values: 1e-12 per unit of the
# observable's coefficient one-norm, plus one.
ROUNDING = 1e-12


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


class Pass:
    """One timed pass: the sum of item times, per-item latencies, failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.tail_violations = 0
        self._index = 0

    def timed(self, label: str, fn, item: bool = True):
        """Run ``fn`` under the clock; returns (ok, result).

        An exception is a failed item; ``item=False`` keeps the step in
        the pass wall time but out of the per-item latencies.
        """
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.item = self._index
            tracer.active = True
        t0 = perf_counter()
        try:
            result, err = fn(), None
        except Exception as exc:  # any exception is a failed item, counted below
            result, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self._index += 1
        self.wall += dt
        if item:
            self.latencies.append(dt)
        if err is not None:
            self.fail(label, err)
        return err is None, result

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.fail(label, detail)

    def fail(self, label: str, detail: str) -> None:
        self.failures.append(f"{label}: {detail}")


# -- seeded inputs as plain data ----------------------------------------------


def _gauss(rng: Random) -> list[int]:
    """A nonzero Gaussian integer with parts in [-2, 2]."""
    re, im = rng.randint(-2, 2), rng.randint(-2, 2)
    return [re or 1, im] if re == 0 and im == 0 else [re, im]


def _monomial(rng: Random, engine: str) -> list[int]:
    """S^a S*^a, or z^gamma with every exponent a multiple of 12.

    A product's work depends on which left-action entries vanish, and
    that depends on the monomials' degrees modulo the fibers.  Degree 0
    on the Toeplitz engine, and multiples of lcm(1..4) on the torus, keep
    every entry nonzero, so operands of one shape cost the same.
    """
    if engine == "toeplitz":
        a = rng.randint(0, 3)
        return [a, a]
    d = int(engine[len("laurent"):])
    return [12 * rng.randint(-3, 3) for _ in range(d)]


def _element(rng: Random, engine: str, d: int, shape) -> list:
    """Terms [s, r, l, coords] with coords [[j, [[monomial, re, im]]], ...].

    ``shape`` fixes the fiber pair of each term and every coordinate is
    filled, so the work a product does depends on the item, not on the
    seed; the seed picks the right leg index, monomials and weights.
    """
    return [
        [s, r, rng.randrange(r**d),
         [[j, [[_monomial(rng, engine), *_gauss(rng)]]] for j in range(s**d)]]
        for s, r in shape
    ]


def build_element(system, spec) -> NTElement:
    eng = system.engine
    out = NTElement.zero(system)
    for s, r, l, coords in spec:
        vec = [CoefficientElement.zero(eng)] * system.basis_count(s)
        for j, mons in coords:
            c = CoefficientElement.zero(eng)
            for mon, re, im in mons:
                c = c + CoefficientElement.monomial(eng, tuple(mon), complex(re, im))
            vec[j] = c
        out = out + NTElement(system, {(s, r, l): ModuleVector(system, s, tuple(vec))})
    return out


# -- normal-form -------------------------------------------------------------------

# The projection products are fixed, not seeded: they are most of a
# pass's time, and the cost of p_a p_b depends on the pair, not only on
# its lcm (p_21 p_420 takes 1.3 s, p_12 p_70 1.0 s), so seeded pairs made
# the pass time measure the seed.  Affine pairs: products at lcm near
# 5000 take minutes, so the largest lcm is 420.
AFFINE_PAIRS = ((20, 21), (15, 16), (9, 20), (8, 15), (7, 12), (4, 15), (4, 9), (3, 8), (3, 4))
# cuntz fibers are dense (2^n coordinates), so 8 is the cap
CUNTZ_PAIRS = ((8, 5), (6, 7), (6, 3), (4, 5), (4, 2), (3, 3), (1, 2), (1, 1))
ALPHA_FIBERS = (2, 3, 4)
ALPHA_PER_FIBER = 2
# Each of the two groups below shares one operand shape.  The adjoint
# items are more than half of the batch, so p50 falls inside their
# cluster; fewer than a tenth of the items cost more than an associative
# item, and the associative items are another tenth, so p90 falls inside
# theirs.
ASSOCIATIVE_ITEMS = 30
ADJOINT_ITEMS = 200
# fiber pairs (s, r) of the two terms of the k-th operand of an item
SHAPES = (((2, 1), (3, 2)), ((1, 3), (4, 2)), ((2, 2), (1, 4)))
ALPHA_SHAPES = (((1, 2), (2, 1)), ((2, 3), (3, 1)))


class NormalForm:
    """Exact products in the normal form, each checked by dict equality."""

    name = "normal-form"
    fresh_state_per_pass = True  # every pass starts with cold product-system memos

    def __init__(self, seed: int):
        rng = Random(seed)
        items: list = []
        items += [["projection-lcm", a, b] for a, b in AFFINE_PAIRS]
        items += [["projection-max", m, n] for m, n in CUNTZ_PAIRS]
        for s in ALPHA_FIBERS:
            for i in range(ALPHA_PER_FIBER):
                x = _element(rng, "laurent2", 2, ALPHA_SHAPES[i])
                items.append(["alpha-adjoint", s, x])
        for _ in range(ASSOCIATIVE_ITEMS):
            xyz = (_element(rng, "laurent1", 1, SHAPES[k]) for k in range(3))
            items.append(["associative", *xyz])
        for _ in range(ADJOINT_ITEMS):
            xy = (_element(rng, "toeplitz", 1, SHAPES[k]) for k in range(2))
            items.append(["adjoint-product", *xy])
        self.items = items
        self.digest = digest(items)

    def build(self):
        systems = {
            "affine": get_system("affine-toeplitz"),
            "cuntz": get_system("cuntz", k=2),
            "lattice": get_system("lattice-dilation", d=2),
            "additive": get_system("additive-toeplitz"),
        }
        operands = []
        for kind, *args in self.items:
            if kind.startswith("projection"):
                system = systems["affine" if kind == "projection-lcm" else "cuntz"]
                operands.append([system, *(unit_projection(system, n) for n in args)])
            elif kind == "alpha-adjoint":
                operands.append([build_element(systems["lattice"], args[1])])
            elif kind == "associative":
                operands.append([build_element(systems["additive"], a) for a in args])
            else:
                operands.append([build_element(systems["affine"], a) for a in args])
        return operands

    def run_pass(self, p: Pass, operands) -> None:
        for (kind, *args), ops in zip(self.items, operands):
            if kind.startswith("projection"):
                system, pa, pb = ops
                ok, got = p.timed(kind, lambda: pa * pb)
                if ok:
                    # lcm on the multiplicative cone, max on the additive one
                    n = math.lcm(*args) if kind == "projection-lcm" else max(args)
                    p.check(kind, got == unit_projection(system, n),
                            f"p_{args[0]} p_{args[1]} != p_{n}")
            elif kind == "alpha-adjoint":
                s, x = args[0], ops[0]
                ok, got = p.timed(kind, lambda: (x.alpha(s).adjoint(), x.adjoint().alpha(s)))
                if ok:
                    p.check(kind, got[0] == got[1], f"alpha_{s}(x)* != alpha_{s}(x*)")
            elif kind == "associative":
                x, y, z = ops
                ok, got = p.timed(kind, lambda: ((x * y) * z, x * (y * z)))
                if ok:
                    p.check(kind, got[0] == got[1], "(xy)z != x(yz)")
            else:
                x, y = ops
                ok, got = p.timed(kind, lambda: ((x * y).adjoint(), y.adjoint() * x.adjoint()))
                if ok:
                    p.check(kind, got[0] == got[1], "(xy)* != y*x*")

# -- kms-sweep ---------------------------------------------------------------------

KMS_BOUND = 10**7
# name, params, trace, beta range above the critical value, largest
# projection in the summed observable (fiber vectors are dense, so the
# lattice and cuntz sums stop early), projections at distinct fibers,
# window of the literal reference
KMS_SYSTEMS = (
    ("affine-toeplitz", {}, "haar", (2.5, 4.0), 40, 10, 30),
    ("lattice-dilation", {"d": 2}, "point-mass", (2.0, 3.5), 12, 10, 8),
    ("cuntz", {"k": 2}, "identity", (1.5, 3.0), 8, 6, None),
)
# The projections come first, and each evaluates a new z_value; they are
# 26 of the 52 items, so p50 falls among the power-profile ones and p90
# among the slower cuntz ones.  The cached evaluations are 23 items.
RANK_ONE_FIBERS = 2
COEFFICIENT_ITEMS = 4


def _observables(rng: Random, name: str, params: dict, top: int, projections: int) -> list:
    """[kind, dsl, params] for each observable, evaluated in this order."""
    additive = name == "cuntz"
    e = 0 if additive else 1
    base = params.get("k") or 1
    d = params.get("d", 1)

    def count(s):
        return base**s if additive else s**d

    out = []
    # one fiber from each of `projections` equal slices of 2..top, so
    # every seed parses projections of about the same size
    span = range(2, top + 1)
    fibers = [rng.choice(span[i * len(span) // projections:(i + 1) * len(span) // projections])
              for i in range(projections)]
    for r in fibers:
        out.append(["projection", f"alpha[{r}](i[{e}](1@0))", [r]])
    for r in fibers[:RANK_ONE_FIBERS]:
        n = rng.randrange(count(r))
        m = (n + rng.randrange(1, count(r))) % count(r)
        for a, b in ((n, n), (n, m)):  # the second evaluates to 0
            out.append(["rank-one", f"i[{r}](1@{a}) adj(i[{r}](1@{b}))", [r, a, b]])
    s, r = rng.sample(range(1, 5), 2)
    j, l = rng.randrange(count(s)), rng.randrange(count(r))
    out.append(["non-core", f"i[{s}](1@{j}) adj(i[{r}](1@{l}))", [s, j, r, l]])
    if not additive:
        for _ in range(COEFFICIENT_ITEMS):
            if name == "affine-toeplitz":
                a = rng.randint(1, 720)
                b = rng.randint(0, 720)
                if a == b:
                    a += 1
                word = f"S^{a} S*^{b}"
            else:
                a, b = rng.randint(1, 360), rng.randint(-360, 360)
                word = f"z1^{a} z2^{b}"
            out.append(["coefficient", f"i[{e}]({word}@0)", [word]])
    ks = range(e, top + 1)
    out.append(["projection-sum", " + ".join(f"alpha[{k}](i[{e}](1@0))" for k in ks), [top]])
    return out


def _closed_form(kind: str, args, beta: float, name: str, params: dict):
    """The infinite-window value, or None where no closed form exists.

    kms(p_r) = r^(d(1-beta)) on the power profile and k^((1-beta) r) on
    cuntz(k); a rank-one monomial i_r(1_n) i_r(1_m)* has delta_nm N(r)^(-beta).
    """
    additive = name == "cuntz"
    k = params.get("k", 2)
    d = params.get("d", 1)

    def projection(r):
        return float(k) ** ((1.0 - beta) * r) if additive else float(r) ** (d * (1.0 - beta))

    if kind == "projection":
        return projection(args[0])
    if kind == "projection-sum":
        start = 0 if additive else 1
        return math.fsum(projection(r) for r in range(start, args[0] + 1))
    if kind == "rank-one":
        r, n, m = args
        if n != m:
            return 0.0
        return float(k) ** (-beta * r) if additive else float(r) ** (-beta * d)
    if kind == "non-core":
        return 0.0
    return None


def _trace_for(system, kind: str):
    if kind == "haar":
        return haar_trace(system.engine)
    if kind == "point-mass":
        return point_mass_trace(system.engine, tuple(0.7 for _ in range(system.engine.degree_dim)))
    return identity_trace()


class KmsSweep:
    """What `ntkms sweep` does: a fresh KMS context per system and beta,
    then a fixed list of observables."""

    name = "kms-sweep"
    fresh_state_per_pass = False

    def __init__(self, seed: int):
        rng = Random(seed)
        items = []
        for name, params, trace, (lo, hi), top, projections, small in KMS_SYSTEMS:
            beta = round(rng.uniform(lo, hi), 4)
            observables = _observables(rng, name, params, top, projections)
            items.append([name, params, trace, beta, small, observables])
        self.items = items
        self.digest = digest(items)
        self._references: dict = {}

    def build(self):
        state = []
        for name, params, trace, beta, small, observables in self.items:
            system = get_system(name, **params)
            parsed = [parse_element(dsl, system) for _, dsl, _ in observables]
            state.append((system, _trace_for(system, trace), parsed))
        return state

    def _reference(self, system, trace, beta: float, small: int, y):
        """omega_literal at a small window: (value, tail), cached per run
        (the parsed observables live as long as the run)."""
        ref = self._references.get(id(y))
        if ref is None:
            sv = KMSContext(system, trace, beta, small).omega_literal(y.core_expectation())
            ref = self._references[id(y)] = (sv.value, sv.tail)
        return ref

    def run_pass(self, p: Pass, state) -> None:
        for (name, params, _, beta, small, observables), (system, trace, parsed) in zip(
            self.items, state
        ):
            ok, ctx = p.timed("context", lambda: KMSContext(system, trace, beta, KMS_BOUND),
                              item=False)
            if not ok:
                continue
            values = []
            for (kind, _, _), y in zip(observables, parsed):
                values.append(p.timed(kind, lambda: ctx.kms(y)))
            del ctx
            for (kind, dsl, args), y, (ok, sv) in zip(observables, parsed, values):
                if not ok:
                    continue
                label = f"{name} beta={beta} {kind} {dsl[:40]}"
                ref = _closed_form(kind, args, beta, name, params)
                ref_tail = 0.0
                if ref is None:
                    ref, ref_tail = self._reference(system, trace, beta, small, y)
                err = abs(sv.value - ref)
                allowed = sv.tail + ref_tail + ROUNDING * (1.0 + y.one_norm())
                if err > sv.tail + ref_tail:
                    p.tail_violations += 1
                p.check(label, err <= allowed,
                        f"|value - reference| = {err:.3e} > {allowed:.3e}")


# -- verify ------------------------------------------------------------------------

# `ntkms verify` per system, one item per suite.  run_suites runs suites
# in a fixed order, so the concatenated stdout of a system's items is
# that of one run with all of them.  Two parts are left out to keep a
# pass near 8 s, so that a run holds several passes: the structure suite
# of additive-toeplitz (13.5 s on its own) and the reconstruct suite of
# lattice-dilation(2) (4 s).  The structure window of lattice-dilation(2)
# has N_s = s^2 and does not finish in ten minutes.
SUITES = ("structure", "kms", "trace", "ground", "reconstruct", "euler")
VERIFY_SYSTEMS = (
    ("affine-toeplitz", [], SUITES),
    ("additive-toeplitz", [], SUITES[1:]),
    ("cuntz", ["--k", "2"], SUITES),
    ("lattice-dilation", ["--d", "2"], ("kms", "trace", "ground", "euler")),
)
VERIFY_SEED = 7


class Verify:
    """In-process `ntkms verify`; every line must pass and stdout must be
    byte-identical across passes.

    The checks sample their own inputs from the `--seed` they are given,
    and that changes what some of them cost by up to 3x (the
    lattice-dilation trace suite takes 0.14 s on one seed and 0.46 s on
    another).  With 21 items in a pass, the latency percentiles would
    then measure the seed.  So every benchmark seed runs the same
    command lines, with the CLI's default seed.
    """

    name = "verify"
    fresh_state_per_pass = False

    def __init__(self, seed: int):
        self.items = [
            ["verify", "--system", name, *extra, "--seed", str(VERIFY_SEED), "--suite", suite]
            for name, extra, suites in VERIFY_SYSTEMS
            for suite in suites
        ]
        self.digest = digest(self.items)
        self.stdout_digests: list[str] = []

    def build(self):
        from ntkms import cli

        return cli

    def run_pass(self, p: Pass, cli) -> None:
        whole = hashlib.sha256()

        def call(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()

        for argv in self.items:
            label = " ".join(argv[2:])
            ok, got = p.timed(label, lambda: call(argv))
            if not ok:
                continue
            code, text = got
            whole.update(text.encode())
            lines = text.splitlines()
            failing = [ln for ln in lines if not json.loads(ln).get("passed")]
            p.check(label, code == 0 and lines and not failing,
                    f"exit {code}, {len(failing)} of {len(lines)} lines not passed")
        self.stdout_digests.append(whole.hexdigest())
        p.attempted += 1
        p.check("stdout", self.stdout_digests[-1] == self.stdout_digests[0],
                "stdout differs from the first pass")


WORKLOADS = {w.name: w for w in (NormalForm, KmsSweep, Verify)}
