"""Command line front end.

Subcommands:

    eval     evaluate a state on one expression, JSON on stdout
    sweep    evaluate observables across temperatures, CSV on stdout
    verify   run verification suites, JSONL on stdout, summary on stderr
    systems  list the built-in product systems, JSONL on stdout
    parse    echo an expression back in canonical normal form

Everything written to stdout is data (JSON, JSONL or CSV with '.'
decimals); rendering is left to other tools.  Output for a fixed
configuration and seed is byte identical across runs.  Options may come
from --config (a JSON object with the same names, strictly validated);
explicit flags win over config values.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or
configuration, 3 term budget exceeded, 4 an internal error (any other
exception, reported on one line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coeff import TraceSpec, haar_trace, identity_trace, point_mass_trace
from .dsl import _g, format_element, parse_element
from .nt import NTElement, TermBudgetExceeded, get_term_budget, term_budget
from .product_system import BUILTIN_SYSTEMS, ProductSystem, get_system
from .states import KMSContext, ground_state, zeta_series
from .verify import SUITE_NAMES, run_suites

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

_INTEGER = ("an integer", (int, float, type(None)), ())
_NUMBERS = (int, float, str)

# Each config key's description, its accepted JSON types (null is None)
# and, when a list is accepted, the accepted types of its items.  Values
# are read later by the options that use them; integers by _int_opt.
CONFIG_TYPES = {
    "system": ("a string", (str,), ()),
    "d": _INTEGER,
    "k": _INTEGER,
    "corrupt": ("a string or a list", (str, list, type(None)), object),
    "trace": ("a string", (str, type(None)), ()),
    "theta": ("a number, a string or a list of numbers", (*_NUMBERS, list, type(None)), _NUMBERS),
    "beta": ("a number", _NUMBERS, ()),
    "betas": ("a number, a string or a list of numbers", (*_NUMBERS, list, type(None)), _NUMBERS),
    "bound": _INTEGER,
    "seed": _INTEGER,
    "term_budget": _INTEGER,
    "suite": ("a string or a list of strings", (str, list, type(None)), str),
    "state": ("a string", (str,), ()),
    "expr": ("a string", (str, type(None)), ()),
    "observables": ("an object or a list of strings", (dict, list, type(None)), str),
}


class UsageError(ValueError):
    pass


# -- option resolution --------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    unknown = sorted(set(data) - set(CONFIG_TYPES))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; allowed: {sorted(CONFIG_TYPES)}")
    for key, v in data.items():
        what, types, items = CONFIG_TYPES[key]
        if not isinstance(v, types) or isinstance(v, list) and not all(
            isinstance(x, items) for x in v
        ):
            raise UsageError(f"{key} must be {what}, got {json.dumps(v)}")
    return data


def _opt(args: argparse.Namespace, config: dict, key: str, default=None):
    v = getattr(args, key, None)
    if v is not None:
        return v
    if key in config:
        return config[key]
    return default


def _int_opt(args: argparse.Namespace, config: dict, key: str, default=None):
    """An integer option; null reads as absent, and a boolean or a
    non-integral number is refused."""
    v = _opt(args, config, key)
    return default if v is None else _as_int(key, v)


def _as_int(key: str, v):
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise UsageError(f"{key} must be an integer, got {json.dumps(v)}")


def _make_system(args, config) -> ProductSystem:
    name = _opt(args, config, "system", "affine-toeplitz")
    system = get_system(name, d=_int_opt(args, config, "d"), k=_int_opt(args, config, "k"))
    corrupt = _opt(args, config, "corrupt")
    if corrupt is not None:
        s, r, pa, pb = _parse_corrupt(corrupt, system)
        system = system.corrupted(s, r, pa, pb)
    return system


def _parse_corrupt(value, system: ProductSystem):
    """Six integers, from a comma-separated string or, under _int_opt's
    rule, from a config list."""
    if isinstance(value, str):
        try:
            value = [int(b) for b in value.split(",")]
        except ValueError:
            value = []
    bits = [_as_int("corrupt item", b) for b in value]
    if len(bits) != 6:
        raise UsageError("corrupt needs six integers: s,r,ja,ka,jb,kb")
    s, r, ja, ka, jb, kb = bits
    try:
        system.semigroup.check_value(s)
        system.semigroup.check_value(r)
    except ValueError as exc:
        raise UsageError(f"corrupt fibers: {exc}") from None
    ns, nr = system.basis_count(s), system.basis_count(r)
    for j, kk in ((ja, ka), (jb, kb)):
        if not (0 <= j < ns and 0 <= kk < nr):
            raise UsageError(
                f"corrupt pair ({j},{kk}) out of range for fibers ({s},{r})"
            )
    if (ja, ka) == (jb, kb):
        raise UsageError("corrupt pairs must differ")
    return s, r, (ja, ka), (jb, kb)


def _parse_theta(theta, dim: int):
    if theta is None:
        return tuple(0.7 for _ in range(dim))
    if isinstance(theta, str):
        parts = [p.strip() for p in theta.split(",")]
        vals = tuple(float(p) for p in parts)
    elif isinstance(theta, (int, float)):
        vals = (float(theta),)
    else:
        vals = tuple(float(t) for t in theta)
    if len(vals) != dim:
        raise UsageError(f"theta needs {dim} angle(s), got {len(vals)}")
    return vals


def _make_trace(args, config, system: ProductSystem) -> TraceSpec:
    name = _opt(args, config, "trace")
    theta = _opt(args, config, "theta")
    dim = system.engine.degree_dim
    if dim == 0:
        if name not in (None, "identity"):
            raise UsageError(
                f"trace {name!r} does not apply to a scalar coefficient algebra"
            )
        if theta is not None:
            raise UsageError("theta only applies to point-mass")
        return identity_trace()
    name = name or "haar"
    if name == "haar":
        if theta is not None:
            raise UsageError("theta only applies to point-mass")
        return haar_trace(system.engine)
    if name in ("point-mass", "point_mass"):
        return point_mass_trace(system.engine, _parse_theta(theta, dim))
    raise UsageError(f"unknown trace {name!r}; use haar, point-mass or identity")


def _parse_expression(expr: str, system: ProductSystem) -> NTElement:
    if expr is None:
        raise UsageError("an expression is required (--expr)")
    return parse_element(expr, system)


# -- formatting ----------------------------------------------------------------


def _complex_csv(w: complex) -> str:
    sign = "-" if w.imag < 0 else "+"
    return f"{_g(w.real)}{sign}{_g(abs(w.imag))}i"


# -- subcommands ---------------------------------------------------------------


def _cmd_eval(args, config) -> int:
    system = _make_system(args, config)
    trace = _make_trace(args, config, system)
    y = _parse_expression(_opt(args, config, "expr"), system)
    state = _opt(args, config, "state", "kms")
    if state == "ground":
        sv = ground_state(system, trace, y)
    elif state == "kms":
        beta = float(_opt(args, config, "beta", 3.0))
        bound = _int_opt(args, config, "bound", 1000)
        ctx = KMSContext(system, trace, beta, bound)
        sv = ctx.kms(y)
    else:
        raise UsageError(f"unknown state {state!r}; use kms or ground")
    print(json.dumps(sv.as_dict(), sort_keys=True))
    return EXIT_OK


def _parse_betas(raw) -> list[float]:
    if raw is None:
        raise UsageError("sweep needs --betas")
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        vals = [float(p) for p in parts]
    elif isinstance(raw, (int, float)):
        vals = [float(raw)]
    else:
        vals = [float(b) for b in raw]
    if not vals:
        raise UsageError("sweep needs at least one beta")
    return vals


def _parse_observables(args, config, system) -> list[tuple[str, NTElement]]:
    raw = getattr(args, "observable", None)
    if not raw:
        cfg = config.get("observables")
        if cfg is None:
            raw = []
        elif isinstance(cfg, dict):
            raw = [f"{name}={expr}" for name, expr in cfg.items()]
        else:
            raw = cfg
    out: list[tuple[str, NTElement]] = []
    seen = set()
    for item in raw:
        if "=" not in item:
            raise UsageError(f"observable {item!r} must look like name=expr")
        name, expr = item.split("=", 1)
        name = name.strip()
        if not name.isidentifier():
            raise UsageError(f"observable name {name!r} must be an identifier")
        if name in seen:
            raise UsageError(f"duplicate observable name {name!r}")
        seen.add(name)
        out.append((name, _parse_expression(expr.strip(), system)))
    return out


def _cmd_sweep(args, config) -> int:
    system = _make_system(args, config)
    trace = _make_trace(args, config, system)
    betas = _parse_betas(_opt(args, config, "betas"))
    bound = _int_opt(args, config, "bound", 1000)
    observables = _parse_observables(args, config, system)
    # every row is computed before any is printed, so an error prints nothing;
    # zeta and its certified tail, rounding included, are zeta_series's
    rows = [["beta", "zeta", "tail"] + [name for name, _ in observables]]
    for beta in betas:
        ctx = KMSContext(system, trace, beta, bound)
        series = zeta_series(system, beta, bound)
        row = [_g(beta), _g(series.value.real), _g(series.tail)]
        for _, y in observables:
            row.append(_complex_csv(ctx.kms(y).value))
        rows.append(row)
    print("\n".join(",".join(row) for row in rows))
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    system = _make_system(args, config)
    suites = getattr(args, "suite", None) or config.get("suite") or ["all"]
    if isinstance(suites, str):
        suites = [suites]
    beta = float(_opt(args, config, "beta", 3.0))
    bound = _int_opt(args, config, "bound", 1000)
    seed = _int_opt(args, config, "seed", 7)
    traces = None
    if _opt(args, config, "trace") is not None:
        traces = [_make_trace(args, config, system)]
    # main() reports a ValueError, such as an unknown suite, as a usage error
    reports = run_suites(system, list(suites), beta=beta, bound=bound, seed=seed, traces=traces)
    for rep in reports:
        print(rep.json_line())
    width = max((len(r.name) for r in reports), default=4)
    counts = {"pass": 0, "skip": 0, "FAIL": 0}
    for rep in reports:
        mark = "FAIL" if not rep.passed else "skip" if rep.metrics.get("skipped") else "pass"
        counts[mark] += 1
        print(f"{rep.name:<{width}}  {mark}  {rep.seconds:8.3f}s", file=sys.stderr)
    skipped = f"{counts['skip']} skipped, " if counts["skip"] else ""
    print(
        f"{len(reports)} checks on {system.name}: "
        f"{counts['pass']} passed, {skipped}{counts['FAIL']} failed",
        file=sys.stderr,
    )
    return EXIT_CHECK_FAILED if counts["FAIL"] else EXIT_OK


def _cmd_systems(args, config) -> int:
    for name in BUILTIN_SYSTEMS:
        system = get_system(name)
        kind, p = system.profile
        payload = {
            "system": name,
            "semigroup": system.semigroup.name,
            "engine": system.engine.tag,
            "critical_beta": system.beta_c,
            "scaling": f"s^{p}" if kind == "power" else f"{p}^n",
            "params": system.params,
        }
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_parse(args, config) -> int:
    system = _make_system(args, config)
    y = _parse_expression(_opt(args, config, "expr"), system)
    print(format_element(y))
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option values")
    common.add_argument("--system", choices=BUILTIN_SYSTEMS, help="product system")
    common.add_argument("--d", type=int, help="torus rank for lattice-dilation")
    common.add_argument("--k", type=int, help="branching for cuntz")
    common.add_argument(
        "--corrupt",
        metavar="s,r,ja,ka,jb,kb",
        help="swap two multiplication-index values, for negative testing",
    )
    common.add_argument("--trace", help="haar, point-mass or identity")
    common.add_argument("--theta", help="angle(s) for point-mass, comma separated")
    common.add_argument("--term-budget", dest="term_budget", type=int,
                        help="cap on raw terms per product and trial divisions per state")

    parser = argparse.ArgumentParser(
        prog="ntkms",
        description="states and verification for product-system Toeplitz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a state on an expression")
    p.add_argument("--expr", help="expression to evaluate")
    p.add_argument("--state", choices=("kms", "ground"), help="which state (default kms)")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--bound", type=int, help="series truncation window")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", parents=[common], help="tabulate observables over betas")
    p.add_argument("--betas", help="comma separated inverse temperatures")
    p.add_argument("--bound", type=int, help="series truncation window")
    p.add_argument(
        "--observable", action="append", metavar="NAME=EXPR",
        help="named expression column (repeatable)",
    )
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument(
        "--suite", action="append", choices=SUITE_NAMES,
        help="suite to run (repeatable, default all)",
    )
    p.add_argument("--beta", type=float, help="inverse temperature for the checks")
    p.add_argument("--bound", type=int, help="series truncation window")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("systems", parents=[common], help="list built-in systems")
    p.set_defaults(fn=_cmd_systems)

    p = sub.add_parser("parse", parents=[common], help="print the canonical normal form")
    p.add_argument("--expr", help="expression to parse")
    p.set_defaults(fn=_cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        with term_budget(_int_opt(args, config, "term_budget", get_term_budget())):
            return args.fn(args, config)
    except TermBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError) as exc:
        # OverflowError: a number too large for a float, such as --bound 1e400
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, never to be read as a failed check
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
