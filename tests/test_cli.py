"""Command line front end: exit codes, output shapes, determinism.

The contract pinned here:

* ``eval`` prints one JSON object with keys value/tail/truncation,
  ``sweep`` prints a CSV table, ``verify`` prints one JSON line per
  check on stdout and a human summary on stderr, ``systems`` and
  ``parse`` print what their names say.
* exit 0 on success, 1 when a verification check fails, 2 for usage
  errors of any flavour (bad flags, bad config, bad expressions), 3
  when the symbolic term budget trips, 4 for any other exception.
* repeated runs with the same arguments emit byte-identical stdout.

Everything runs in process through ``main(argv)``.  The term budget is
a context variable that ``main()`` sets with ``term_budget(...)`` for
the call only, so a ``--term-budget`` run leaves the default for the
tests after it.
"""

import json
import math
import time
from pathlib import Path

import pytest

from ntkms.cli import _g, main
from ntkms.coeff import haar_trace, identity_trace, point_mass_trace
from ntkms.dsl import format_element, parse_element
from ntkms.nt import get_term_budget, unit_projection
from ntkms.product_system import (
    AffineToeplitzSystem,
    CuntzSystem,
    ProductSystem,
    TorusDilationSystem,
)
from ntkms.states import KMSContext, zeta_series

AFFINE = AffineToeplitzSystem()
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ------------------------------------------------------------------------


def test_eval_prints_state_json(capsys):
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--expr", "i[1](1@0)"
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"value", "tail", "truncation"}
    # the unit evaluates to exactly 1, whatever the truncation
    assert payload["value"] == [1.0, 0.0]
    assert payload["truncation"] == 1000
    assert 0 < payload["tail"] < 1e-2
    # sort_keys means the serialized line is reproducible byte for byte
    assert lines[0] == json.dumps(payload, sort_keys=True)


def test_eval_ground_state_kills_nontrivial_fibers(capsys):
    code, out, _ = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--state", "ground", "--expr", "alpha[2](i[1](1@0))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": [0.0, 0.0], "tail": 0.0, "truncation": 0}

    code, out, _ = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--state", "ground", "--expr", "i[1](1@0)",
    )
    assert code == 0
    assert json.loads(out)["value"] == [1.0, 0.0]


def test_eval_requires_an_expression(capsys):
    code, _, err = run(capsys, "eval", "--system", "affine-toeplitz")
    assert code == 2
    assert "expression is required" in err


def test_eval_rejects_unknown_state_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "plasma", "expr": "i[1](1@0)"}))
    code, _, err = run(capsys, "eval", "--config", str(cfg))
    assert code == 2
    assert "unknown state 'plasma'" in err


def test_eval_rejects_beta_at_or_below_critical(capsys):
    code, _, err = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--expr", "i[1](1@0)", "--beta", "1.5",
    )
    assert code == 2
    assert err.startswith("error:")


def test_window_below_the_identity_is_a_usage_error(capsys):
    for system, bound, expr in (("affine-toeplitz", "0", "i[1](1@0)"),
                                ("cuntz", "-1", "i[0](1@0)")):
        code, out, err = run(
            capsys, "eval", "--system", system, "--expr", expr, "--bound", bound
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
    with pytest.raises(ValueError):
        KMSContext(AFFINE, haar_trace(AFFINE.engine), 3.0, bound=0)
    with pytest.raises(ValueError):
        zeta_series(AFFINE, 3.0, 0)
    with pytest.raises(ValueError):
        zeta_series(CuntzSystem(2), 3.0, -1)


def test_eval_bad_expression_reports_the_column(capsys):
    code, _, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--expr", "i[2](1@9)"
    )
    assert code == 2
    assert "error: column" in err


# -- parse and systems -----------------------------------------------------------


def test_parse_prints_the_canonical_normal_form(capsys):
    code, out, _ = run(
        capsys, "parse", "--system", "affine-toeplitz",
        "--expr", "alpha[2](i[1](1@0))",
    )
    assert code == 0
    assert out == format_element(unit_projection(AFFINE, 2)) + "\n"


def test_systems_lists_every_builtin_as_json(capsys):
    code, out, err = run(capsys, "systems")
    assert code == 0
    assert err == ""
    # critical_beta and scaling are derived from each system's profile
    assert [json.loads(line) for line in out.splitlines()] == [
        {"critical_beta": 2.0, "engine": "toeplitz", "params": {}, "scaling": "s^1",
         "semigroup": "nat-mult", "system": "affine-toeplitz"},
        {"critical_beta": 2.0, "engine": "laurent", "params": {"d": 1}, "scaling": "s^1",
         "semigroup": "nat-mult", "system": "additive-toeplitz"},
        {"critical_beta": 2.0, "engine": "laurent", "params": {"d": 1}, "scaling": "s^1",
         "semigroup": "nat-mult", "system": "lattice-dilation"},
        {"critical_beta": 1.0, "engine": "scalar", "params": {"k": 2}, "scaling": "2^n",
         "semigroup": "nat-add", "system": "cuntz"},
    ]


# -- sweep -----------------------------------------------------------------------


def test_sweep_tabulates_observables_over_betas(capsys):
    argv = (
        "sweep", "--system", "affine-toeplitz", "--betas", "3,4",
        "--bound", "400",
        "--observable", "p2=alpha[2](i[1](1@0))",
        "--observable", "u=i[1](1@0)",
    )
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "beta,zeta,tail,p2,u"
    assert len(lines) == 3
    for line, beta in zip(lines[1:], ("3", "4")):
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[0] == beta
        assert float(cells[1]) > 1.0
        assert float(cells[2]) >= 0.0
        # the unit column is exact whatever the truncation
        assert cells[4] == "1+0i"
    # the projection weight drops with beta
    p2 = [complex(line.split(",")[3].replace("i", "j")) for line in lines[1:]]
    assert p2[1].real < p2[0].real

    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("system, argv", [
    (CuntzSystem(2), ("--system", "cuntz")),
    (AFFINE, ("--system", "affine-toeplitz")),
])
def test_sweep_prints_the_certified_zeta_tail(capsys, system, argv):
    # the tail cell is zeta_series's, rounding included, not the truncation tail alone
    code, out, _ = run(capsys, "sweep", *argv, "--betas", "3,4", "--bound", "1000")
    assert code == 0
    trace = identity_trace() if system.engine.degree_dim == 0 else haar_trace(system.engine)
    for line, beta in zip(out.splitlines()[1:], (3.0, 4.0)):
        ctx = KMSContext(system, trace, beta, 1000)
        series = zeta_series(system, beta, 1000)
        assert line.split(",") == [_g(beta), _g(ctx.zeta), _g(series.tail)]
        assert series.tail > 0


def test_sweep_reads_observables_from_config_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "system": "affine-toeplitz",
        "betas": [3, 4],
        "bound": 400,
        "observables": {"p2": "alpha[2](i[1](1@0))"},
    }))
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "beta,zeta,tail,p2"

    code, out, _ = run(
        capsys, "sweep", "--config", str(cfg), "--observable", "u=i[1](1@0)"
    )
    assert code == 0
    assert out.splitlines()[0] == "beta,zeta,tail,u"


def test_sweep_prints_nothing_when_a_row_fails(capsys):
    # beta = 3 is fine, beta = 0.5 is below the critical exponent
    code, out, err = run(
        capsys, "sweep", "--system", "cuntz", "--betas", "3,0.5",
        "--observable", "p=i[1](1@0)",
    )
    assert code == 2 and out == ""
    assert "beta = 0.5 must exceed the critical exponent" in err


def test_sweep_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--system", "affine-toeplitz")
    assert code == 2 and "sweep needs --betas" in err

    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"betas": []}))
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2 and "at least one beta" in err

    base = ("sweep", "--system", "affine-toeplitz", "--betas", "3")
    code, _, err = run(capsys, *base, "--observable", "p2")
    assert code == 2 and "must look like name=expr" in err
    code, _, err = run(capsys, *base, "--observable", "2bad=i[1](1@0)")
    assert code == 2 and "must be an identifier" in err
    code, _, err = run(
        capsys, *base, "--observable", "u=i[1](1@0)", "--observable", "u=i[1](1@0)"
    )
    assert code == 2 and "duplicate observable name" in err


# -- verify ----------------------------------------------------------------------


def test_verify_emits_json_lines_and_a_summary(capsys):
    code, out, err = run(
        capsys, "verify", "--system", "affine-toeplitz", "--suite", "structure"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["passed"] for r in reports)
    assert all(set(r) == {"check", "passed", "metrics", "detail"} for r in reports)
    names = [r["check"] for r in reports]
    assert "structure:index-map-associative" in names
    assert "algebra:projection-covariance" in names
    n = len(reports)
    assert err.splitlines()[-1] == (
        f"{n} checks on affine-toeplitz: {n} passed, 0 failed"
    )


def test_verify_marks_skipped_checks_on_stderr_only(capsys):
    code, out, err = run(capsys, "verify", "--system", "cuntz", "--suite", "all")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    skipped = [r["check"] for r in reports if r["metrics"].get("skipped")]
    assert sorted(skipped) == [
        "reconstruct:trace-recovery", "state:core-trace", "state:euler-product",
    ]
    rows = {line.split()[0]: line.split()[1] for line in err.splitlines()[:-1]}
    assert rows == {r["check"]: "skip" if r["check"] in skipped else "pass" for r in reports}
    n = len(reports)
    assert err.splitlines()[-1] == (
        f"{n} checks on cuntz(2): {n - 3} passed, 3 skipped, 0 failed"
    )


def test_verify_exits_one_when_a_check_fails(capsys):
    code, out, err = run(
        capsys, "verify", "--system", "affine-toeplitz", "--suite", "structure",
        "--corrupt", "2,2,0,1,1,0",
    )
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    failed = [r["check"] for r in reports if not r["passed"]]
    assert "structure:index-map-associative" in failed
    assert f"{len(failed)} failed" in err.splitlines()[-1]


def test_internal_error_exits_four_not_one(capsys, monkeypatch):
    def broken(self, *args, **kwargs):
        raise RuntimeError("validator broke")

    monkeypatch.setattr(ProductSystem, "validate", broken)
    code, out, err = run(capsys, "verify", "--system", "affine-toeplitz", "--suite", "structure")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: validator broke\n"


def test_verify_stdout_is_deterministic_across_runs_and_threads(capsys):
    argv = ("verify", "--system", "affine-toeplitz", "--suite", "structure",
            "--corrupt", "2,2,0,1,1,0")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


STRUCTURE_RUNS = {
    "affine-toeplitz": ("--system", "affine-toeplitz"),
    "lattice-dilation": ("--system", "lattice-dilation"),
    "cuntz": ("--system", "cuntz"),
    "affine-toeplitz-corrupt": ("--system", "affine-toeplitz", "--corrupt", "2,2,0,1,1,0"),
    "lattice-dilation-corrupt": ("--system", "lattice-dilation", "--corrupt", "2,2,0,1,1,0"),
    "cuntz-corrupt": ("--system", "cuntz", "--corrupt", "1,1,0,0,1,0"),
    # a collision on the meet-trivial pair (2, 3) fails the coprime law
    "affine-toeplitz-coprime-corrupt": ("--system", "affine-toeplitz", "--corrupt", "2,3,0,0,1,0"),
    "lattice-dilation-coprime-corrupt": ("--system", "lattice-dilation", "--corrupt", "2,3,0,0,1,0"),
}


@pytest.mark.parametrize("name", STRUCTURE_RUNS)
def test_verify_structure_stdout_matches_the_golden_lines(capsys, name):
    """The whole stdout, the floats of the fock: lines included, is
    compared byte for byte with a recorded run."""
    _, out, _ = run(capsys, "verify", "--seed", "7", "--suite", "structure",
                    *STRUCTURE_RUNS[name])
    assert out == (DATA / f"structure-{name}.jsonl").read_text()


STATE_RUNS = {
    "affine-toeplitz": ("--system", "affine-toeplitz"),
    "additive-toeplitz": ("--system", "additive-toeplitz"),
    "lattice-dilation": ("--system", "lattice-dilation"),
    "cuntz": ("--system", "cuntz"),
    "lattice-dilation-2": ("--system", "lattice-dilation", "--d", "2"),
}


@pytest.mark.parametrize("name", STATE_RUNS)
def test_verify_state_stdout_matches_the_golden_lines(capsys, name):
    """The kms, trace and reconstruct suites draw their products once
    per run and evaluate them under every trace; their whole stdout,
    floats included, is compared byte for byte with a recorded run."""
    code, out, _ = run(capsys, "verify", "--seed", "7", "--suite", "kms", "--suite", "trace",
                       "--suite", "reconstruct", *STATE_RUNS[name])
    assert code == 0
    assert out == (DATA / f"states-{name}.jsonl").read_text()


@pytest.mark.parametrize("name", STATE_RUNS)
def test_verify_ground_stdout_matches_the_golden_lines(capsys, name):
    """The ground and euler suites' whole stdout, floats included, is
    compared byte for byte with a recorded run."""
    code, out, _ = run(capsys, "verify", "--seed", "7", "--suite", "ground", "--suite", "euler",
                       *STATE_RUNS[name])
    assert code == 0
    assert out == (DATA / f"ground-{name}.jsonl").read_text()


def test_verify_rejects_bad_thread_and_suite_requests(capsys, tmp_path):
    # "threads" is not a config key
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({"system": "affine-toeplitz", "threads": 2}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err

    # argparse screens --suite, so a bogus suite can only arrive via config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "nonsense"}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "unknown suites ['nonsense']" in err


# -- config files ----------------------------------------------------------------


def test_config_errors_are_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", "--config", str(bad))
    assert code == 2

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    code, _, err = run(capsys, "eval", "--config", str(listy))
    assert code == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"expr": "i[1](1@0)", "bogus": 1}))
    code, _, err = run(capsys, "eval", "--config", str(unknown))
    assert code == 2 and "unknown config keys ['bogus']" in err


@pytest.mark.parametrize("command, key, value", [
    ("eval", "d", 2.7), ("eval", "d", True), ("eval", "k", 3.5), ("eval", "bound", 1000.9),
    ("sweep", "bound", "1000"), ("verify", "seed", 7.5), ("eval", "term_budget", 2.5),
])
def test_config_integers_refuse_booleans_and_fractions(capsys, tmp_path, command, key, value):
    system = {"d": "lattice-dilation", "k": "cuntz"}.get(key, "affine-toeplitz")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": system, "expr": "i[1](1@0)", "betas": "3",
                               key: value}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {key} must be an integer, got {json.dumps(value)}\n"


def test_config_integers_accept_integral_floats(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"expr": "alpha[2](i[1](1@0))", "bound": 400.0}))
    _, from_config, _ = run(capsys, "eval", "--config", str(cfg))
    _, explicit, _ = run(capsys, "eval", "--expr", "alpha[2](i[1](1@0))", "--bound", "400")
    assert from_config == explicit


def test_config_integers_read_null_as_the_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"expr": "alpha[2](i[1](1@0))", "bound": None,
                               "term_budget": None}))
    code, from_config, _ = run(capsys, "eval", "--config", str(cfg))
    _, default, _ = run(capsys, "eval", "--expr", "alpha[2](i[1](1@0))")
    assert code == 0 and from_config == default


@pytest.mark.parametrize("command, values, key", [
    ("eval", {"beta": [1]}, "beta"),
    ("eval", {"beta": None}, "beta"),
    ("eval", {"expr": 5}, "expr"),
    ("eval", {"trace": "point-mass", "theta": [[1]]}, "theta"),
    ("verify", {"suite": 5}, "suite"),
    ("verify", {"suite": ["x", 3]}, "suite"),
    ("sweep", {"observables": [1], "betas": "3"}, "observables"),
])
def test_config_values_of_the_wrong_json_type_are_usage_errors(capsys, tmp_path, command,
                                                               values, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} must be ") and err.endswith(
        f", got {json.dumps(values[key])}\n")


def test_flags_override_config_values(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "affine-toeplitz",
        "expr": "alpha[2](i[1](1@0))",
        "beta": 3.0,
        "bound": 400,
    }))
    _, from_config, _ = run(capsys, "eval", "--config", str(cfg))
    _, explicit, _ = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--expr", "alpha[2](i[1](1@0))", "--beta", "3", "--bound", "400",
    )
    assert from_config == explicit

    _, overridden, _ = run(capsys, "eval", "--config", str(cfg), "--beta", "4")
    assert overridden != from_config


# -- system and trace option validation -------------------------------------------


def test_system_parameters_are_checked(capsys):
    code, _, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--d", "2",
        "--expr", "i[1](1@0)",
    )
    assert code == 2 and "takes no parameters" in err

    code, _, err = run(
        capsys, "eval", "--system", "cuntz", "--d", "2", "--expr", "i[0](1@0)"
    )
    assert code == 2 and "d does not apply to cuntz" in err

    code, _, err = run(
        capsys, "eval", "--system", "lattice-dilation", "--k", "3",
        "--expr", "i[1](1@0)",
    )
    assert code == 2 and "k does not apply to lattice-dilation" in err

    code, out, _ = run(
        capsys, "eval", "--system", "lattice-dilation", "--d", "2",
        "--expr", "i[1](1@0)",
    )
    assert code == 0 and json.loads(out)["value"] == [1.0, 0.0]

    code, out, _ = run(
        capsys, "eval", "--system", "cuntz", "--k", "3", "--expr", "i[0](1@0)"
    )
    assert code == 0 and json.loads(out)["value"] == [1.0, 0.0]


def test_torus_rank_five_evaluates_as_in_process(capsys):
    code, out, err = run(
        capsys, "eval", "--system", "lattice-dilation", "--d", "5", "--trace", "point-mass",
        "--theta", "0.1,0.2,0.3,0.4,0.5", "--expr", "i[1](z1 z5^-2@0)",
    )
    assert (code, err) == (0, "")
    system = TorusDilationSystem(5)
    trace = point_mass_trace(system.engine, (0.1, 0.2, 0.3, 0.4, 0.5))
    sv = KMSContext(system, trace, 3.0, 1000).kms(parse_element("i[1](z1 z5^-2@0)", system))
    assert out == json.dumps(sv.as_dict(), sort_keys=True) + "\n"


def test_trace_options_are_checked(capsys):
    code, _, err = run(
        capsys, "eval", "--system", "cuntz", "--trace", "haar",
        "--expr", "i[0](1@0)",
    )
    assert code == 2 and "does not apply to a scalar" in err

    code, _, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--trace", "fourier",
        "--expr", "i[1](1@0)",
    )
    assert code == 2 and "unknown trace 'fourier'" in err

    code, _, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--theta", "0.3",
        "--expr", "i[1](1@0)",
    )
    assert code == 2 and "theta only applies to point-mass" in err

    code, _, err = run(
        capsys, "eval", "--system", "lattice-dilation", "--d", "2",
        "--trace", "point-mass", "--theta", "0.2", "--expr", "i[1](1@0)",
    )
    assert code == 2 and "theta needs 2 angle(s), got 1" in err

    code, out, _ = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--trace", "point-mass", "--theta", "0.25", "--expr", "i[1](1@0)",
    )
    assert code == 0 and json.loads(out)["value"] == [1.0, 0.0]


@pytest.mark.parametrize("theta, expr, named", [
    ("nan", "i[1](S@0)", "angle nan is not finite"),
    ("inf", "i[1](S@0)", "angle inf is not finite"),
    ("1e308", "i[1](S^7@0)", "moment at degree (7,): phase inf is not finite"),
], ids=["nan", "inf", "1e308"])
def test_non_finite_trace_moments_are_usage_errors(capsys, theta, expr, named):
    # a non-finite angle is rejected when the trace is built; the phase
    # 7 * 1e308 overflows only when the state reads degree 7
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--trace", "point-mass",
        "--theta", theta, "--expr", expr,
    )
    assert code == 2 and out == ""
    assert named in err


def test_corrupt_flag_is_checked(capsys):
    base = ("verify", "--system", "affine-toeplitz", "--suite", "structure")
    code, _, err = run(capsys, *base, "--corrupt", "1,2,3")
    assert code == 2 and "six integers" in err
    code, _, err = run(capsys, *base, "--corrupt", "2,2,0,9,1,0")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, *base, "--corrupt", "2,2,0,1,0,1")
    assert code == 2 and "corrupt pairs must differ" in err


@pytest.mark.parametrize("item", [1.7, True, "1"])
def test_corrupt_list_items_follow_the_integer_rule(capsys, tmp_path, item):
    cfg = tmp_path / "corrupt.json"
    cfg.write_text(json.dumps({"corrupt": [2, 2, 0, item, 1, 0], "suite": "structure"}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: corrupt item must be an integer, got {json.dumps(item)}\n"


def test_corrupt_list_reads_an_integral_float_as_an_integer(capsys, tmp_path):
    cfg = tmp_path / "corrupt.json"
    cfg.write_text(json.dumps({"corrupt": [2, 2, 0, 1.0, 1, 0], "suite": "structure"}))
    code, out, _ = run(capsys, "verify", "--seed", "7", "--config", str(cfg))
    assert code == 1
    _, want, _ = run(capsys, "verify", "--seed", "7", "--suite", "structure",
                     "--corrupt", "2,2,0,1,1,0")
    assert out == want


# -- term budget ------------------------------------------------------------------


def test_term_budget_trips_with_exit_three(capsys):
    # two copies of the fiber-4 unit projection multiply into 16 raw
    # terms, past a budget of 10
    code, _, err = run(
        capsys, "eval", "--system", "cuntz",
        "--expr", "alpha[4](i[0](1@0)) * alpha[4](i[0](1@0))",
        "--term-budget", "10",
    )
    assert code == 3
    assert "raw-term cap (10)" in err
    assert "product of 16 x 16 terms" in err
    assert "fiber pair (r, g) = (4, 4)" in err

    code, out, _ = run(
        capsys, "eval", "--system", "cuntz",
        "--expr", "alpha[4](i[0](1@0)) * alpha[4](i[0](1@0))",
        "--term-budget", "1000",
    )
    assert code == 0
    # Gibbs weight of the fiber-4 projection at beta = 3 is 4^-4
    assert json.loads(out)["value"] == pytest.approx([4.0 ** -4, 0.0])


def test_huge_fiber_product_evaluates_without_densifying(capsys):
    # fiber 3000000 has 3000000 basis vectors; the product touches one
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--expr", "i[3000000](1@0) * adj(i[3000000](1@0))",
    )
    assert code == 0, err
    assert json.loads(out)["value"] == [0.0, 0.0]


def test_term_budget_lasts_for_the_call_only(capsys):
    before = get_term_budget()
    for budget, want in (("10", 3), ("1000", 0)):
        code, _, _ = run(
            capsys, "eval", "--system", "cuntz",
            "--expr", "alpha[4](i[0](1@0)) * alpha[4](i[0](1@0))",
            "--term-budget", budget,
        )
        assert code == want
        assert get_term_budget() == before


def test_coefficient_times_huge_fiber_reads_one_column(capsys):
    # S acts on fiber 300000 through one column of its left matrix
    code, out, err = run(
        capsys, "parse", "--system", "affine-toeplitz",
        "--expr", "i[1](S@0) * i[300000](1@0)",
    )
    assert code == 0, err
    assert out.strip() == "i[300000](((1+0i))@1) * adj(i[1](1@0))"


def test_hostile_exponent_evaluates_fast(capsys):
    # only divisors of 10^18 up to the window bound are visited
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--expr", "i[1](S^1000000000000000000@0)", "--beta", "3",
    )
    assert code == 0, err
    assert json.loads(out)["value"] == [0.0, 0.0]


def test_hostile_exponent_in_a_hostile_window_exits_three_fast(capsys):
    # the prime 10^18 + 3 leaves its cofactor whole, so trial division
    # would run to its square root inside this window; the budget stops it
    # at the division past the default cap
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz",
        "--expr", "i[1](S^1000000000000000003@0)", "--beta", "3", "--bound", "1000000000000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "degree 1000000000000000003" in err and "1000001 trial divisions" in err
    assert "(1000000)" in err


def test_divisor_scans_share_one_budget_per_evaluation(capsys):
    # factoring each 10^12 - 2j alone takes at most about 7 * 10^5 trial
    # divisions, under the cap; the hundred together take 7.5 * 10^6
    expr = " + ".join(f"i[1](S^{10**12 - 2 * j}@0)" for j in range(100))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--expr", expr,
        "--beta", "3", "--bound", "1000000000000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "divisor scans of this evaluation" in err and "(1000000)" in err


def test_hostile_window_evaluates_fast(capsys):
    # the window holds 10^12 elements; only a 2^20-term prefix is summed
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--system", "affine-toeplitz", "--expr", "i[1](1@0)",
        "--beta", "3", "--bound", "1000000000000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0, err
    payload = json.loads(out)
    assert payload["value"] == [1.0, 0.0]
    assert payload["truncation"] == 10**12
    # the zeta tail 1/B of sum s^(-2), over zeta = pi^2/6 - 1/B
    assert payload["tail"] == pytest.approx(1e-12 / (math.pi**2 / 6), rel=1e-9)

    # a window longer than sys.maxsize still works; past the float range
    # the bound is a usage error
    for system, expr in (("affine-toeplitz", "i[1](1@0)"), ("cuntz", "i[0](1@0)")):
        code, out, err = run(capsys, "eval", "--system", system, "--expr", expr,
                             "--bound", str(10**30))
        assert code == 0, err
        assert json.loads(out)["truncation"] == 10**30
        code, out, err = run(capsys, "eval", "--system", system, "--expr", expr,
                             "--bound", str(10**400))
        assert code == 2 and out == "" and err.startswith("error:")


def test_term_budget_must_be_positive(capsys):
    code, _, err = run(
        capsys, "eval", "--system", "cuntz", "--expr", "i[0](1@0)",
        "--term-budget", "0",
    )
    assert code == 2 and "term_budget must be positive" in err
