"""Spans and counters around the public functions of each ntkms layer.

Nothing here reaches inside the package: the tracer replaces class and
module attributes with wrappers, and the wrappers see only the
arguments and return values of the calls they wrap.  Hit ratios are
derived from the keys a wrapper sees (a repeat of a key it has already
seen counts as a hit), never from the package's private memo tables.

Each wrapped call is a span ``(name, start, end, parent, item)``.  Spans
stay in memory and are written out once, at the end of the run.  Calls
of the hot leaf functions (coefficient arithmetic, basis vectors and
index maps, millions per pass) are counted and timed but not stored as
spans: their time is still subtracted from the self time of the span
that called them.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import weakref
from array import array
from time import perf_counter

# (module, attribute path, metric base name, hot leaf)
TARGETS = (
    ("ntkms.coeff", "CoefficientElement.__init__", "coeff.init", True),
    ("ntkms.coeff", "CoefficientElement.__mul__", "coeff.mul", True),
    ("ntkms.coeff", "CoefficientElement.__add__", "coeff.add", True),
    ("ntkms.product_system", "ProductSystem.module_product", "product_system.module_product", False),
    ("ntkms.product_system", "ProductSystem.left_matrix", "product_system.left_matrix", True),
    ("ntkms.product_system", "ProductSystem.basis_vector", "product_system.basis_vector", True),
    ("ntkms.product_system", "ProductSystem.validate", "product_system.validate", False),
    ("ntkms.product_system", "AffineToeplitzSystem.index_map", "product_system.index_map", True),
    ("ntkms.product_system", "TorusDilationSystem.index_map", "product_system.index_map", True),
    ("ntkms.product_system", "CuntzSystem.index_map", "product_system.index_map", True),
    ("ntkms.product_system", "AffineToeplitzSystem.index_split", "product_system.index_split", True),
    ("ntkms.product_system", "TorusDilationSystem.index_split", "product_system.index_split", True),
    ("ntkms.product_system", "CuntzSystem.index_split", "product_system.index_split", True),
    ("ntkms.nt", "NTElement.__mul__", "nt.mul", False),
    ("ntkms.nt", "NTElement.__add__", "nt.add", False),
    ("ntkms.nt", "NTElement.alpha", "nt.alpha", False),
    ("ntkms.nt", "NTElement.adjoint", "nt.adjoint", False),
    ("ntkms.states", "KMSContext.__init__", "states.context", False),
    ("ntkms.states", "KMSContext.z_value", "states.z_value", False),
    ("ntkms.states", "KMSContext.omega", "states.omega", False),
    ("ntkms.states", "KMSContext.kms", "states.kms", False),
    ("ntkms.semigroup", "TruncationSet.__init__", "semigroup.truncation", False),
    ("ntkms.fock", "TruncatedFock.represent", "fock.represent", False),
    ("ntkms.fock", "TruncatedFock.creation", "fock.creation", False),
    ("ntkms.dsl", "parse_element", "dsl.parse", False),
    ("ntkms.cli", "main", "cli.main", False),
    ("ntkms.verify", "structure_reports", "verify.check", False),
    ("ntkms.verify", "check_projection_covariance", "verify.check", False),
    ("ntkms.verify", "check_corner_center", "verify.check", False),
    ("ntkms.verify", "check_kms_condition", "verify.check", False),
    ("ntkms.verify", "check_core_trace_property", "verify.check", False),
    ("ntkms.verify", "check_ground", "verify.check", False),
    ("ntkms.verify", "check_ground_limit", "verify.check", False),
    ("ntkms.verify", "check_scaling_identity", "verify.check", False),
    ("ntkms.verify", "check_euler", "verify.check", False),
    ("ntkms.verify", "check_inclusion_exclusion", "verify.check", False),
    ("ntkms.verify", "check_reconstruction", "verify.check", False),
    ("ntkms.verify", "check_fock_product", "verify.check", False),
    ("ntkms.verify", "check_fock_state", "verify.check", False),
    ("ntkms.verify", "check_fock_nica", "verify.check", False),
)

# Check names as `ntkms verify` prints them, mapped to metric-safe form.
VERIFY_CHECKS = (
    "structure",
    "algebra:projection-covariance",
    "algebra:corner-commutes-with-projections",
    "fock:representation-multiplicative",
    "fock:state-agreement",
    "fock:nica-covariance",
    "state:kms-condition",
    "state:scaling-identity",
    "state:core-trace",
    "state:ground",
    "state:ground-limit",
    "reconstruct:inclusion-exclusion",
    "reconstruct:trace-recovery",
    "state:euler-product",
)

# Systems whose structure the verify workload validates.
VALIDATED_SYSTEMS = ("affine-toeplitz", "cuntz(2)")

SPAN_CAP = 2_000_000


def metric_safe(name: str) -> str:
    """'state:kms-condition' -> 'state.kms-condition', 'cuntz(2)' -> 'cuntz-2'."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", name.replace(":", ".")).strip("-")


def _check_span_name(result) -> str:
    # structure_reports returns a list of reports; it is one span
    if isinstance(result, list):
        return "verify.check.structure"
    return "verify.check." + metric_safe(result.name)


class Tracer:
    """Wraps the targets, records spans and per-name call statistics."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per phase ("setup" or "pass"): statistics, name -> [calls, self s,
        # total s], and counters; phase() points stats and counters at one
        self.phases: dict[str, tuple[dict, dict]] = {}
        self.phase("pass")
        self.stack: list[list] = []  # frames: [child seconds, span index]
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.spans_dropped = 0
        self._left_keys = weakref.WeakKeyDictionary()
        self._z_keys = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def phase(self, name: str) -> None:
        """Direct statistics and counters to the tables of phase ``name``."""
        self.stats, self.counters = self.phases.setdefault(name, ({}, {}))

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @staticmethod
    def _seen(table, owner, key) -> bool:
        """Record one lookup of ``key`` under ``owner``; True on a repeat."""
        keys = table.get(owner)
        if keys is None:
            keys = table[owner] = set()
        if key in keys:
            return True
        keys.add(key)
        return False

    def reset_keys(self) -> None:
        self._left_keys = weakref.WeakKeyDictionary()
        self._z_keys = weakref.WeakKeyDictionary()

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool, namer=None, after=None):
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            if hot or len(tracer.span_start) >= SPAN_CAP:
                if not hot:
                    tracer.spans_dropped += 1
                frame = [0.0, parent]
                idx = -1
            else:
                idx = len(tracer.span_start)
                frame = [0.0, idx]
                tracer.span_name.append(0)
                tracer.span_parent.append(parent)
                tracer.span_item.append(tracer.item)
                tracer.span_end.append(0.0)
                tracer.span_start.append(0.0)
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                # a call that raised keeps its static name
                label = namer(args, result) if ok and namer is not None else name
                st = tracer.stats.get(label)
                if st is None:
                    st = tracer.stats[label] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - frame[0]
                st[2] += dur
                if idx >= 0:
                    tracer.span_name[idx] = tracer._name_id(label)
                    tracer.span_start[idx] = t0
                    tracer.span_end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, name: str, path: str):
        """Per-target (namer, after) pairs that derive the layer ratios."""
        if name == "verify.check":
            return (lambda args, res: _check_span_name(res)), None
        if name == "product_system.validate":
            return (lambda args, res: name + "." + metric_safe(args[0].name)), None
        if name == "coeff.init":
            def after(args, res):
                self.count("coeff.elements_built")
                if not args[0].terms:
                    self.count("coeff.zero_built")
            return None, after
        if name == "product_system.left_matrix":
            def after(args, res):
                system, s, a = args[0], args[1], args[2]
                for mon in a.terms:
                    self.count("product_system.left_memo.lookups")
                    if self._seen(self._left_keys, system, (s, mon)):
                        self.count("product_system.left_memo.repeats")
            return None, after
        if name == "states.z_value":
            def after(args, res):
                self.count("states.z_cache.lookups")
                if self._seen(self._z_keys, args[0], args[1]):
                    self.count("states.z_cache.repeats")
            return None, after
        if name == "states.context":
            def after(args, res):
                size = len(args[0].trunc)
                self.counters["states.window_size"] = max(
                    self.counters.get("states.window_size", 0), size
                )
            return None, after
        if name == "nt.mul":
            def after(args, res):
                self.count("nt.mul.out_terms", res.term_count)
            return None, after
        return None, None

    def install(self) -> None:
        """Replace every target with its wrapper, in every ntkms module
        that holds a reference to it."""
        for module_name, path, name, hot in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            namer, after = self._hooks(name, path)
            wrapped = self._wrap(original, name, hot, namer, after)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
            if not isinstance(owner, type):
                # module-level function: rebind every `from x import f` copy,
                # in the package and in the benchmark's workloads
                for mod_name, mod in list(sys.modules.items()):
                    if mod is module or not (
                        mod_name.startswith("ntkms") or mod_name == "workloads"
                    ):
                        continue
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def layer_metrics(self, passes: int, tail_violations: int) -> dict[str, float]:
        """Per-layer metrics per traced pass; dsl.parse per traced set-up,
        the only place the workloads parse."""
        stats, counters = self.phases.get("pass", ({}, {}))
        setup_stats = self.phases.get("setup", ({}, {}))[0]
        per = 1.0 / max(1, passes)

        def ratio(hits, total):
            t = counters.get(total, 0)
            return counters.get(hits, 0) / t if t else 0.0

        out: dict[str, float] = {}
        for base in (
            "coeff.mul", "coeff.add",
            "product_system.module_product", "product_system.left_matrix",
            "product_system.basis_vector", "product_system.index_map",
            "product_system.index_split",
            "nt.mul", "nt.add", "nt.alpha", "nt.adjoint",
            "states.context", "states.z_value", "states.omega",
            "semigroup.truncation", "fock.represent", "fock.creation",
            "dsl.parse", "cli.main",
        ):
            table, scale = (setup_stats, 1.0) if base == "dsl.parse" else (stats, per)
            calls, self_s, _ = table.get(base, (0, 0.0, 0.0))
            out[base + ".calls"] = calls * scale
            out[base + ".self_s"] = self_s * scale
        built = counters.get("coeff.elements_built", 0)
        zero = counters.get("coeff.zero_built", 0)
        out["coeff.elements_built"] = built * per
        out["coeff.zero_built"] = zero * per
        out["coeff.useful_ratio"] = 1.0 - zero / built if built else 0.0
        out["product_system.left_memo.hit_ratio"] = ratio(
            "product_system.left_memo.repeats", "product_system.left_memo.lookups"
        )
        validate = [v for k, v in stats.items() if k.startswith("product_system.validate.")]
        out["product_system.validate.calls"] = sum(v[0] for v in validate) * per
        out["product_system.validate.self_s"] = sum(v[1] for v in validate) * per
        for system in VALIDATED_SYSTEMS:
            key = "product_system.validate." + metric_safe(system)
            out[key + ".self_s"] = stats.get(key, (0, 0.0, 0.0))[1] * per
        out["nt.mul.out_terms"] = counters.get("nt.mul.out_terms", 0) * per
        out["states.window_size"] = float(counters.get("states.window_size", 0))
        out["states.z_cache.hit_ratio"] = ratio("states.z_cache.repeats", "states.z_cache.lookups")
        out["states.tail_violations"] = float(tail_violations)
        for check in VERIFY_CHECKS:
            key = "verify.check." + metric_safe(check)
            _, self_s, total_s = stats.get(key, (0, 0.0, 0.0))
            out[key + ".self_s"] = self_s * per
            out[key + ".total_s"] = total_s * per
        return out

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.uint32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
        )
