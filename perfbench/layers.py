"""Per-layer tracing installed from outside the engine.

`install()` wraps the public functions listed in TRACED in an already
imported `superpi`.  Modules bind their dependencies with
`from .x import y`, so every module attribute that holds an original
function is rebound to its wrapper; methods are replaced on their class.

Spans are aggregated per name rather than stored per call (Poly.mul alone
runs about 470k times on pi-grassmannian-24).  For each name the tracer
keeps:

  calls    every activation, recursive ones included;
  total_s  time of outermost activations only (poly_gcd recurses);
  self_s   time of all activations minus the part covered by traced
           children and by the counter observers below.

It also keeps exact counters that repeat from run to run: the shape and
nonzeros of the largest solve_fraction_system call, the share of
poly_gcd calls with a non-constant result, and the largest RatFun
numerator or denominator (terms and coefficient bits) returned by a
traced call.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path) of every traced function, in report order.
TRACED = (
    ("rational", "Poly.__mul__"),
    ("rational", "RatFun.__add__"),
    ("rational", "RatFun.__mul__"),
    ("rational", "poly_gcd"),
    ("rational", "poly_exact_div"),
    ("rational", "solve_fraction_system"),
    ("rational", "rat_solve"),
    ("rational", "rat_mat_inverse"),
    ("cohomology", "pullback_tensor"),
    ("cohomology", "extract_obstruction"),
    ("cohomology", "lifting_verify"),
    ("cohomology", "coboundary_solve"),
    ("superalgebra", "substitute"),
    ("superalgebra", "SuperFunction.__mul__"),
    ("superalgebra", "SuperFunction.invert"),
    ("atlas", "compose"),
    ("atlas", "check_cocycle"),
    ("atlas", "super_jacobian"),
    ("atlas", "check_berezinian_trivial"),
    ("supermatrix", "smat_inverse"),
    ("supermatrix", "SuperMatrix.__mul__"),
    ("supermatrix", "berezinian"),
    ("supermatrix", "even_det"),
    ("builders", "transformed_cell"),
    ("builders", "derive_transition_from_cells"),
    ("builders", "check_pi_symmetric"),
    ("suites", "suite_pi_projective"),
    ("suites", "suite_projective_superspace"),
    ("suites", "suite_grassmannian"),
    ("suites", "suite_pi_grassmannian_24"),
    ("suites", "suite_lifting"),
    ("suites", "suite_obstruction"),
    ("report", "VerificationReport.to_json"),
)

# Exact counters besides the per-function ones: name -> unit.
COUNTERS = {
    "rational.solve_fraction_system.rows": "count",
    "rational.solve_fraction_system.cols": "count",
    "rational.solve_fraction_system.nnz": "count",
    "rational.poly_gcd.nontrivial_ratio": "ratio",
    "rational.max_terms": "terms",
    "rational.max_coeff_bits": "bits",
}

# Per-function metrics: suffix -> unit.
PER_FUNCTION = {"calls": "count", "total_s": "s", "self_s": "s"}


def metric_name(module: str, path: str) -> str:
    """`rational.Poly.__mul__` is reported as `rational.Poly.mul`."""
    parts = [p[2:-2] if p.startswith("__") and p.endswith("__") else p for p in path.split(".")]
    return ".".join([module] + parts)


class Tracer:
    """Aggregated spans and counters for one traced interpreter."""

    def __init__(self):
        # name -> [calls, total_s, self_s, active depth]
        self.spans = {metric_name(m, p): [0, 0.0, 0.0, 0] for m, p in TRACED}
        self.counters = {name: 0 for name in COUNTERS}
        self._gcd_nontrivial = 0
        self._largest_system = 0
        # Time covered by traced children, one slot per open activation.
        self._child_time: list[float] = []

    def wrap(self, name, fn, observe=None):
        span = self.spans[name]
        child_time = self._child_time

        def traced(*args, **kwargs):
            span[0] += 1
            span[3] += 1
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                span[3] -= 1
                if span[3] == 0:
                    span[1] += elapsed
                span[2] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
            if observe is not None:
                # Observer work is harness cost: it is counted as covered
                # time of the caller, so it is in no function's self_s.
                began = perf_counter()
                observe(args, result)
                if child_time:
                    child_time[-1] += perf_counter() - began
            return result

        return traced

    # -- observers for the exact counters ------------------------------------

    def _observe_system(self, args, result):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        if len(rows) * cols > self._largest_system:
            self._largest_system = len(rows) * cols
            self.counters["rational.solve_fraction_system.rows"] = len(rows)
            self.counters["rational.solve_fraction_system.cols"] = cols
            self.counters["rational.solve_fraction_system.nnz"] = sum(
                1 for row in rows for value in row if value
            )

    def _observe_gcd(self, args, result):
        if result.is_constant() is None:
            self._gcd_nontrivial += 1

    def _observe_ratfun(self, args, result):
        for poly in (result.num, result.den):
            terms = poly.terms
            if len(terms) > self.counters["rational.max_terms"]:
                self.counters["rational.max_terms"] = len(terms)
            bits = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()),
                default=0,
            )
            if bits > self.counters["rational.max_coeff_bits"]:
                self.counters["rational.max_coeff_bits"] = bits

    def _observe_ratfun_rows(self, args, result):
        for row in result:
            for value in row if isinstance(row, list) else (row,):
                self._observe_ratfun(args, value)

    def install(self, package) -> None:
        """Wrap every TRACED function of an imported `superpi` package."""
        observers = {
            "rational.solve_fraction_system": self._observe_system,
            "rational.poly_gcd": self._observe_gcd,
            "rational.RatFun.add": self._observe_ratfun,
            "rational.RatFun.mul": self._observe_ratfun,
            "rational.rat_solve": self._observe_ratfun_rows,
            "rational.rat_mat_inverse": self._observe_ratfun_rows,
        }
        prefix = package.__name__
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == prefix or key.startswith(prefix + ".")
        ]
        for module_name, path in TRACED:
            name = metric_name(module_name, path)
            owner = sys.modules[f"{prefix}.{module_name}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, observers.get(name))
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def metrics(self) -> dict[str, float]:
        """Every per-function metric and exact counter, by metric name."""
        out: dict[str, float] = {}
        for name, (calls, total, self_time, _) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_time
        out.update(self.counters)
        gcd_calls = self.spans["rational.poly_gcd"][0]
        out["rational.poly_gcd.nontrivial_ratio"] = (
            self._gcd_nontrivial / gcd_calls if gcd_calls else 0.0
        )
        return out
