"""Per-layer tracing of tnnflag from outside the package.

``Tracer.install`` replaces the traced functions in every tnnflag module
namespace that binds them (``mat_mul`` is imported into ``flag``,
``richardson`` and ``audit``, for instance) and counts ``Fraction``
arithmetic by patching the class.  ``uninstall`` restores everything.

- A spanned function records a span (name, parent span, start, end) each
  time it is entered.  A call made while the innermost open span already
  has the same name (recursion, or a public function delegating to its
  private worker) is folded into that span and not counted again.
- A counted function only has its calls counted: it is called too often
  for a span, and its time stays in the enclosing span.
- Each ``Fraction`` operation (+, -, *, /, unary -) is charged to the layer
  of the innermost open span.

Spans are kept in memory; ``summary`` computes self times from them and
``dump`` writes them out.
"""

from __future__ import annotations

import fractions
import json
from array import array
from time import perf_counter

LAYERS = ("weyl", "linalg", "flag", "richardson", "audit", "cli")

# (metric name, attribute names bound in the defining module)
SPANNED = (
    ("weyl.bruhat_pairs", ("bruhat_pairs",)),
    ("linalg.mat_mul", ("mat_mul",)),
    ("linalg.bruhat_factor_plus", ("bruhat_factor_plus",)),
    ("linalg.opposite_big_cell_factor", ("opposite_big_cell_factor",)),
    ("flag.borel_from", ("borel_from",)),
    ("flag.stratum", ("stratum",)),
    ("flag.relative_position", ("relative_position",)),
    ("richardson.build_chart", ("build_chart",)),
    ("richardson.base_point", ("base_point",)),
    ("richardson.phi_down", ("phi_down",)),
    ("richardson.phi_up", ("phi_up",)),
    ("richardson.psi", ("psi", "_psi_with")),
    ("richardson.psi_inv", ("psi_inv", "_psi_inv_with")),
    ("richardson.eval_chart", ("eval_chart",)),
    ("richardson.invert_chart", ("invert_chart", "_invert")),
    ("richardson.classify", ("classify",)),
    ("audit.is_tnn_lower", ("is_tnn_lower",)),
    ("audit.audit_decomposition", ("audit_decomposition",)),
    ("audit.audit_semigroup", ("audit_semigroup",)),
    ("cli.main", ("main",)),
)
COUNTED = (
    ("weyl.bruhat_leq", "bruhat_leq"),
    ("weyl.peel", "peel"),
    ("linalg.mat_inv", "mat_inv"),
    ("linalg.det", "det"),
)
RAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def _bindings(modules, obj):
    """Every (module, name) whose value is ``obj``."""
    return [(m, k) for m in modules for k, v in vars(m).items() if v is obj]


class Tracer:
    def __init__(self, tnnflag):
        self.pkg = tnnflag
        self.modules = [tnnflag] + [getattr(tnnflag, layer) for layer in LAYERS]
        self.names = [name for name, _ in SPANNED]
        # layer index 0 collects work outside every span
        self.layer_of = [1 + LAYERS.index(n.split(".")[0]) for n in self.names]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.stack: list[int] = []
        self.layer = [0]
        self.rat_ops = [0] * (1 + len(LAYERS))
        self.calls = {name: 0 for name, _ in COUNTED}
        self.mat_mul_products = 0
        self.mat_mul_useful = 0
        self._restore: list[tuple[object, str, object]] = []
        self._chart_cache = tnnflag.richardson.build_chart.cache_info
        self._cache0 = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = self.pkg
        for name_id, (name, attrs) in enumerate(SPANNED):
            home = getattr(pkg, name.split(".")[0])
            for attr in attrs:
                self._replace(getattr(home, attr), self._spanned(name_id, getattr(home, attr)))
        for name, attr in COUNTED:
            home = getattr(pkg, name.split(".")[0])
            self._replace(getattr(home, attr), self._counted(name, getattr(home, attr)))
        for op in RAT_OPS:
            orig = fractions.Fraction.__dict__[op]
            self._restore.append((fractions.Fraction, op, orig))
            setattr(fractions.Fraction, op, self._rat_op(orig))
        self._cache0 = self._build_chart_cache()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _replace(self, orig, wrapped) -> None:
        for module, attr in _bindings(self.modules, orig):
            self._restore.append((module, attr, orig))
            setattr(module, attr, wrapped)

    def _build_chart_cache(self):
        info = self._chart_cache()
        return info.hits, info.misses

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name_id: int, fn):
        stack, layer = self.stack, self.layer
        names, parents, t0s, t1s = (
            self.span_name, self.span_parent, self.span_t0, self.span_t1)
        layer_id = self.layer_of[name_id]
        count_useful = self.names[name_id] == "linalg.mat_mul"

        def wrapped(*args, **kwargs):
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            if count_useful:
                self._count_products(*args[:2])
            idx = len(t0s)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            outer = layer[0]
            layer[0] = layer_id
            t0s[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
                layer[0] = outer

        return wrapped

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _rat_op(self, orig):
        counts, layer = self.rat_ops, self.layer

        def op(*args):
            counts[layer[0]] += 1
            return orig(*args)

        return op

    def _count_products(self, a, b) -> None:
        """Scalar products of a*b, and those whose two factors are nonzero."""
        n = len(a)
        col_nnz = [sum(1 for row in a if row[k] != 0) for k in range(n)]
        row_nnz = [sum(1 for x in row if x != 0) for row in b]
        self.mat_mul_products += n * n * n
        self.mat_mul_useful += sum(c * r for c, r in zip(col_nnz, row_nnz))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: calls and self time per function and layer."""
        n_spans = len(self.span_t0)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        for i in range(n_spans):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n_spans):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += dur[i] - child[i]

        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            if name == "cli.main":
                out["cli.main.self_s"] = self_s[name_id]
                continue
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = sum(
                s for s, lid in zip(self_s, self.layer_of) if lid == k + 1)
            out[f"{layer}.rat_ops"] = self.rat_ops[k + 1]

        out["linalg.mat_mul.useful_frac"] = _ratio(
            self.mat_mul_useful, self.mat_mul_products)
        hits0, misses0 = self._cache0
        hits1, misses1 = self._build_chart_cache()
        out["richardson.build_chart.hit_ratio"] = _ratio(
            hits1 - hits0, (hits1 - hits0) + (misses1 - misses0))
        classify_id = self.names.index("richardson.classify")
        eval_id = self.names.index("richardson.eval_chart")
        verify = sum(dur[i] for i in range(n_spans)
                     if self.span_name[i] == eval_id
                     and self.span_parent[i] >= 0
                     and self.span_name[self.span_parent[i]] == classify_id)
        total = sum(dur[i] for i in range(n_spans) if self.span_name[i] == classify_id)
        out["richardson.classify.verify_share"] = _ratio(verify, total)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [name, parent index, start, end]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_t0)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_parent[i],
                    self.span_t0[i], self.span_t1[i],
                ]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
