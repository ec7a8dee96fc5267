"""Per-layer spans recorded from outside the package.

The tracer replaces the module attributes through which one nilelab layer
calls the next (for example ``nilelab.verify.ks_2samp``, which ``verify``
looks up as a module global on every call) with timing wrappers.  Nothing
under ``src/`` changes.  A wrapped attribute that no longer exists raises
``MissingAttribute`` at install time: a renamed boundary must fail the
traced run, not report zero work.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass


class MissingAttribute(RuntimeError):
    """A boundary the tracer wraps is gone from the package."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same thread
    thread: int
    counts: dict


def _run_grid_counts(args, result):
    # run_grid(token, grid, n, c, config, names) -> (per-point dicts, degenerate)
    grid, config = args[1], args[4]
    per_point = result[0]
    return {"verify.run_grid.replicates": config.replicates * len(list(grid)),
            "verify.run_grid.result_bytes": sum(a.nbytes for point in per_point
                                                for a in point.values())}


def _h_star_counts(args, result):
    return {"estimators.h_star_vector.elements": int(result.size)}


def _laplace_counts(args, result):
    return {"quadrature.laplace_integral.neval": int(result.evaluations)}


def _report_counts(args, result):
    return {"cli.report_bytes": sum(p.stat().st_size for p in result)}


#: Verifier entry points called by ``nilelab.cli``; their self time (span
#: minus child spans) is the decide step.
VERIFIERS = ("verify_ancillarity", "verify_first_order", "verify_independence",
             "rao_zero_cov", "cond_moment_dependence", "variance_table",
             "zero_mean_from_ancillary")

#: (module, attribute, span name, count function).  Each attribute is the
#: name under which the calling module looks the callee up.
BOUNDARIES = (
    [("nilelab.verify", v, "verify.decide", None) for v in VERIFIERS]
    + [
        ("nilelab.verify", "run_grid", "verify.run_grid", _run_grid_counts),
        ("nilelab.verify", "ks_2samp", "verify.ks_2samp", None),
        ("nilelab.verify", "chi2_contingency", "verify.chi2_contingency", None),
        ("nilelab.verify", "fisher_info", "verify.fisher_info", None),
        ("nilelab.verify", "h_star_vector", "estimators.h_star_vector", _h_star_counts),
        ("nilelab.verify", "cond_second_moment_ratio",
         "quadrature.cond_second_moment_ratio", None),
        ("nilelab.estimators", "cond_moment", "quadrature.cond_moment", None),
        ("nilelab.selftest", "laplace_integral", "quadrature.laplace_integral",
         _laplace_counts),
        # bessel_k is reached from selftest directly and, through
        # laplace_integral_bessel, from inside quadrature itself
        ("nilelab.selftest", "bessel_k", "quadrature.bessel_k", None),
        ("nilelab.quadrature", "bessel_k", "quadrature.bessel_k", None),
        ("nilelab.selftest", "quadrature_selftest", "selftest.quadrature_selftest", None),
        ("nilelab.selftest", "constraint_selftest", "selftest.constraint_selftest", None),
        ("nilelab.cli", "write_report", "cli.write_report", _report_counts),
    ]
)

#: Per-layer metrics a traced pass reports, in output order.
TIMED = ("verify.run_grid", "verify.ks_2samp", "verify.chi2_contingency",
         "verify.fisher_info", "estimators.h_star_vector", "quadrature.cond_moment",
         "quadrature.cond_second_moment_ratio", "quadrature.laplace_integral",
         "quadrature.bessel_k", "selftest.quadrature_selftest",
         "selftest.constraint_selftest", "cli.write_report")
CALLS = ("verify.run_grid", "verify.ks_2samp", "estimators.h_star_vector",
         "quadrature.cond_moment", "quadrature.cond_second_moment_ratio",
         "quadrature.laplace_integral", "quadrature.bessel_k", "cli.write_report")
COUNTS = ("verify.run_grid.replicates", "verify.run_grid.result_bytes",
          "estimators.h_star_vector.elements", "quadrature.laplace_integral.neval",
          "cli.report_bytes")


class Tracer:
    """Installs the boundary wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def install(self):
        targets = []
        wrappers = {}
        for mod_name, attr, span_name, count_fn in BOUNDARIES:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise MissingAttribute(f"{mod_name}.{attr} is missing; the traced "
                                       f"boundary {span_name!r} must be re-pointed")
            targets.append((module, attr, fn, span_name, count_fn))
        for module, attr, fn, span_name, count_fn in targets:
            # one wrapper per function, so a callee imported under two names
            # is still timed once per call
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span_name, count_fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span_name, count_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(Span(span_name, 0.0, 0.0, parent,
                                         threading.get_ident(), {}))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = tracer.spans[index]
                span.start, span.end = start, end
            if count_fn is not None:
                span.counts = count_fn(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def metrics(self) -> dict:
        """Aggregate the spans into the per-layer metrics (seconds and counts)."""
        out = {}
        for name in TIMED:
            out[f"{name}.s"] = 0.0
        for name in CALLS:
            out[f"{name}.calls"] = 0
        for name in COUNTS:
            out[name] = 0
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        decide_self = 0.0
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            if span.name == "verify.decide":
                decide_self += dur - child_s[i]
                continue
            out[f"{span.name}.s"] += dur
            if f"{span.name}.calls" in out:
                out[f"{span.name}.calls"] += 1
            for k, v in span.counts.items():
                out[k] += v
        out["verify.decide.self_s"] = decide_self
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, **s.counts}
                for s in self.spans]
