"""Spans and counts around cmvkit's public functions, from outside the package.

``Tracer.install`` replaces every module binding of each wrapped function
inside the loaded ``cmvkit`` modules: ``assemble`` is imported by name into
``weyl``, ``greens``, ``decoupling`` and ``cli.suites``, so patching the
defining module alone would miss most calls. Methods are patched on their
class, and the verify suites through the ``SUITES`` dict.

A span is (name, start, end, parent span, op id). Spans stay in memory
until ``write`` is called at the end of the run. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module, attribute, span name). A dotted attribute names a method.
SPANNED = (
    ("cmvkit.coefficients", "defect_matrices", "coefficients.defect"),
    ("cmvkit.coefficients", "theta_block", "coefficients.defect"),
    ("cmvkit.coefficients", "principal_unitary_sqrt", "coefficients.sqrt"),
    ("cmvkit.coefficients", "VerblunskyCoefficient.__init__", "coefficients.build"),
    ("cmvkit.coefficients", "VerblunskySequence.__init__", "coefficients.build"),
    ("cmvkit.cli.ensembles", "generate", "coefficients.build"),
    ("cmvkit.assembly", "assemble", "assembly.assemble"),
    ("cmvkit.assembly", "assemble_split", "assembly.assemble"),
    ("cmvkit.laurent", "transfer", "laurent.transfer"),
    ("cmvkit.laurent", "transfer_inverse", "laurent.transfer"),
    ("cmvkit.laurent", "propagate", "laurent.propagate"),
    ("cmvkit.laurent", "seed_family", "laurent.seed"),
    ("cmvkit.laurent", "window_family", "laurent.seed"),
    ("cmvkit.weyl", "m_function", "weyl.m_dense"),
    ("cmvkit.weyl", "m_from_edge_condition", "weyl.m_edge"),
    ("cmvkit.weyl", "M_function", "weyl.solution"),
    ("cmvkit.weyl", "weyl_solution", "weyl.solution"),
    ("cmvkit.weyl", "spectral_sample", "weyl.sample"),
    ("cmvkit.greens", "half_lattice_green", "greens.half_call"),
    ("cmvkit.greens", "full_green_entries", "greens.full_call"),
    ("cmvkit.greens", "dense_resolvent_entry", "greens.oracle"),
    ("cmvkit.decoupling", "decoupling_report", "decoupling.report"),
    ("cmvkit.decoupling", "numerical_rank", "decoupling.rank"),
    ("cmvkit.analytic", "herglotz_eval", "analytic.herglotz"),
)

# Calls that read one site of a solution family or Weyl solution.
SITE_READS = (
    ("cmvkit.laurent", "SolutionFamily.at"),
    ("cmvkit.weyl", "WeylSolution.at"),
)

# metric name -> span names whose self time it sums
SELF_TIME = {
    "coefficients.defect_s": ("coefficients.defect",),
    "coefficients.sqrt_s": ("coefficients.sqrt",),
    "coefficients.build_s": ("coefficients.build",),
    "assembly.assemble_s": ("assembly.assemble",),
    "laurent.propagate_s": ("laurent.propagate", "laurent.transfer", "laurent.seed"),
    "weyl.m_dense_s": ("weyl.m_dense",),
    "weyl.m_edge_s": ("weyl.m_edge",),
    "weyl.solution_s": ("weyl.solution",),
    "weyl.sample_s": ("weyl.sample",),
    "greens.half_call_s": ("greens.half_call",),
    "greens.full_call_s": ("greens.full_call",),
    "greens.oracle_s": ("greens.oracle",),
    "decoupling.report_s": ("decoupling.report",),
    "decoupling.rank_s": ("decoupling.rank",),
    "analytic.herglotz_s": ("analytic.herglotz",),
}

# metric name -> wrapped function whose calls it counts
CALLS = {
    "coefficients.defect_calls": ("defect_matrices", "theta_block"),
    "assembly.assemble_calls": ("assemble", "assemble_split"),
    "laurent.transfer_calls": ("transfer", "transfer_inverse"),
    "weyl.m_dense_calls": ("m_function",),
    "greens.oracle_calls": ("dense_resolvent_entry",),
    "decoupling.report_calls": ("decoupling_report",),
}

COMPLEX_BYTES = 16
DENSE_MATRICES_PER_ASSEMBLY = 3   # V, W and U = V W


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while installed; one per process."""

    def __init__(self):
        self.names = []          # span name per span
        self.starts = []
        self.ends = []
        self.parents = []        # index of the parent span, -1 for a root
        self.ops = []            # op id per span
        self.stack = []
        self.op_id = -1
        self.calls = {}          # wrapped function name -> call count
        self.site_reads = 0
        self.dense_bytes = 0
        self.suite_names = ()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, count_key: str | None = None):
        """Wrap fn so that each call records a span named name."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack, calls = self.parents, self.ops, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            if count_key is not None:
                calls[count_key] = calls.get(count_key, 0) + 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def run_op(self, op_id: int, name: str, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op_id = op_id
        return self.span(name, fn)(*args)

    def _reader(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.site_reads += 1
            return fn(*args, **kwargs)
        return wrapper

    def _assembler(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assembled = fn(*args, **kwargs)
            n = assembled.U.shape[0]
            self.dense_bytes += DENSE_MATRICES_PER_ASSEMBLY * n * n * COMPLEX_BYTES
            return assembled
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cmvkit" or name.startswith("cmvkit."))]
        for mod_name, dotted, span_name in SPANNED:
            owner, attr = _resolve(sys.modules[mod_name], dotted)
            original = getattr(owner, attr)
            inner = self._assembler(original) if span_name == "assembly.assemble" else original
            wrapped = self.span(span_name, inner, count_key=attr)
            if "." in dotted:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        for mod_name, dotted in SITE_READS:
            owner, attr = _resolve(sys.modules[mod_name], dotted)
            setattr(owner, attr, self._reader(getattr(owner, attr)))
        suites = sys.modules["cmvkit.cli.suites"].SUITES
        self.suite_names = tuple(suites)
        for name, fn in list(suites.items()):
            suites[name] = self.span(f"cli.suite.{name}", fn)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (self.ends[i] - self.starts[i] - child[i])
        return out

    def inclusive(self, name: str) -> float:
        """Summed duration of the spans of one name not nested in another."""
        total = 0.0
        for i in (i for i, n in enumerate(self.names) if n == name):
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def metrics(self) -> dict:
        """Per-layer metrics as (value, unit) pairs."""
        st = self.self_times()
        out = {k: (sum(st.get(n, 0.0) for n in names), "s")
               for k, names in SELF_TIME.items()}
        for key, fns in CALLS.items():
            out[key] = (sum(self.calls.get(f, 0) for f in fns), "count")
        out["assembly.dense_bytes"] = (self.dense_bytes, "bytes")
        transfers = out["laurent.transfer_calls"][0]
        propagate = self.inclusive("laurent.propagate")
        out["laurent.s_per_site"] = (propagate / transfers if transfers else 0.0, "s")
        out["laurent.sites_read_ratio"] = (
            self.site_reads / transfers if transfers else 0.0, "ratio")
        for name in self.suite_names:
            out[f"cli.suite.{name}_s"] = (self.inclusive(f"cli.suite.{name}"), "s")
        return out

    def write(self, path):
        """Write every span as columns; times in ns from the first span."""
        t0 = min(self.starts) if self.starts else 0.0
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "name": [ids[n] for n in self.names],
            "start_ns": [math.floor((t - t0) * 1e9) for t in self.starts],
            "end_ns": [math.floor((t - t0) * 1e9) for t in self.ends],
            "parent": self.parents,
            "op": self.ops,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
