"""Spans around the calls the benchmark makes into bfdarcy's layers.

The program has no tracing of its own, so the tracer replaces the module
attributes that ``newton_solve``, the CLI and the verification helpers
look up at call time with wrappers that record a span per call, and puts
the originals back afterwards.  A span holds its wall interval, the
calling thread's CPU time (``time.thread_time``), its parent span and its
thread id.  Spans stay in memory until the run writes them out at exit.

Factor sizes come from ``SuperLU.nnz``.  Reading ``lu.L`` or ``lu.U``
would build sparse copies of the factors and raise peak memory, so the
traced run would no longer measure the program the untraced run does.
"""

import contextlib
import inspect
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("id", "name", "parent", "thread", "t0", "t1", "c0", "c1", "counts")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.t0 = self.t1 = self.c0 = self.c1 = 0.0
        self.counts = {}

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def cpu(self):
        return self.c1 - self.c0

    def as_dict(self):
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "thread": self.thread, "start": self.t0, "end": self.t1,
            "cpu_s": self.cpu, "counts": self.counts,
        }


class _TracedLU:
    """SuperLU stand-in whose triangular solves are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("solver.trisolve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans per thread; parents follow each thread's open spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.t0 = time.perf_counter()
        span.c0 = time.thread_time()
        return span

    def close(self, span):
        span.c1 = time.thread_time()
        span.t1 = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name, parent=None):
        span = self.open(name, parent)
        try:
            yield span
        finally:
            self.close(span)

    # ------------------------------------------------------------ patching

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a spanned call; ``count`` adds counters.

        ``count(span, result, args, kwargs)`` runs inside the span after
        the call returns.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if count is not None:
                    count(span, result, args, kwargs)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, bf):
        """Wrap the layer boundaries of the bfdarcy modules in ``bf``."""
        tracer = self
        try:
            self.wrap(bf.mesh, "generate_stacked_rect", "mesh.generate",
                      lambda s, mesh, a, k: s.counts.update(triangles=mesh.num_triangles))
            self.wrap(bf.solver, "build_interface", "mesh.interface")
            self.wrap(bf.assembly, "check_permeabilities", "assembly.check_perm")
            self.wrap(bf.assembly, "build_dofmap", "assembly.dofmap")
            self.wrap(bf.assembly, "Workspace", "assembly.workspace")
            self.wrap(bf.assembly, "assemble_rhs", "assembly.rhs")
            self.wrap(bf.assembly, "apply_constraints", "assembly.constraints",
                      lambda s, out, a, k: s.counts.update(nnz_A=int(out[0].nnz)))
            self.wrap(bf.solver, "newton_solve", "solver.newton",
                      lambda s, out, a, k: s.counts.update(iterations=out[1].iterations))
            self.wrap(bf.solver, "sparse_lu_solve", "solver.lu")
            splu = bf.solver.splu

            def traced_splu(A, *args, **kwargs):
                with self.span("solver.factor") as span:
                    lu = splu(A, *args, **kwargs)
                    span.counts.update(n=int(A.shape[0]), nnz_A=int(A.nnz), nnz_LU=int(lu.nnz))
                return _TracedLU(lu, self)

            self._patches.append((bf.solver, "splu", splu))
            bf.solver.splu = traced_splu

            degree = inspect.signature(bf.verification.compute_errors).parameters["degree"].default
            self.wrap(bf.verification, "compute_errors", "verification.errors",
                      lambda s, out, a, k: s.counts.update(
                          points=len(bf.elements.quad_rule(k.get("degree", degree)))))
            for attr in ("interface_flux_residual", "divergence_residual", "pressure_mean"):
                self.wrap(bf.verification, attr, "verification.invariants")
            for attr in ("write_solution_vtk", "write_multiplier_vtk"):
                self.wrap(bf.vtk, attr, "vtk.write",
                          lambda s, out, a, k: s.counts.update(bytes=os.path.getsize(a[0])))
            self.wrap(bf.cli, "main", "cli.main")
            self.wrap(bf.cli, "parse_config", "cli.parse")

            class TracedPool(ThreadPoolExecutor):
                """The CLI's pool; each submitted cell is a span on its worker."""

                def __init__(self, max_workers=None, *args, **kwargs):
                    super().__init__(max_workers, *args, **kwargs)
                    self._span = tracer.open("cli.pool")
                    self._span.counts["threads"] = self._max_workers

                def submit(self, fn, /, *args, **kwargs):
                    parent = self._span.id

                    def cell(*a, **k):
                        with tracer.span("cli.cell", parent=parent):
                            return fn(*a, **k)

                    return super().submit(cell, *args, **kwargs)

                def shutdown(self, *args, **kwargs):
                    super().shutdown(*args, **kwargs)
                    if self._span.t1 == 0.0:
                        tracer.close(self._span)

            self._patches.append((bf.cli, "ThreadPoolExecutor", bf.cli.ThreadPoolExecutor))
            bf.cli.ThreadPoolExecutor = TracedPool
            yield self
        finally:
            self.restore()


def self_times(spans, clock="wall"):
    """Span id -> wall (or CPU) time minus that of its children on the same thread."""
    own = {s.id: getattr(s, clock) for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= getattr(s, clock)
    return own


def subtree(spans, roots):
    """The spans that descend from any span in ``roots``, roots included."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, todo = [], list(roots)
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


def layer_metrics(spans, roots):
    """Per-layer metrics of the spans under ``roots``: self times and counts.

    A span on the thread of the first root contributes its self wall
    time.  A span on a pool thread contributes its self CPU time: the
    CLI runs 8 threads on fewer cores, so wall time there is mostly
    waiting, which ``cli.solve_wait_s`` reports on its own.
    """
    picked = subtree(spans, roots)
    main = roots[0].thread
    wall, cpu = self_times(spans), self_times(spans, "cpu")
    own = {s.id: wall[s.id] if s.thread == main else cpu[s.id] for s in picked}

    def named(name):
        return [s for s in picked if s.name == name]

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    factors = named("solver.factor")
    if factors:
        n_max = max(s.counts["n"] for s in factors)
        largest = max((s for s in factors if s.counts["n"] == n_max),
                      key=lambda s: s.counts["nnz_LU"])
        nnz_LU = largest.counts["nnz_LU"]
        fill = nnz_LU / largest.counts["nnz_A"]
    else:
        nnz_LU, fill = 0, 0.0
    n_factor = len(factors)
    n_trisolve = len(named("solver.trisolve"))
    cells = named("cli.cell")
    cell_cpu = sum(s.cpu for s in cells)
    pool_wall = sum(s.wall for s in named("cli.pool"))
    errors = named("verification.errors")

    return {
        "mesh.generate_s": (self_s("mesh.generate"), "s"),
        "mesh.interface_s": (self_s("mesh.interface"), "s"),
        "mesh.triangles": (counted("mesh.generate", "triangles"), "count"),
        "assembly.check_perm_s": (self_s("assembly.check_perm"), "s"),
        "assembly.dofmap_s": (self_s("assembly.dofmap"), "s"),
        "assembly.workspace_s": (self_s("assembly.workspace"), "s"),
        "assembly.rhs_s": (self_s("assembly.rhs"), "s"),
        "assembly.rhs_calls": (len(named("assembly.rhs")), "count"),
        "assembly.constraints_s": (self_s("assembly.constraints"), "s"),
        "assembly.constraints_calls": (len(named("assembly.constraints")), "count"),
        "assembly.nnz_A": (max((s.counts["nnz_A"] for s in named("assembly.constraints")),
                               default=0), "count"),
        "solver.newton_self_s": (self_s("solver.newton"), "s"),
        "solver.newton_iters": (counted("solver.newton", "iterations"), "count"),
        "solver.factor_s": (self_s("solver.factor"), "s"),
        "solver.factor_calls": (n_factor, "count"),
        "solver.nnz_LU": (nnz_LU, "count"),
        "solver.fill_ratio": (fill, "ratio"),
        "solver.trisolve_s": (self_s("solver.trisolve"), "s"),
        "solver.trisolve_calls": (n_trisolve, "count"),
        "solver.refine_share": (n_trisolve / n_factor - 1.0 if n_factor else 0.0, "ratio"),
        "solver.lu_check_s": (self_s("solver.lu"), "s"),
        "verification.errors_s": (self_s("verification.errors"), "s"),
        "verification.error_points": (max((s.counts["points"] for s in errors), default=0),
                                      "count"),
        "verification.invariants_s": (self_s("verification.invariants"), "s"),
        "vtk.write_s": (self_s("vtk.write"), "s"),
        "vtk.bytes": (counted("vtk.write", "bytes"), "bytes"),
        "cli.parse_s": (self_s("cli.parse"), "s"),
        "cli.pool_threads": (max((s.counts["threads"] for s in named("cli.pool")), default=0),
                             "count"),
        "cli.solve_cpu_s": (cell_cpu, "s"),
        "cli.solve_wait_s": (sum(s.wall - s.cpu for s in cells), "s"),
        "cli.overlap": (cell_cpu / pool_wall if pool_wall > 0.0 else 0.0, "ratio"),
    }
