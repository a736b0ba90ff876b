"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of the seven ``semidirac``
modules, the ``cli`` ``cmd_*`` commands and ``ResultBundle.write``, and
rebinds each wrapper wherever a ``semidirac`` module (or the ``cli``
command table) bound the original, so calls through ``scan.gap_eigs``,
``cli.gap_eigs`` and the ``count_within`` global that ``gap_eigs`` uses all
land in a span.  A span records name, layer, start, end, parent and op id;
spans stay in memory until the run writes them out.  Layers are the
modules; ``eigensolve`` is split by route.

Use the tracer as a context manager around the traced passes; nothing is
recorded while no op is open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

from semidirac.eigensolve import ConvergenceError

MODULES = ("lattice", "assembly", "eigensolve", "fiber", "quasimode", "scan", "cli")

EIGENSOLVE_ROUTES = {
    "count_within": "inertia",
    "count_below": "inertia",
    "gap_eigs": "shift_invert",
    "nearest_eigenvalues": "shift_invert",
    "lowest_of_square": "block",
    "dense_eigs": "dense",
    "participation_ratio": "diagnostics",
    "y_decay_rate": "diagnostics",
    "localization_metrics": "diagnostics",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, parent, op):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.start = self.end = 0.0
        self.info = None

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op, "info": self.info}


def _dim(args, kwargs) -> int:
    op = args[0] if args else kwargs["op"]
    return int(op.shape[0]) if hasattr(op, "shape") else int(op.dim)


# Counters read at the layer boundary from a call's arguments and result,
# or from the exception it raised.  Each becomes the metric
# ``<layer>.<key>``, summed over the pass (``*_max`` keys: the maximum).
def _inertia_info(args, kwargs, cert, exc):
    if exc is not None:
        return None
    if "radius" in cert:
        requested, factored = cert["radius"] ** 2, cert["shift_squared"]
    else:
        requested, factored = cert["threshold"], cert["shift"]
    return {"band_bytes": _dim(args, kwargs) * (cert["bandwidth"] + 1) * 16,
            "growth_max": cert["growth"], "shift_moved": int(factored != requested)}


def _shift_invert_info(args, kwargs, rep, exc):
    if exc is not None:
        return None
    cert = rep.certificate
    if "shift" in cert:
        requested = cert["shift"]
    else:
        requested = 0.5 * (cert["interval"][0] + cert["interval"][1])
    moved = "shift_solve" in cert and cert["shift_solve"] != requested
    return {"pairs": rep.k, "shift_moved": int(moved)}


def _block_info(args, kwargs, rep, exc):
    if exc is not None:
        return {"iterations": len(exc.history), "failed": 1}
    return {"iterations": rep.certificate["iterations"], "failed": 0}


def _dense_info(args, kwargs, rep, exc):
    return None if exc is not None else {"dim_sum": int(rep.eigenvalues.shape[0])}


def _assembly_info(args, kwargs, op, exc):
    return None if exc is not None else {"nnz": int(op.matrix.nnz)}


def _write_info(args, kwargs, paths, exc):
    if exc is not None:
        return None
    return {"write_bytes": sum(os.path.getsize(p) for p in paths)}


PROBES = {
    "eigensolve.count_within": _inertia_info,
    "eigensolve.count_below": _inertia_info,
    "eigensolve.gap_eigs": _shift_invert_info,
    "eigensolve.nearest_eigenvalues": _shift_invert_info,
    "eigensolve.lowest_of_square": _block_info,
    "eigensolve.dense_eigs": _dense_info,
    "assembly.assemble_T": _assembly_info,
    "assembly.assemble_H": _assembly_info,
    "assembly.assemble_H_eps": _assembly_info,
    "assembly.assemble_square_form": _assembly_info,
    "cli.ResultBundle.write": _write_info,
}

# Calls whose whole duration, children included, is a metric of its own.
TIMED_CALLS = {
    "assembly.export_coordinate_text": "assembly.export_s",
    "cli.parse_config": "cli.parse_s",
    "cli.ResultBundle.write": "cli.write_s",
}


class Tracer:
    """Spans of the calls into each layer, recorded while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._raised: list[ConvergenceError] = []
        self.probe_failures = 0

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name, layer):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                span.end = time.perf_counter()
                # count each error once, where it was first raised
                if not any(e is exc for e in self._raised):
                    self._raised.append(exc)
                span.info = self._probe(probe, args, kwargs, None, exc)
                raise
            except BaseException:
                span.end = time.perf_counter()
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            span.info = self._probe(probe, args, kwargs, result, None)
            return result

        return traced

    def _probe(self, probe, args, kwargs, result, exc):
        """The probe's counters; a result it cannot read is counted, not raised,
        so a changed certificate layout never fails the op being traced."""
        if probe is None:
            return None
        try:
            return probe(args, kwargs, result, exc)
        except (KeyError, TypeError, AttributeError, IndexError):
            self.probe_failures += 1
            return None

    def install(self) -> None:
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(f"semidirac.{modname}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    layer = modname
                    if modname == "eigensolve":
                        layer = f"eigensolve.{EIGENSOLVE_ROUTES.get(name, 'other')}"
                    wrappers[obj] = self._wrap(obj, f"{modname}.{name}", layer)
        cli = sys.modules["semidirac.cli"]
        bundle = getattr(cli, "ResultBundle", None)
        if bundle is not None:
            self._rebind(bundle, "write", self._wrap(bundle.write, "cli.ResultBundle.write", "cli"))
        for modname, mod in list(sys.modules.items()):
            if modname != "semidirac" and not modname.startswith("semidirac."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj])
        # the command table holds its own references to the cmd_* functions
        table = getattr(cli, "_COMMANDS", {})
        for name, obj in list(table.items()):
            if obj in wrappers:
                self._rebind_item(table, name, wrappers[obj])

    def _rebind(self, owner, name, wrapper) -> None:
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _rebind_item(self, table, key, wrapper) -> None:
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, name, original = self._undo.pop()
            restore(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, per traced pass (totals divided by ``passes``)."""
        own = self.self_times()
        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for s, t in zip(self.spans, own):
            add(f"{s.layer}.self_s", t)
            add(f"{s.layer}.calls", 1)
            for key, value in (s.info or {}).items():
                if key.endswith("_max"):
                    m[f"{s.layer}.{key}"] = max(m.get(f"{s.layer}.{key}", value), value)
                else:
                    add(f"{s.layer}.{key}", value)
            if s.name in TIMED_CALLS:
                add(TIMED_CALLS[s.name], s.end - s.start)
        m["eigensolve.convergence_errors"] = len(self._raised)
        m["trace.self_sum_s"] = sum(own)
        m["trace.spans"] = len(self.spans)
        m["trace.probe_failures"] = self.probe_failures
        return {k: (v if k.endswith("_max") else v / passes) for k, v in m.items()}

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]
