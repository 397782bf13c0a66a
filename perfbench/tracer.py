"""Spans around the calls one `prolate` layer makes into another.

`Tracer.install()` replaces, in every layer module, each function that module
bound from another layer (`from .x import f`) with a recording wrapper, and
each layer module it imported whole (`from . import cache as cachemod`) with a
proxy whose functions are wrapped.  Calls inside one module resolve through
that module's own globals and so get no span.  `uninstall()` restores the
originals, so untraced ops run the unmodified program.

A span records its id, parent id, op id, start, end, process CPU time,
ru_maxrss at its end, its self time (duration minus child spans) and, for a
few functions, counts of the work done.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import time
import tracemalloc
import types

import numpy as np

LAYERS = ("numerics", "disk_basis", "symset_basis", "forward", "recon", "analysis",
          "geometry_config", "cache", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _recon_counts(args, kwargs, result):
    data, basis, alpha = (_arg(args, kwargs, i, n)
                          for i, n in enumerate(("data", "basis", "alpha")))
    delta = float(result.diagnostics.get("delta") or 0.0)
    # the noise term of the error bound: delta / beta(alpha) (full), delta / alpha (partial)
    scale = result.beta_alpha if result.beta_alpha is not None else alpha
    return {"kept": len(result.cutoff_set), "modes": len(basis.modes),
            "vacuous": int(delta / scale > data.weighted_norm())}


# Work counts taken at the boundary, keyed by span name.
COUNTERS = {
    "forward.synthesize_born": lambda a, k, r: {
        "exp_pairs": len(r.values) * len(_arg(a, k, 0, "q").quad)},
    "disk_basis.eval_psi_scaled": lambda a, k, r: {"mode_points": int(np.size(r))},
    "numerics.sym_eig": lambda a, k, r: {"order": len(r[0])},  # = eigenpairs returned
    "symset_basis.compute_symset_basis": lambda a, k, r: {
        "nodes": len(r.quad), "retained": len(r.modes)},
    "recon.reconstruct_full": _recon_counts,
    "recon.reconstruct_partial": _recon_counts,
    "analysis.validate_basis": lambda a, k, r: {"failed_checks": sum(not c["passed"] for c in r)},
    "cache.load_basis": _file_bytes,
    "cache.save_disk_basis": _file_bytes,
    "cache.save_symset_basis": _file_bytes,
    "forward.read_datagrid": _file_bytes,
    "forward.write_datagrid": _file_bytes,
}

# Spans whose peak numpy allocation is measured with tracemalloc.
MEMORY_SPANS = {"symset_basis.compute_symset_basis"}


class _ModuleProxy:
    """Stands in for a layer module imported whole; wraps its functions."""

    def __init__(self, module, wrap):
        self._module = module
        self._wrap = wrap

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.FunctionType) and value.__module__ == self._module.__name__:
            return self._wrap(value)
        return value


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self.active = False
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        self.spans.append(None)  # reserve the id
        track = name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        cpu0, t0 = time.process_time(), time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1, cpu1 = time.perf_counter(), time.process_time()
            _, child = self._stack.pop()
            span = {"id": sid, "parent": parent, "op": self.op, "name": name,
                    "start": t0, "end": t1, "cpu_s": cpu1 - cpu0, "self_s": (t1 - t0) - child,
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if track:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if done and name in COUNTERS:
                span.update(COUNTERS[name](args, kwargs, result))
            self.spans[sid] = span
            if self._stack:
                self._stack[-1][1] += t1 - t0

    def _wrap(self, fn):
        if fn not in self._wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

            wrapper.__wrapped__ = fn
            self._wrappers[fn] = wrapper
        return self._wrappers[fn]

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"prolate.{layer}")
            for attr, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", None) or getattr(value, "__name__", "")
                if isinstance(value, types.FunctionType):
                    if not owner.startswith("prolate.") or owner == mod.__name__:
                        continue
                    replacement = self._wrap(value)
                elif isinstance(value, types.ModuleType):
                    if not value.__name__.startswith("prolate.") or value is mod:
                        continue
                    replacement = _ModuleProxy(value, self._wrap)
                else:
                    continue
                self._patches.append((mod, attr, value))
                setattr(mod, attr, replacement)
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        self.active = False

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


STAGES = ("basis", "synthesize", "ingest", "reconstruct", "extrapolate", "validate", "stability")

# Per-layer metric groups: metric prefix -> the span names it sums.
GROUPS = {
    "numerics.zernike_table": ("numerics.zernike_radial_table", "numerics.zernike_radial"),
    "numerics.gauss_legendre": ("numerics.gauss_legendre", "numerics.gauss_legendre_01"),
    "numerics.sym_eig": ("numerics.sym_eig",),
    "numerics.quadrature": ("numerics.disk_polar_rule", "numerics.annulus_polar_rule"),
    "disk_basis.compute": ("disk_basis.compute_disk_basis",),
    "disk_basis.eval_psi": ("disk_basis.eval_psi_scaled", "disk_basis.eval_psi"),
    "symset_basis.compute": ("symset_basis.compute_symset_basis",),
    "symset_basis.eval_psi": ("symset_basis.eval_symset_psi",),
    "symset_basis.quadrature": ("symset_basis.build_quadrature",),
    "forward.synthesize": ("forward.synthesize_born",),
    "forward.ingest": ("forward.ingest_farfield",),
    "forward.noise": ("forward.add_noise",),
    "forward.datagrid_io": ("forward.read_datagrid", "forward.write_datagrid"),
    "recon.reconstruct": ("recon.reconstruct_full", "recon.reconstruct_partial"),
    "recon.write": ("recon.write_result", "recon.write_field_csv"),
    "analysis.extrapolate": ("analysis.extrapolate",),
    "analysis.validate": ("analysis.validate_basis",),
    "geometry_config.setup": ("geometry_config.read_setup", "geometry_config.validate_setup"),
    "cache.load": ("cache.load_basis", "cache.load_disk_basis", "cache.load_symset_basis"),
    "cache.save": ("cache.save_disk_basis", "cache.save_symset_basis"),
    **{f"cli.{s}": (f"cli.{s}",) for s in STAGES},
}


def _ratio(num: float, den: float) -> tuple[float, str]:
    return (num / den if den else 0.0), f"{num:g}/{den:g}"


def layer_metrics(spans: list[dict], n_ops: int, overhead: tuple[float, str]) -> dict:
    """Per-layer metrics from the spans: name -> (value, unit, base).

    Times and counts are per traced op, except disk_basis.compute.self_s,
    which is the set-up's (disk bases are only computed there).
    """
    ops = [s for s in spans if s["op"] != "setup"]
    by_id = {s["id"]: s for s in spans}
    agg = {}
    for g, names in GROUPS.items():
        sel = [s for s in (spans if g == "disk_basis.compute" else ops) if s["name"] in names]
        agg[g] = {"self": sum(s["self_s"] for s in sel),
                  "wall": sum(s["end"] - s["start"] for s in sel),
                  "calls": len(sel), "spans": sel}
    per = max(n_ops, 1)

    def total(g, key):
        return sum(s.get(key, 0) for s in agg[g]["spans"])

    def per_op(v):
        return v / per, f"{v:g} over {n_ops} ops"

    out = {}
    for g in GROUPS:
        if not g.startswith("cli.") and g != "disk_basis.compute":
            out[f"{g}.self_s"] = (*per_op(agg[g]["self"]), "s/op")
    for g in ("numerics.zernike_table", "numerics.gauss_legendre", "disk_basis.eval_psi",
              "symset_basis.eval_psi", "recon.reconstruct", "cache.load"):
        out[f"{g}.calls"] = (*per_op(agg[g]["calls"]), "count/op")
    out["disk_basis.compute.self_s"] = (agg["disk_basis.compute"]["self"], "set-up total", "s")
    out["numerics.sym_eig.max_order"] = (
        max((s["order"] for s in agg["numerics.sym_eig"]["spans"]), default=0), "max", "count")
    out["disk_basis.eval_psi.mode_points"] = (*per_op(total("disk_basis.eval_psi", "mode_points")),
                                             "count/op")
    sym = agg["symset_basis.compute"]
    out["symset_basis.nodes"] = (*_ratio(total("symset_basis.compute", "nodes"), sym["calls"]),
                                 "count")
    peak = max((s.get("peak_bytes", 0) for s in sym["spans"]), default=0)
    n_max = max((s["nodes"] for s in sym["spans"]), default=0)
    out["symset_basis.dense_bytes"] = (
        peak, f"tracemalloc peak; {peak / (8.0 * n_max * n_max) if n_max else 0:.2f} x 8N^2 "
              f"at N={n_max}", "B")
    pairs = sum(s["order"] for s in agg["numerics.sym_eig"]["spans"]
                if s["parent"] is not None
                and by_id[s["parent"]]["name"] == "symset_basis.compute_symset_basis")
    out["symset_basis.pairs_used_ratio"] = (*_ratio(total("symset_basis.compute", "retained"),
                                                    pairs), "ratio")
    out["forward.synthesize.exp_pairs"] = (*per_op(total("forward.synthesize", "exp_pairs")),
                                           "count/op")
    out["forward.datagrid_io.bytes"] = (*per_op(total("forward.datagrid_io", "bytes")), "B/op")
    out["recon.modes_kept_ratio"] = (*_ratio(total("recon.reconstruct", "kept"),
                                             total("recon.reconstruct", "modes")), "ratio")
    out["recon.vacuous_bound_frac"] = (*_ratio(total("recon.reconstruct", "vacuous"),
                                               agg["recon.reconstruct"]["calls"]), "ratio")
    out["analysis.validate.failed_checks"] = (*per_op(total("analysis.validate", "failed_checks")),
                                              "count/op")
    out["cache.load.bytes"] = (*per_op(total("cache.load", "bytes")), "B/op")
    out["cache.save.bytes"] = (*per_op(total("cache.save", "bytes")), "B/op")
    computes = sum(1 for s in ops if s["name"] in ("disk_basis.compute_disk_basis",
                                                   "symset_basis.compute_symset_basis"))
    basis_calls = agg["cli.basis"]["calls"]
    out["cache.hit_ratio"] = (*_ratio(basis_calls - computes, basis_calls), "ratio")
    for st in STAGES:
        a = agg[f"cli.{st}"]
        out[f"cli.{st}.wall_s"] = (*per_op(a["wall"]), "s/op")
        out[f"cli.{st}.self_s"] = (*per_op(a["self"]), "s/op")
        out[f"cli.{st}.maxrss_mb"] = (max((s["maxrss_kb"] for s in a["spans"]), default=0) / 1024.0,
                                      "max at stage end", "MiB")
    out["trace.overhead_frac"] = (*overhead, "ratio")
    return out
