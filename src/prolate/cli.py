"""Command-line surface: basis caching, data synthesis, ingestion,
reconstruction, extrapolation, validation, and the stability experiment; each
stage pairs either kind of basis with its setup or data by `paired(domain, c)`.

Exit codes: 0 success, 1 computation failure, 2 bad configuration or
arguments.  All outputs are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import cache as cachemod
from .analysis import extrapolate, validate_basis
from .disk_basis import compute_disk_basis, default_truncation
from .errors import EmptyQuadratureError, ParameterError, ProlateError, finite_number
from .forward import (add_noise, ingest_farfield, read_columns, read_datagrid, write_csv,
                      write_datagrid)
from .geometry_config import ProblemSetup, read_setup, synthesize_setup
from .recon import (choose_alpha_partial, expand, picard_coefficients, reconstruct,
                    write_field_csv, write_result)
from .symset_basis import Geometry, bounding_box, build_quadrature, compute_symset_basis

__all__ = ["run", "main", "experiment_stability", "write_stability"]


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not modify it)."""
    p = argparse.ArgumentParser(prog="prolate",
                                description="Prolate bases for Born inverse scattering")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="compute and cache a basis")
    bsub = b.add_subparsers(dest="basis_kind", required=True)
    bd = bsub.add_parser("disk")
    bd.add_argument("--c", type=float, required=True)
    bd.add_argument("--m-max", type=int, required=True)
    bd.add_argument("--n-max", type=int, required=True)
    bd.add_argument("-o", "--out-dir", default=None)
    bs = bsub.add_parser("symset")
    bs.add_argument("--geometry", choices=["disk", "L", "M"], required=True)
    bs.add_argument("--c", type=float, required=True)
    bs.add_argument("--h", type=float, default=1.0)
    bs.add_argument("--radius", type=float, default=1.0)
    bs.add_argument("--theta", type=float, default=None)
    bs.add_argument("--x-star", default="1,0")
    bs.add_argument("--resolution", type=int, default=120)
    bs.add_argument("--modes", type=int, default=40)
    bs.add_argument("--method", choices=["auto", "midpoint", "polar"], default="auto")
    bs.add_argument("-o", "--out-dir", default=None)

    s = sub.add_parser("synthesize", help="setup file -> Born data on basis nodes")
    s.add_argument("setup")
    s.add_argument("--basis", required=True)
    s.add_argument("-o", "--out", required=True)
    s.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--contrast-resolution", type=int, default=160)

    i = sub.add_parser("ingest", help="far-field CSV -> Born data on basis nodes")
    i.add_argument("samples")
    i.add_argument("--k", type=float, required=True)
    i.add_argument("--basis", required=True)
    i.add_argument("-o", "--out", required=True)

    r = sub.add_parser("reconstruct", help="DataGrid + basis -> contrast coefficients")
    r.add_argument("data")
    r.add_argument("--basis", required=True)
    r.add_argument("--alpha", type=float, default=None)
    r.add_argument("--delta", type=float, default=None,
                   help="with --E --sigma --c0 in place of --alpha: the a-priori rule "
                        "alpha = c0 (delta/E)^(1/(1+sigma))")
    r.add_argument("--E", type=float, default=None)
    r.add_argument("--sigma", type=float, default=None)
    r.add_argument("--c0", type=float, default=None)
    r.add_argument("-o", "--out", required=True)
    r.add_argument("--field-out", default=None)
    r.add_argument("--field-grid", type=int, default=64)

    e = sub.add_parser("extrapolate", help="band-limited extension of data")
    e.add_argument("data")
    e.add_argument("--basis", required=True)
    e.add_argument("--targets", required=True, help="CSV with header x,y")
    e.add_argument("-o", "--out", required=True)

    v = sub.add_parser("validate", help="basis self-validation report")
    v.add_argument("--basis", required=True)
    v.add_argument("-o", "--out", required=True)

    st = sub.add_parser("stability", help="noise/cutoff sweep: error vs bound table")
    st.add_argument("setup")
    st.add_argument("--basis", required=True)
    st.add_argument("--deltas", required=True, help="comma-separated absolute noise norms")
    st.add_argument("--alphas", required=True, help="comma-separated cutoffs")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--seeds", type=int, default=1, help="average errors over this many seeds")
    st.add_argument("--contrast-resolution", type=int, default=160)
    st.add_argument("-o", "--out", required=True)
    return p


def _geometry_from_args(args) -> Geometry:
    if args.geometry == "disk":
        return Geometry.disk(radius=args.radius, h=args.h)
    if args.geometry == "L":
        if args.theta is None:
            raise ParameterError("geometry L requires --theta")
        return Geometry.limited_aperture(args.theta, h=args.h)
    return Geometry.multi_freq(_numbers("--x-star", args.x_star), h=args.h)


# Natural logs of the smallest and the largest normal float64.
_LOG_FLOATS = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _check_scale(geo: Geometry, flags: str) -> None:
    """ParameterError naming `flags` unless (2b)^4 is a normal float, b the half-width
    of the set's bounding box: it bounds the squared area of the set, which the
    Hilbert-Schmidt checks compare, and the squares of the rule's weights."""
    if not _LOG_FLOATS[0] < 4.0 * math.log(2.0 * bounding_box(geo)) < _LOG_FLOATS[1]:
        raise ParameterError(f"{flags} out of range: a set of half-width "
                             f"{bounding_box(geo):.3g} has a squared area outside the float range")


@contextlib.contextmanager
def _sized_by(flags: str):
    """An OverflowError where `flags` size an allocation, as a ParameterError naming them."""
    try:
        yield
    except OverflowError as exc:
        raise ParameterError(f"{flags} too large to honour ({exc})") from exc


def _cmd_basis(args) -> int:
    """Print the basis's cache path, computing the file on a miss.  A set file
    is named by the rule it is solved on, built first, so flag sets that build
    one rule share one file."""
    finite_number("--c", args.c, positive=True)
    if args.basis_kind == "disk":
        key = cachemod.cache_key("disk", c=args.c, m_max=args.m_max, n_max=args.n_max,
                                 J=default_truncation(args.c, args.n_max))
    else:
        _grid_flag("--resolution", args.resolution)
        finite_number("--h", args.h, positive=True)
        finite_number("--radius", args.radius, positive=True)
        if args.theta is not None:
            finite_number("--theta", args.theta, positive=True)
        geo = _geometry_from_args(args)
        kind = f"symset-{args.geometry}"
        shape = {name: v for name, v in geo.to_dict().items() if name != "kind"}  # in the prefix
        # refuses a number the key cannot hold before a rule is built from it
        cachemod.cache_key(kind, c=args.c, **shape)
        _check_scale(geo, "--h and --radius" if args.geometry == "disk" else "--h")
        with _sized_by("--resolution"):
            try:
                quad = build_quadrature(geo, args.resolution, method=args.method)
            except EmptyQuadratureError as exc:  # the set is too thin for the grid
                raise ParameterError(f"{exc} at --resolution {args.resolution}; "
                                     "raise --resolution") from exc
        key = cachemod.cache_key(kind, c=args.c, modes=args.modes, rule=quad, **shape)
    path = os.path.join(cachemod.cache_dir(args.out_dir), key + ".gpswf")
    if os.path.exists(path):
        try:
            cachemod.verify_basis(path, symset=args.basis_kind == "symset")
            print(path)
            return 0
        except ProlateError:
            pass  # checksum mismatch: recompute below, never trust a corrupt cache
    if args.basis_kind == "disk":
        with _sized_by("--c, --m-max and --n-max"):
            basis = compute_disk_basis(args.c, args.m_max, args.n_max)
        cachemod.save_disk_basis(path, basis)
    else:
        with _sized_by("--resolution"):
            basis = compute_symset_basis(args.c, geo, quad, args.modes)
        cachemod.save_symset_basis(path, basis)
    print(path)
    return 0


def _cmd_synthesize(args) -> int:
    finite_number("--noise", args.noise, positive=False)
    with _sized_by("--contrast-resolution"):
        setup = read_setup(args.setup, contrast_resolution=args.contrast_resolution)
    basis = cachemod.load_basis(args.basis).paired(setup.domain, setup.c_param)
    data = synthesize_setup(setup, basis.quad)
    if args.noise > 0.0:
        data = add_noise(data, args.noise, args.seed)
        print(f"noise: relative {args.noise!r}, absolute {data.meta['delta_abs']!r}")
    write_datagrid(args.out, data)
    print(args.out)
    return 0


def _cmd_ingest(args) -> int:
    finite_number("--k", args.k, positive=True)
    if not (math.isfinite(args.k * args.k) and args.k * args.k >= sys.float_info.min):
        raise ParameterError(f"--k {args.k!r} is out of range: k^2 must be a finite normal float")
    basis = cachemod.load_basis(args.basis)
    if getattr(basis, "geometry", None) is None:  # ingest maps onto a set's own domain
        raise ParameterError("ingest requires a symset basis or a scaled target; "
                             "build a symset disk basis for full-aperture targets")
    table = read_columns(args.samples, ["xhat_x", "xhat_y", "thetahat_x", "thetahat_y",
                                        "re", "im"], "far-field")
    values = np.ascontiguousarray(table[:, 4:]).view(complex)[:, 0]
    try:
        data = ingest_farfield(table[:, 0:2], table[:, 2:4], values, args.k, basis.kernel_scale,
                               basis.quad, geometry=basis.geometry)
    except ParameterError as exc:
        raise ParameterError(f"{args.samples}: {exc}") from exc
    write_datagrid(args.out, data)
    print(args.out)
    return 0


def _grid_flag(name: str, n: int) -> None:
    """A size flag of an n x n grid, refused where numpy cannot index the (n^2, 2)
    float64 array of the grid's points (it refuses such a size before allocating)."""
    if 16 * n * n > np.iinfo(np.intp).max:
        raise ParameterError(f"{name} {n} is too large: numpy cannot index an {n} x {n} grid")


def _numbers(name: str, text: str) -> list[float]:
    """A comma-separated numeric flag as finite floats."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise ParameterError(f"{name} must be comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{name} must be finite numbers, got {text!r}")
    return values


def _flag_list(name: str, text: str, positive: bool) -> list[float]:
    """A comma-separated numeric flag, each value checked by `finite_number`."""
    return [finite_number(name, v, positive) for v in _numbers(name, text)]


# Flags whose value is a comma-separated list of numbers.
_LIST_FLAGS = ("--x-star", "--deltas", "--alphas")
_SIGNED_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_list_values(argv) -> list[str]:
    """argv with a list flag and a following value that starts with '-' joined
    as `--flag=value`.

    argparse reads a separate argument that starts with '-' as an option
    unless it is one negative number, so `--x-star -0.6,0.8` would be a usage
    error; joined, it is the value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _cmd_reconstruct(args) -> int:
    if args.field_grid < 1:
        raise ParameterError(f"--field-grid must be at least 1, got {args.field_grid}")
    _grid_flag("--field-grid", args.field_grid)
    data = read_datagrid(args.data)
    basis = cachemod.load_basis(args.basis).paired(data.geometry, data.bandwidth)
    rule = {name: getattr(args, name) for name in ("delta", "E", "sigma", "c0")}
    given = sum(value is not None for value in rule.values())
    if args.alpha is not None and given:
        raise ParameterError("--alpha excludes the rule flags --delta --E --sigma --c0")
    if args.alpha is not None:
        alpha = finite_number("--alpha", args.alpha, positive=True)
    elif given == len(rule):
        alpha = choose_alpha_partial(**rule)
    else:
        raise ParameterError("reconstruct requires --alpha or all of --delta --E --sigma --c0")
    result = reconstruct(data, basis, alpha)
    if args.field_out:  # evaluated first, so a field too large to build writes no file
        with _sized_by("--field-grid"):
            g = _field_axis(basis.extent, args.field_grid)
            pts = np.stack([np.repeat(g, len(g)), np.tile(g, len(g))], axis=1)  # x-major
            field = result.field(pts)
    write_result(args.out, result)
    if args.field_out:
        write_field_csv(args.field_out, pts, field)
    print(args.out)
    return 0


def _field_axis(b: float, n: int) -> np.ndarray:
    """n points spaced evenly over [-b, b] and exactly symmetric about 0 (g == -g[::-1]
    bitwise, which np.linspace is not), so Born sums over the field grid fold over
    p -> -p; the one point of n = 1 is 0."""
    return b * ((2.0 * np.arange(n) - (n - 1)) / max(n - 1, 1))


def _cmd_extrapolate(args) -> int:
    data = read_datagrid(args.data)
    basis = cachemod.load_basis(args.basis).paired(data.geometry, data.bandwidth)
    targets = read_columns(args.targets, ["x", "y"], "target")
    if not len(targets):
        raise ParameterError(f"{args.targets}: no target rows")
    values = extrapolate(data, basis, targets)
    write_csv(args.out, "x,y,re,im", targets[:, 0], targets[:, 1], values.real, values.imag)
    print(args.out)
    return 0


def _cmd_validate(args) -> int:
    basis = cachemod.load_basis(args.basis)
    report = validate_basis(basis)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(args.out)
    return 0 if all(c["passed"] for c in report) else 1


_SWEEP_BLOCK = 1 << 17  # samples per block of the stability sweep's data columns (2 MiB)


def experiment_stability(setup: ProblemSetup, basis, deltas, alphas, seed: int,
                         n_seeds: int = 1) -> list[dict]:
    """Sweep (delta, alpha): synthesize, perturb, reconstruct, compare to the bound.

    deltas are absolute noise norms; each row reports the seed-averaged
    reconstruction error ||q_rec - q|| on the data domain and the bound
    delta / beta(alpha) + truncation error, where the truncation term is the
    noise-free reconstruction error (the spectral-cutoff projection error of
    the contrast, up to quadrature), so every row obeys error <= bound.
    Noise is drawn once per (delta, seed); the clean and noisy data columns
    are projected together in blocks of at most _SWEEP_BLOCK samples, and each
    alpha masks a block's coefficients and expands all its fields in one product.
    """
    clean = synthesize_setup(setup, basis.quad)  # refuses a setup not contained in its domain
    u_norm = clean.weighted_norm()
    levels = list(dict.fromkeys(d for d in deltas if d > 0))
    if levels and u_norm == 0.0:  # add_noise draws noise relative to u_norm
        raise ParameterError("the setup's Born data is zero, so no noise level delta > 0 "
                             "can be drawn relative to its norm")
    q_nodes = setup.contrast.evaluate(basis.quad.nodes)
    w = basis.quad.weights
    cuts = [basis.cutoff(alpha) for alpha in alphas]  # the checks of `reconstruct`, per alpha
    keeps = [keep for keep, _ in cuts]
    # noise rate 1/beta(alpha), or 1/alpha on a set, whose cutoff keeps |mu| > alpha
    floors = [alpha if beta is None else beta for alpha, (_, beta) in zip(alphas, cuts)]
    rates = [1.0 / f if f > 0 else np.inf for f in floors]
    # (group, seed) per data column: group 0 is the clean data, group g the level levels[g - 1]
    columns = [(0, None)] + [(g, s) for g in range(1, len(levels) + 1) for s in range(n_seeds)]
    sums = np.zeros((len(alphas), len(levels) + 1))  # error sums per alpha and group
    step = max(1, _SWEEP_BLOCK // len(w))
    for lo in range(0, len(columns), step):
        block = columns[lo:lo + step]
        values = np.stack([clean.values if s is None else
                           add_noise(clean, levels[g - 1] / u_norm, seed + s).values
                           for g, s in block], axis=1)
        coeffs = picard_coefficients(clean, basis, values)
        for a, keep in enumerate(keeps):
            diff = expand(basis, coeffs, keep) - q_nodes[:, None]
            errs = np.sqrt(w @ (diff.real**2 + diff.imag**2))
            sums[a] += np.bincount([g for g, _ in block], weights=errs, minlength=len(levels) + 1)

    rows = []
    for a, alpha in enumerate(alphas):
        for delta in deltas:
            error = sums[a, levels.index(delta) + 1] / n_seeds if delta > 0 else sums[a, 0]
            rows.append({"delta": float(delta), "alpha": float(alpha), "error": float(error),
                         "bound": float(delta * rates[a] + sums[a, 0])})
    rows.sort(key=lambda r: (r["delta"], -r["alpha"]))
    return rows


def write_stability(path, rows: list[dict]) -> None:
    """The rows of `experiment_stability` as the CSV table delta,alpha,error,bound."""
    keys = ("delta", "alpha", "error", "bound")
    write_csv(path, ",".join(keys), *([r[key] for r in rows] for key in keys))


def _cmd_stability(args) -> int:
    if args.seeds < 1:
        raise ParameterError(f"--seeds must be at least 1, got {args.seeds}")
    deltas = _flag_list("--deltas", args.deltas, positive=False)
    alphas = _flag_list("--alphas", args.alphas, positive=True)
    with _sized_by("--contrast-resolution"):
        setup = read_setup(args.setup, contrast_resolution=args.contrast_resolution)
    basis = cachemod.load_basis(args.basis).paired(setup.domain, setup.c_param)
    write_stability(args.out, experiment_stability(setup, basis, deltas, alphas, args.seed,
                                                   args.seeds))
    print(args.out)
    return 0


def run(argv) -> int:
    try:
        args = _parser().parse_args(_attach_list_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    handlers = {
        "basis": _cmd_basis,
        "synthesize": _cmd_synthesize,
        "ingest": _cmd_ingest,
        "reconstruct": _cmd_reconstruct,
        "extrapolate": _cmd_extrapolate,
        "validate": _cmd_validate,
        "stability": _cmd_stability,
    }
    try:
        if getattr(args, "seed", 0) < 0:  # synthesize and stability
            raise ParameterError(f"--seed must be a nonnegative integer, got {args.seed}")
        return handlers[args.command](args)
    except (ParameterError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag too large to honour
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory; a size argument is too large{detail}", file=sys.stderr)
        return 2
    except ProlateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
