"""Basis cache files.

Container layout: the ASCII line ``GPSWF1``, one JSON metadata record (which
declares the array names, dtypes, shapes, and a sha256 of the payload), then
the raw little-endian arrays concatenated in declared order.  Round trips are
bit-exact and every load verifies the checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets

import numpy as np

from .disk_basis import DiskBasis, DiskMode, disk_basis_from_modes
from .errors import CacheError, ParameterError
from .numerics import QuadratureRule
from .symset_basis import Geometry, SymSetBasis

__all__ = [
    "cache_key",
    "cache_dir",
    "save_disk_basis",
    "load_disk_basis",
    "save_symset_basis",
    "load_symset_basis",
    "load_basis",
    "verify_basis",
]

MAGIC = b"GPSWF1\n"
FORMAT_VERSION = 1


def _quantize(x: float) -> int:
    return int(round(float(x) / 1e-12))


def cache_key(kind: str, **params) -> str:
    """Deterministic cache key: geometry kind plus 1e-12-quantized parameters."""
    parts = [f"v{FORMAT_VERSION}", kind]
    for name in sorted(params):
        v = params[name]
        if isinstance(v, float):
            parts.append(f"{name}={_quantize(v)}")
        elif isinstance(v, (tuple, list)):
            parts.append(f"{name}=" + ",".join(str(_quantize(x)) for x in v))
        else:
            parts.append(f"{name}={v}")
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
    return f"{kind}_{digest}"


def cache_dir(explicit: str | None = None) -> str:
    path = explicit or os.environ.get("PROLATE_CACHE_DIR") or "cache"
    os.makedirs(path, exist_ok=True)
    return path


def _write_container(path, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write the container to a hidden temporary file beside `path`, then rename it.

    The rename is atomic, so a concurrent reader sees either the old file or
    the complete new one, and a failed write leaves no partial file behind.
    """
    decl = []
    blobs = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        dtype = "<f8" if arr.dtype.kind == "f" else ("<c16" if arr.dtype.kind == "c" else "|u1")
        arr = arr.astype(dtype, copy=False)
        decl.append([name, dtype, list(arr.shape)])
        blobs.append(arr.tobytes())
    payload = b"".join(blobs)
    meta = dict(meta)
    meta["format"] = FORMAT_VERSION
    meta["arrays"] = decl
    meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    folder, name = os.path.split(os.fspath(path))
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_container(path) -> tuple[dict, dict]:
    with open(path, "rb") as f:
        if f.readline() != MAGIC:
            raise CacheError(f"{path}: not a GPSWF1 container")
        try:
            meta = json.loads(f.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheError(f"{path}: bad metadata record") from exc
        payload = f.read()
    if not isinstance(meta, dict):
        raise CacheError(f"{path}: bad metadata record")
    if hashlib.sha256(payload).hexdigest() != meta.get("payload_sha256"):
        raise CacheError(f"{path}: payload checksum mismatch")
    arrays = {}
    offset = 0
    try:
        for name, dtype, shape in meta["arrays"]:
            n = int(np.prod(shape)) * np.dtype(dtype).itemsize
            blob = payload[offset:offset + n]
            arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
            offset += n
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}: bad array declaration ({exc})") from None
    if offset != len(payload):
        raise CacheError(f"{path}: payload length mismatch")
    return meta, arrays


def save_disk_basis(path, basis: DiskBasis) -> None:
    """Write the unit-disk system; a dilated basis is refused, since a load rebuilds radius 1."""
    if basis.radius != 1.0:
        raise ParameterError(f"only a unit-disk basis can be cached, got radius {basis.radius!r}")
    meta = {
        "geometry": "disk",
        "c": basis.c,
        "m_max": max(mo.m for mo in basis.modes),
        "n_max": max(mo.n for mo in basis.modes),
        "J": basis.truncation,
        "quad_size": list(basis.quad_size),
        "modes": [[mo.m, mo.n, mo.ell, int(mo.usable)] for mo in basis.modes],
    }
    chi = basis.chis
    gamma = np.array([mo.gamma for mo in basis.modes])
    alpha = np.array([[mo.alpha.real, mo.alpha.imag] for mo in basis.modes])
    coeffs = np.array([mo.coeffs for mo in basis.modes])
    _write_container(path, meta, [("chi", chi), ("gamma", gamma), ("alpha", alpha),
                                  ("coeffs", coeffs)])


def _disk_basis(meta: dict, arrays: dict) -> DiskBasis:
    modes = []
    for i, (m, n, ell, usable) in enumerate(meta["modes"]):
        coeffs = arrays["coeffs"][i]
        coeffs.flags.writeable = False
        modes.append(DiskMode(
            m=int(m), n=int(n), ell=int(ell),
            chi=float(arrays["chi"][i]), gamma=float(arrays["gamma"][i]),
            alpha=complex(arrays["alpha"][i, 0], arrays["alpha"][i, 1]),
            coeffs=coeffs, usable=bool(usable),
        ))
    n_r, n_t = meta["quad_size"]
    return disk_basis_from_modes(meta["c"], meta["J"], modes, n_r, n_t)


_GEO_LABEL = {"disk": "disk", "limited_aperture": "L", "multi_freq": "M"}
_LABEL_GEO = {v: k for k, v in _GEO_LABEL.items()}


def save_symset_basis(path, basis: SymSetBasis) -> None:
    meta = {
        "geometry": _GEO_LABEL[basis.geometry.kind],
        "geometry_params": basis.geometry.to_dict(),
        "c": basis.c,
        "n_modes": len(basis.modes),
        "n_nodes": len(basis.quad),
        "complete": basis.complete,
    }
    parity = np.array([0 if mo.parity == "even" else 1 for mo in basis.modes], dtype=np.uint8)
    alpha = np.array([[mo.alpha.real, mo.alpha.imag] for mo in basis.modes])
    _write_container(path, meta, [
        ("nodes", basis.quad.nodes),
        ("weights", basis.quad.weights),
        ("parity", parity),
        ("alpha", alpha),
        ("node_values", basis.node_values),
        ("spectrum_even", basis.spectrum_even),
        ("spectrum_odd", basis.spectrum_odd),
    ])


def _symset_basis(meta: dict, arrays: dict) -> SymSetBasis:
    """The modes are row views of the loaded node-value array, which `node_values` returns."""
    n = meta["n_modes"]
    parity, alpha = arrays["parity"], arrays["alpha"]
    return SymSetBasis.from_table(
        arrays["node_values"][:n], ["even" if parity[i] == 0 else "odd" for i in range(n)],
        [complex(alpha[i, 0], alpha[i, 1]) for i in range(n)],
        c=float(meta["c"]), geometry=Geometry.from_dict(meta["geometry_params"]),
        quad=QuadratureRule(arrays["nodes"], arrays["weights"]),
        spectrum_even=arrays["spectrum_even"], spectrum_odd=arrays["spectrum_odd"],
        complete=bool(meta["complete"]))


def _check_kind(path, meta: dict, symset: bool) -> None:
    if symset and meta.get("geometry") not in _LABEL_GEO:
        raise CacheError(f"{path}: not a symmetric-set basis file")
    if not symset and meta.get("geometry") != "disk":
        raise CacheError(f"{path}: not a disk basis file")


def _basis(path, meta: dict, arrays: dict, symset: bool):
    """Build a basis of the given kind from a read container.

    A container of the other kind, or one whose metadata lacks an entry or
    holds a malformed one, raises CacheError.
    """
    _check_kind(path, meta, symset)
    try:
        return _symset_basis(meta, arrays) if symset else _disk_basis(meta, arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}: malformed basis container "
                         f"({type(exc).__name__}: {exc})") from None


# Metadata entries and arrays a load reads, per basis kind.
_REQUIRED = {
    False: (("c", "m_max", "n_max", "J", "quad_size", "modes"), ("chi", "gamma", "alpha", "coeffs")),
    True: (("geometry_params", "c", "n_modes", "n_nodes", "complete"),
           ("nodes", "weights", "parity", "alpha", "node_values", "spectrum_even",
            "spectrum_odd")),
}


def verify_basis(path, symset: bool) -> None:
    """Check a basis file of the given kind without building the basis.

    Checks the payload checksum, the array declarations, the kind, and that
    every metadata entry and array a load reads is present; raises CacheError
    otherwise.  No mode objects, tables or quadrature rules are built.
    """
    meta, arrays = _read_container(path)
    _check_kind(path, meta, symset)
    keys, names = _REQUIRED[symset]
    missing = [k for k in keys if k not in meta] + [n for n in names if n not in arrays]
    if missing:
        raise CacheError(f"{path}: malformed basis container (missing {', '.join(missing)})")


def load_disk_basis(path) -> DiskBasis:
    return _basis(path, *_read_container(path), symset=False)


def load_symset_basis(path) -> SymSetBasis:
    return _basis(path, *_read_container(path), symset=True)


def load_basis(path):
    """Load either basis kind from one read of the file, dispatching on the metadata layout."""
    meta, arrays = _read_container(path)
    return _basis(path, meta, arrays, symset="geometry_params" in meta)
