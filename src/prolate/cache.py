"""Basis cache files.

Container layout: the ASCII line ``GPSWF1``, one JSON metadata record (which
declares the array names, dtypes, shapes, and a sha256 of the payload), then
the raw little-endian arrays concatenated in declared order.  Round trips are
bit-exact and every load verifies the checksum.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets

import numpy as np

from .disk_basis import MODE_DTYPE as DISK_MODE, DiskBasis, disk_basis_from_radial
from .errors import CacheError, ParameterError
from .numerics import QuadratureRule, _frozen
from .symset_basis import MODE_DTYPE as SYMSET_MODE, Geometry, SymSetBasis

__all__ = [
    "cache_key",
    "cache_dir",
    "save_disk_basis",
    "save_symset_basis",
    "load_basis",
    "verify_basis",
]

MAGIC = b"GPSWF1\n"
FORMAT_VERSION = 1


def _quantize(name: str, x: float) -> int:
    """x in units of 1e-12; ParameterError naming the parameter where that overflows."""
    if not math.isfinite(q := float(x) / 1e-12):
        raise ParameterError(f"cache key parameter {name!r} must be finite and below "
                             f"about 1.8e296 in magnitude, got {x!r}")
    return int(round(q))


def _rule_digest(rule: QuadratureRule) -> str:
    """sha256 of a rule's arrays: nodes, weights, reflection map and axis."""
    digest = hashlib.sha256()
    reflection = () if rule.reflection is None else rule.reflection
    for values, dtype in ((rule.nodes, "<f8"), (rule.weights, "<f8"), (reflection, "<i8"),
                          (rule.axis, "<f8")):
        digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


def cache_key(kind: str, **params) -> str:
    """Deterministic cache key: geometry kind plus 1e-12-quantized parameters; a
    QuadratureRule parameter enters as the sha256 of its arrays, so rules equal
    bitwise share a key and a rule that moves any node or weight gets a new one."""
    parts = [f"v{FORMAT_VERSION}", kind]
    for name in sorted(params):
        v = params[name]
        if isinstance(v, QuadratureRule):
            parts.append(f"{name}={_rule_digest(v)}")
        elif isinstance(v, float):
            parts.append(f"{name}={_quantize(name, v)}")
        elif isinstance(v, (tuple, list)):
            parts.append(f"{name}=" + ",".join(str(_quantize(name, x)) for x in v))
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


def _pairs(values: np.ndarray) -> np.ndarray:
    """Complex values as a (len, 2) float array of real and imaginary parts."""
    return np.stack([values.real, values.imag], axis=1)


def save_disk_basis(path, basis: DiskBasis) -> None:
    """Write the unit-disk system with its radial factors on the polar rule, which
    a load reads back instead of rebuilding them; a dilated basis is refused,
    since a load rebuilds radius 1."""
    if basis.radius != 1.0:
        raise ParameterError(f"only a unit-disk basis can be cached, got radius {basis.radius!r}")
    modes = basis.modes
    meta = {
        "geometry": "disk",
        "c": basis.c,
        "m_max": int(modes["m"].max()),
        "n_max": int(modes["n"].max()),
        "J": basis.truncation,
        "quad_size": list(basis.quad_size),
        "modes": np.column_stack([basis.keys, modes["usable"]]).tolist(),
    }
    _write_container(path, meta, [("chi", modes["chi"]), ("gamma", modes["gamma"]),
                                  ("alpha", _pairs(modes["alpha"])), ("coeffs", basis.coeffs),
                                  ("radial", basis.radial)])


def _disk_basis(entries: dict, arrays: dict) -> DiskBasis:
    records = entries["modes"]
    modes = np.empty(len(records), dtype=DISK_MODE)
    modes["m"], modes["n"], modes["ell"] = records[:, :3].T
    modes["usable"] = records[:, 3] != 0
    modes["chi"], modes["gamma"] = arrays["chi"], arrays["gamma"]
    modes["alpha"] = arrays["alpha"].view(complex)[:, 0]
    return disk_basis_from_radial(entries["c"], entries["J"], modes, arrays["coeffs"],
                                  arrays["radial"], entries["quad_size"][1])


_GEO_LABEL = {"disk": "disk", "limited_aperture": "L", "multi_freq": "M"}
_LABEL_GEO = {v: k for k, v in _GEO_LABEL.items()}


def save_symset_basis(path, basis: SymSetBasis) -> None:
    meta = {
        "geometry": _GEO_LABEL[basis.geometry.kind],
        "geometry_params": basis.geometry.to_dict(),
        "c": basis.c,
        "n_modes": len(basis.modes),
        "n_nodes": len(basis.quad),
        "hs_norm2": basis.hs_norm2,
    }
    _write_container(path, meta, [
        ("nodes", basis.quad.nodes),
        ("weights", basis.quad.weights),
        ("parity", ~basis.modes["even"]),
        ("alpha", _pairs(basis.alphas)),
        ("residual", basis.modes["residual"]),
        ("node_values", basis.node_values),
    ])


def _symset_basis(entries: dict, arrays: dict) -> SymSetBasis:
    modes = np.empty(entries["n_modes"], dtype=SYMSET_MODE)
    modes["even"] = arrays["parity"] == 0
    modes["alpha"] = arrays["alpha"].view(complex)[:, 0]
    modes["residual"] = arrays["residual"]
    return SymSetBasis(
        c=entries["c"], geometry=entries["geometry"],
        quad=QuadratureRule(arrays["nodes"], arrays["weights"]), modes=_frozen(modes),
        node_values=_frozen(arrays["node_values"]), hs_norm2=entries["hs_norm2"])


# Metadata entries a load reads, per basis kind.
_REQUIRED = {False: ("c", "m_max", "n_max", "J", "quad_size", "modes"),
             True: ("geometry_params", "c", "n_modes", "n_nodes", "hs_norm2")}


def _count(value) -> int:
    """A nonnegative integer metadata entry; ValueError otherwise."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value!r}")
    return value


def _positive(name: str, value) -> float:
    """A finite positive JSON number (no string or boolean) as a float; else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value > 0.0)):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def _entries(meta: dict, symset: bool) -> tuple[dict, dict]:
    """The metadata entries a load reads, parsed as the load uses them, and the
    arrays it reads, each with the shape the entries give it: one row per mode,
    one column per node, radial coefficient or ring.  TypeError or ValueError
    where an entry is malformed; builds no table."""
    if symset:
        n, nodes = _count(meta["n_modes"]), _count(meta["n_nodes"])
        return ({"c": _positive("bandwidth c", meta["c"]),
                 "geometry": Geometry.from_dict(meta["geometry_params"]),
                 "n_modes": n, "hs_norm2": _positive("hs_norm2", meta["hs_norm2"])},
                {"nodes": (nodes, 2), "weights": (nodes,), "parity": (n,), "alpha": (n, 2),
                 "residual": (n,), "node_values": (n, nodes)})
    records = np.array(meta["modes"], dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != 4:
        raise ValueError("mode records must hold 4 integers each")
    n_r, n_t = map(_count, meta["quad_size"])
    if n_r < 1 or n_t < 2 or n_t % 2:
        raise ValueError(f"quad_size must be 2 positive integers, the second even, "
                         f"got {[n_r, n_t]}")
    n, J = len(records), _count(meta["J"])
    return ({"c": _positive("bandwidth c", meta["c"]), "J": J, "modes": records,
             "quad_size": (n_r, n_t)},
            {"chi": (n,), "gamma": (n,), "alpha": (n, 2), "coeffs": (n, J), "radial": (n, n_r)})


def _check_layout(path, meta: dict, arrays: dict, symset: bool) -> dict:
    """The parsed metadata entries (`_entries`) of a container of the given
    kind; CacheError unless it holds every metadata entry and array a load
    reads, each entry parses, and each array has the shape its metadata gives it."""
    if symset and meta.get("geometry") not in _LABEL_GEO:
        raise CacheError(f"{path}: not a symmetric-set basis file")
    if not symset and meta.get("geometry") != "disk":
        raise CacheError(f"{path}: not a disk basis file")
    missing = [k for k in _REQUIRED[symset] if k not in meta]
    if missing:
        raise CacheError(f"{path}: malformed basis container (missing {', '.join(missing)})")
    try:
        entries, shapes = _entries(meta, symset)
    except (TypeError, ValueError) as exc:
        raise CacheError(f"{path}: malformed basis container "
                         f"({type(exc).__name__}: {exc})") from None
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise CacheError(f"{path}: malformed basis container (missing {', '.join(missing)})")
    wrong = [f"{name} {arrays[name].shape} for {shape}" for name, shape in shapes.items()
             if arrays[name].shape != shape]
    if wrong:
        raise CacheError(f"{path}: malformed basis container (array shape {', '.join(wrong)})")
    return entries


def _basis(path, meta: dict, arrays: dict, symset: bool):
    """Build a basis of the given kind from a read container.

    A container that fails `_check_layout`, or whose metadata holds a
    malformed entry, raises CacheError.
    """
    entries = _check_layout(path, meta, arrays, symset)
    try:
        return _symset_basis(entries, arrays) if symset else _disk_basis(entries, arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}: malformed basis container "
                         f"({type(exc).__name__}: {exc})") from None


def verify_basis(path, symset: bool) -> None:
    """Check a basis file of the given kind without building the basis.

    Checks the payload checksum and array declarations (`_read_container`)
    and the kind, entries and array shapes (`_check_layout`); raises
    CacheError otherwise.  No mode table, Zernike table or quadrature rule is
    built.
    """
    _check_layout(path, *_read_container(path), symset)


def load_basis(path):
    """Load either basis kind from one read of the file, dispatching on the metadata layout."""
    meta, arrays = _read_container(path)
    return _basis(path, meta, arrays, symset="geometry_params" in meta)
