import json

import numpy as np
import pytest

import prolate as P
from prolate import cache
from prolate.cache import cache_key, load_basis, save_disk_basis, save_symset_basis
from prolate.errors import CacheError


class TestDiskRoundTrip:
    def test_bit_exact(self, disk_c5, tmp_path):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        back = load_basis(path)
        assert back.c == disk_c5.c
        assert back.truncation == disk_c5.truncation
        assert len(back.modes) == len(disk_c5.modes)
        assert back.modes.dtype == disk_c5.modes.dtype
        assert np.array_equal(back.keys, disk_c5.keys)
        for name in ("chi", "gamma", "alpha", "usable"):
            assert np.array_equal(back.modes[name], disk_c5.modes[name])  # bitwise
        assert np.array_equal(back.coeffs, disk_c5.coeffs)
        assert np.array_equal(back.quad.nodes, disk_c5.quad.nodes)
        assert np.array_equal(back.node_values, disk_c5.node_values)

    def test_file_identical_on_rewrite(self, disk_c5, tmp_path):
        p1, p2 = tmp_path / "a.gpswf", tmp_path / "b.gpswf"
        save_disk_basis(p1, disk_c5)
        save_disk_basis(p2, disk_c5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_line(self, disk_c5, tmp_path):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        assert path.read_bytes().startswith(b"GPSWF1\n")


class TestDiskLoadReadsRadial:
    """A disk load reads the stored radial factors and builds no Zernike table."""

    @pytest.mark.parametrize("which", ["disk_c5", "readme"])
    def test_load_builds_no_zernike_table(self, which, request, tmp_path, monkeypatch):
        basis = (P.compute_disk_basis(10.0, 8, 8) if which == "readme"
                 else request.getfixturevalue(which))
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, basis)

        def no_table(*args, **kwargs):
            raise AssertionError("Zernike table built on a load")

        monkeypatch.setattr(P.disk_basis, "zernike_radial_table", no_table)
        back = load_basis(path)
        assert np.array_equal(back.radial, basis.radial)  # bitwise
        assert np.array_equal(back.angles, basis.angles)
        assert np.array_equal(back.node_values, basis.node_values)
        assert back.quad_size == basis.quad_size
        assert not back.radial.flags.writeable


class TestSymsetRoundTrip:
    def test_bit_exact(self, symset_disk_c5, tmp_path):
        path = tmp_path / "sym.gpswf"
        save_symset_basis(path, symset_disk_c5)
        back = load_basis(path)
        assert back.c == symset_disk_c5.c
        assert back.geometry == symset_disk_c5.geometry
        assert np.array_equal(back.quad.nodes, symset_disk_c5.quad.nodes)
        assert np.array_equal(back.quad.weights, symset_disk_c5.quad.weights)
        assert back.modes.dtype == symset_disk_c5.modes.dtype
        assert np.array_equal(back.modes["even"], symset_disk_c5.modes["even"])
        assert np.array_equal(back.alphas, symset_disk_c5.alphas)
        assert np.array_equal(back.node_values, symset_disk_c5.node_values)
        assert np.array_equal(back.spectrum_even, symset_disk_c5.spectrum_even)
        assert np.array_equal(back.spectrum_odd, symset_disk_c5.spectrum_odd)

    def test_old_complete_entry_is_ignored(self, symset_disk_c5, tmp_path):
        # files written before the unread "complete" entry was dropped still load
        path = tmp_path / "sym.gpswf"
        save_symset_basis(path, symset_disk_c5)
        assert "complete" not in json.loads(path.read_bytes().split(b"\n", 2)[1])
        _rewrite_metadata(path, lambda meta: meta.update(complete=True))
        cache.verify_basis(path, symset=True)
        assert np.array_equal(load_basis(path).node_values, symset_disk_c5.node_values)

    def test_node_values_held_once(self, symset_disk_c5, tmp_path, monkeypatch):
        # the loaded table is the array read from the container, not a copy
        path = tmp_path / "sym.gpswf"
        save_symset_basis(path, symset_disk_c5)
        read = []
        real = cache._read_container
        monkeypatch.setattr(cache, "_read_container", lambda p: read.append(real(p)) or read[-1])
        back = load_basis(path)
        table = back.node_values
        assert table.shape == (len(back.modes), len(back.quad))
        assert not table.flags.writeable
        assert not back.modes.flags.writeable
        assert np.shares_memory(table, read[0][1]["node_values"])

    def test_limited_geometry_label(self, tmp_path):
        geo = P.Geometry.limited_aperture(2.0, h=1.5)
        quad = P.build_quadrature(geo, 48, method="polar")
        basis = P.compute_symset_basis(3.0, geo, quad, 8)
        path = tmp_path / "L.gpswf"
        save_symset_basis(path, basis)
        back = load_basis(path)
        assert isinstance(back, P.SymSetBasis)
        assert back.geometry.kind == "limited_aperture"
        assert back.geometry.theta == 2.0


class TestIntegrity:
    def test_corruption_detected(self, disk_c5, tmp_path):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError):
            load_basis(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.gpswf"
        path.write_bytes(b"hello world\n")
        with pytest.raises(CacheError):
            load_basis(path)

    def test_dispatch(self, disk_c5, symset_disk_c5, tmp_path):
        pd = tmp_path / "d.gpswf"
        ps = tmp_path / "s.gpswf"
        save_disk_basis(pd, disk_c5)
        save_symset_basis(ps, symset_disk_c5)
        assert isinstance(load_basis(pd), P.DiskBasis)
        assert isinstance(load_basis(ps), P.SymSetBasis)


class TestCacheKey:
    def test_deterministic(self):
        a = cache_key("disk", c=10.0, m_max=8, n_max=8, J=38)
        b = cache_key("disk", c=10.0, m_max=8, n_max=8, J=38)
        assert a == b

    def test_sensitive_to_parameters(self):
        a = cache_key("disk", c=10.0, m_max=8, n_max=8, J=38)
        b = cache_key("disk", c=10.000001, m_max=8, n_max=8, J=38)
        assert a != b

    def test_quantization_absorbs_subtolerance_noise(self):
        a = cache_key("disk", c=10.0, m_max=8, n_max=8, J=38)
        b = cache_key("disk", c=10.0 + 1e-13, m_max=8, n_max=8, J=38)
        assert a == b


def _rewrite_metadata(path, edit):
    """Apply `edit` to the JSON metadata record of a container, payload untouched."""
    magic, meta, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(meta)
    edit(meta)
    path.write_bytes(magic + b"\n" + json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)


class TestMalformedMetadata:
    @pytest.mark.parametrize("key", ["J", "modes", "quad_size", "arrays"])
    def test_missing_disk_key(self, disk_c5, tmp_path, key):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        _rewrite_metadata(path, lambda meta: meta.pop(key))
        with pytest.raises(CacheError, match=str(path)):
            load_basis(path)

    @pytest.mark.parametrize("edit", [lambda m: m.pop("n_modes"),
                                      lambda m: m["geometry_params"].pop("kind"),
                                      lambda m: m.update(n_modes=10_000)])
    def test_malformed_symset_record(self, symset_disk_c5, tmp_path, edit):
        path = tmp_path / "sym.gpswf"
        save_symset_basis(path, symset_disk_c5)
        _rewrite_metadata(path, edit)
        with pytest.raises(CacheError, match=str(path)):
            load_basis(path)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -5.0, "4.0", True])
    @pytest.mark.parametrize("kind", ["disk", "L"])
    def test_bandwidth_must_be_finite_and_positive(self, disk_c5, tmp_path, kind, c):
        path = tmp_path / f"{kind}.gpswf"
        if kind == "disk":
            save_disk_basis(path, disk_c5)
        else:
            geo = P.Geometry.limited_aperture(2.0, h=1.5)
            save_symset_basis(path, P.compute_symset_basis(
                3.0, geo, P.build_quadrature(geo, 32, method="polar"), 4))
        _rewrite_metadata(path, lambda meta: meta.update(c=c))
        with pytest.raises(CacheError, match="bandwidth c"):
            load_basis(path)
        with pytest.raises(CacheError, match="bandwidth c"):
            cache.verify_basis(path, symset=kind == "L")

    def test_metadata_not_an_object(self, tmp_path):
        path = tmp_path / "list.gpswf"
        path.write_bytes(b"GPSWF1\n[1, 2]\n")
        with pytest.raises(CacheError, match="bad metadata"):
            load_basis(path)


def _rewrite_arrays(path, edit):
    """Apply `edit(meta, arrays)` to a container and write it back with a fresh checksum."""
    meta, arrays = cache._read_container(path)
    edit(meta, arrays)
    for key in ("format", "arrays", "payload_sha256"):
        meta.pop(key)
    cache._write_container(path, meta, list(arrays.items()))


def _extra_row(arrays, name):
    arrays[name] = np.concatenate([arrays[name], arrays[name][:1]])


class TestArrayShapes:
    """A load, and the cache-hit check of `prolate basis`, refuse per-mode
    arrays whose row count disagrees with the mode records."""

    @pytest.mark.parametrize("edit", ["chi", "gamma", "alpha", "coeffs", "records"])
    def test_disk_rows_match_mode_records(self, disk_c5, tmp_path, edit):
        def change(meta, arrays):
            if edit == "records":  # one record fewer than the rows of every array
                meta["modes"].pop()
            else:
                _extra_row(arrays, edit)

        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        _rewrite_arrays(path, change)
        with pytest.raises(CacheError, match="array shape"):
            load_basis(path)
        with pytest.raises(CacheError, match="array shape"):
            cache.verify_basis(path, symset=False)

    @pytest.mark.parametrize("edit", ["parity", "alpha", "node_values", "n_modes",
                                      "node_columns"])
    def test_symset_rows_match_mode_count(self, symset_disk_c5, tmp_path, edit):
        def change(meta, arrays):
            if edit == "n_modes":  # fewer modes than the rows of every array
                meta["n_modes"] -= 4
            elif edit == "node_columns":
                arrays["node_values"] = np.ascontiguousarray(arrays["node_values"][:, 1:])
            else:
                _extra_row(arrays, edit)

        path = tmp_path / "sym.gpswf"
        save_symset_basis(path, symset_disk_c5)
        _rewrite_arrays(path, change)
        with pytest.raises(CacheError, match="array shape"):
            load_basis(path)
        with pytest.raises(CacheError, match="array shape"):
            cache.verify_basis(path, symset=True)

    def test_unedited_rewrite_loads(self, disk_c5, tmp_path):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, disk_c5)
        before = path.read_bytes()
        _rewrite_arrays(path, lambda meta, arrays: None)
        assert path.read_bytes() == before
        cache.verify_basis(path, symset=False)


class TestPinnedMetadata:
    # json.loads reads `1` and `true` as equal values, so the record is compared
    # as text: a writer that emits bools or floats for the integer entries fails
    DISK_5_1_1 = {
        "J": 17,
        "arrays": [["chi", "<f8", [6]], ["gamma", "<f8", [6]], ["alpha", "<f8", [6, 2]],
                   ["coeffs", "<f8", [6, 17]], ["radial", "<f8", [6, 37]]],
        "c": 5.0,
        "format": 1,
        "geometry": "disk",
        "m_max": 1,
        "modes": [[0, 0, 1, 1], [1, 0, 1, 1], [1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 1, 1],
                  [1, 1, 2, 1]],
        "n_max": 1,
        "quad_size": [37, 32],
    }

    def test_disk_metadata_record(self, tmp_path):
        path = tmp_path / "disk.gpswf"
        save_disk_basis(path, P.compute_disk_basis(5.0, 1, 1))
        meta = json.loads(path.read_bytes().split(b"\n", 2)[1])
        meta.pop("payload_sha256")
        assert json.dumps(meta, sort_keys=True) == json.dumps(self.DISK_5_1_1, sort_keys=True)


class TestOneReadPerLoad:
    def test_load_basis_reads_the_file_once(self, disk_c5, symset_disk_c5, tmp_path, monkeypatch):
        calls = []
        real = cache._read_container
        monkeypatch.setattr(cache, "_read_container", lambda p: calls.append(p) or real(p))
        for name, basis, save in (("d.gpswf", disk_c5, save_disk_basis),
                                  ("s.gpswf", symset_disk_c5, save_symset_basis)):
            save(tmp_path / name, basis)
            load_basis(tmp_path / name)
        assert calls == [tmp_path / "d.gpswf", tmp_path / "s.gpswf"]


class TestAtomicWrite:
    """A cache write goes to a hidden temporary file renamed over the target,
    so a failed write leaves neither a partial container nor a stray file."""

    def test_failed_rename_leaves_nothing(self, disk_c5, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(cache.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_disk_basis(tmp_path / "disk.gpswf", disk_c5)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, disk_c5, symset_disk_c5, tmp_path,
                                             monkeypatch):
        path = tmp_path / "basis.gpswf"
        save_disk_basis(path, disk_c5)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes the first write and then fails, as on a full disk."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("no space left on device")
                return self.f.write(data)

        monkeypatch.setattr(cache, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_symset_basis(path, symset_disk_c5)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["basis.gpswf"]
        assert path.read_bytes() == before
        assert isinstance(load_basis(path), P.DiskBasis)
