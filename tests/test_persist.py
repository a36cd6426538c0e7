"""Tests for disk-image persistence and page checksums."""

import pytest

from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager, PageCorruptionError
from repro.storage.elementset import ElementSet
from repro.storage.persist import ImageFormatError, load_image, save_image


def build_disk_with_sets():
    disk = DiskManager(page_size=256)
    bufmgr = BufferManager(disk, 16)
    anc = ElementSet.from_codes(bufmgr, [16, 8, 24], 5, name="anc")
    desc = ElementSet.from_codes(bufmgr, list(range(1, 32, 2)), 5, name="desc")
    bufmgr.flush_all()
    return disk, bufmgr, {"anc": anc, "desc": desc}


class TestImageRoundTrip:
    def test_pages_survive(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path)
        assert image.disk.page_size == 256
        assert image.disk.num_allocated == disk.num_allocated

    def test_catalog_restores_element_sets(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path)
        assert set(image.element_sets) == {"anc", "desc"}
        anc = image.element_sets["anc"]
        assert anc.to_list() == [16, 8, 24]
        assert anc.tree_height == 5
        assert anc.known_heights == frozenset({3, 4})

    def test_histograms_round_trip(self, tmp_path):
        """The positional histogram is rebuilt from the verified
        payloads: equal to the saved sets', with no page I/O charged."""
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path)
        for name, elements in sets.items():
            assert image.element_sets[name].histogram == elements.histogram
        assert image.disk.stats.snapshot().total == 0

    def test_joins_work_after_reload(self, tmp_path):
        from repro import JoinSink, StackTreeDescJoin, brute_force_join

        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path, buffer_pages=8)
        sink = JoinSink("collect")
        StackTreeDescJoin().run(
            image.element_sets["anc"], image.element_sets["desc"], sink
        )
        expected = brute_force_join([16, 8, 24], list(range(1, 32, 2)))
        assert sorted(sink.pairs) == sorted(expected)

    def test_new_allocations_after_reload_do_not_collide(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path)
        fresh = image.disk.allocate()
        assert fresh not in [
            pid for s in sets.values() for pid in s.heap.page_ids
        ]


class TestImageValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"PB")
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_corrupted_page_detected(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a bit inside the last page
        path.write_bytes(bytes(blob))
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_corrupted_header_detected(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        blob = bytearray(path.read_bytes())
        blob[14] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_catalog_naming_a_missing_page_rejected(self, tmp_path):
        import json
        import struct

        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        blob = path.read_bytes()
        prefix = struct.Struct("<4sII")
        magic, version, length = prefix.unpack_from(blob)
        header = json.loads(blob[prefix.size:prefix.size + length])
        header["catalog"]["anc"]["page_ids"].append(10_000)
        tampered = json.dumps(header).encode("utf-8")
        path.write_bytes(
            prefix.pack(magic, version, len(tampered))
            + tampered
            + blob[prefix.size + length:]
        )
        with pytest.raises(ImageFormatError, match="missing page 10000"):
            load_image(path)


class TestChecksummedDisk:
    def test_normal_operation(self):
        disk = DiskManager(page_size=128, checksums=True)
        pid = disk.allocate()
        disk.write(pid, b"\x05" * 128)
        assert disk.read(pid) == b"\x05" * 128

    def test_detects_silent_corruption(self):
        import zlib

        disk = DiskManager(page_size=128, checksums=True)
        pid = disk.allocate()
        disk.write(pid, b"\x05" * 128)
        disk._pages[pid] = b"\x06" * 128  # corrupt behind the API's back
        with pytest.raises(PageCorruptionError) as exc_info:
            disk.read(pid)
        error = exc_info.value
        assert error.page_id == pid
        assert error.operation == "read"
        assert error.expected_crc == zlib.crc32(b"\x05" * 128)
        assert error.actual_crc == zlib.crc32(b"\x06" * 128)
        assert error.transient  # a re-read *may* clear a torn transfer

    def test_fresh_page_reads_clean(self):
        disk = DiskManager(page_size=128, checksums=True)
        pid = disk.allocate()
        assert disk.read(pid) == bytes(128)

    def test_buffer_pool_over_checksummed_disk(self):
        disk = DiskManager(page_size=128, checksums=True)
        bufmgr = BufferManager(disk, 2)
        elements = ElementSet.from_codes(bufmgr, list(range(1, 200, 2)), 10)
        bufmgr.flush_all()
        bufmgr.evict_all()
        assert elements.to_list() == list(range(1, 200, 2))


class TestReloadedEngineFaults:
    """Checksums and fault injection on a disk reconstructed from an image."""

    def test_checksums_survive_reload(self, tmp_path):
        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)
        image = load_image(path, checksums=True)
        assert image.disk.checksums
        # runtime verification: corrupt a loaded page behind the API's back
        anc_page = image.element_sets["anc"].heap.page_ids[0]
        image.disk._pages[anc_page] = bytes(256)
        with pytest.raises(PageCorruptionError) as exc_info:
            image.disk.read(anc_page)
        assert exc_info.value.page_id == anc_page

    def test_fault_injection_on_reloaded_engine(self, tmp_path):
        from repro.storage.faults import FaultInjector, StorageFault

        disk, _bufmgr, sets = build_disk_with_sets()
        path = tmp_path / "db.pbit"
        save_image(disk, path, sets)

        injector = FaultInjector(seed=0)
        injector.schedule("read-error", at=1, permanent=True)
        image = load_image(path, checksums=True, faults=injector)
        with pytest.raises(StorageFault) as exc_info:
            image.element_sets["desc"].to_list()
        assert exc_info.value.operation == "read"
        assert exc_info.value.page_id is not None
