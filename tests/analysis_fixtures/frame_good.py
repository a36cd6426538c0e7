"""Frame-escape fixture: frame bytes are copied or decoded, never kept."""

import typing


class Writer:
    def adopt(self, bufmgr, page_id):
        self._frame = bufmgr.pin(page_id)  # the frame, not its buffer

    def patch(self, payload, offset):
        self._frame.data[offset : offset + len(payload)] = payload


def decode(bufmgr, page_id, codec, read_record_array, get_record_count):
    frame = bufmgr.pin(page_id)
    try:
        data = frame.data
        count = get_record_count(data)
        header = bytes(frame.data[:8])
        fields = read_record_array(data, codec)
        return typing.cast("list[int]", fields), header, count
    finally:
        bufmgr.unpin(page_id)


def snapshot(frame):
    return bytes(frame.data), frame.data[:8]  # copies
