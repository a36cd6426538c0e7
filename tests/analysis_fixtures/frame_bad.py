"""Frame-escape fixture: every marked line is a finding."""


class HeapScan:
    def scan_page_arrays(self, bufmgr, page_id):
        frame = bufmgr.pin(page_id)
        try:
            yield memoryview(frame.data)[8:].cast("Q")  # line 8: view + cast
        finally:
            bufmgr.unpin(page_id)

    def keep(self, frame):
        self._raw = frame.data  # line 13: attribute store

    def raw(self, frame):
        return frame.data  # line 16: returned

    def alias(self, frame, cache):
        data = frame.data
        cache[frame.page_id] = data  # line 20: subscript store via alias

    def collect(self, frames, out):
        for frame in frames:
            out.append(frame.data)  # line 24: container add

    def pair(self):
        return self._frame.page_id, self._frame.data  # line 27: in a tuple
