"""Tests for zero-copy shared-memory array handles."""

import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.utils.shm import SharedArray, ZeroCopyPickle, share_object


@pytest.fixture
def payload():
    rng = np.random.default_rng(11)
    return rng.normal(size=(64, 8)).astype(np.float32)


class TestSharedArray:
    def test_round_trip_via_pickle(self, payload):
        handle = SharedArray.create(payload)
        try:
            clone = pickle.loads(pickle.dumps(handle))
            np.testing.assert_array_equal(clone.array, payload)
            assert clone.name == handle.name
            assert clone.nbytes == payload.nbytes
        finally:
            handle.release()

    def test_views_are_read_only(self, payload):
        handle = SharedArray.create(payload)
        try:
            with pytest.raises(ValueError):
                handle.array[0, 0] = 1.0
            attached = pickle.loads(pickle.dumps(handle))
            with pytest.raises(ValueError):
                attached.array[0, 0] = 1.0
        finally:
            handle.release()

    def test_view_survives_release(self, payload):
        """Regression: release() must not unmap under a live view.

        ``SharedMemory.close()`` unmaps even while numpy views exist
        (they do not pin the exported buffer), so an eager close here
        used to turn the next read into a segfault.  release() is now
        unlink-only; the unmap is tied to the view's destruction.
        """
        handle = SharedArray.create(payload)
        view = handle.array
        handle.release()
        assert handle.released
        np.testing.assert_array_equal(view, payload)
        assert float(view.sum()) == pytest.approx(float(payload.sum()))

    def test_attached_view_survives_creator_release(self, payload):
        handle = SharedArray.create(payload)
        attached = pickle.loads(pickle.dumps(handle))
        view = attached.array
        handle.release()
        np.testing.assert_array_equal(view, payload)

    def test_release_unlinks_name(self, payload):
        handle = SharedArray.create(payload)
        stale = pickle.loads(pickle.dumps(handle))
        handle.release()
        with pytest.raises(FileNotFoundError):
            _ = stale.array

    def test_release_is_idempotent(self, payload):
        handle = SharedArray.create(payload)
        handle.release()
        handle.release()
        assert handle.released

    def test_non_creator_release_does_not_unlink(self, payload):
        handle = SharedArray.create(payload)
        try:
            attached = pickle.loads(pickle.dumps(handle))
            attached.release()
            # The creator's segment must still be attachable.
            fresh = pickle.loads(pickle.dumps(handle))
            np.testing.assert_array_equal(fresh.array, payload)
        finally:
            handle.release()

    def test_fork_child_attaches_same_pages(self, payload):
        handle = SharedArray.create(payload)
        try:
            ctx = multiprocessing.get_context("fork")
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_child_checksum, args=(pickle.dumps(handle), queue)
            )
            proc.start()
            got = queue.get(timeout=30)
            proc.join(timeout=30)
            assert proc.exitcode == 0
            assert got == pytest.approx(float(payload.sum()))
        finally:
            handle.release()

    def test_fresh_process_attaches_by_name(self, payload, tmp_path):
        """A process with no fork lineage attaches purely by name."""
        handle = SharedArray.create(payload)
        try:
            blob = tmp_path / "handle.pkl"
            blob.write_bytes(pickle.dumps(handle))
            script = textwrap.dedent(
                """
                import pickle, sys
                import numpy as np
                handle = pickle.loads(open(sys.argv[1], "rb").read())
                print(float(handle.array.sum()))
                """
            )
            env = dict(os.environ)
            src = os.path.dirname(os.path.dirname(repro.__file__))
            env["PYTHONPATH"] = src
            out = subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert out.returncode == 0, out.stderr
            assert float(out.stdout.strip()) == pytest.approx(
                float(payload.sum())
            )
        finally:
            handle.release()


class _Carrier(ZeroCopyPickle):
    def __init__(self, left, right, tag):
        self.left = left
        self.right = right
        self.tag = tag


class TestShareObject:
    def test_aliased_attributes_share_one_segment(self, payload):
        obj = _Carrier(payload, payload, tag="x")
        created = share_object(obj, ("left", "right", "tag"))
        try:
            assert len(created) == 1
            assert obj._shared["left"] is obj._shared["right"]
            assert obj.left is obj.right
            assert obj.tag == "x"  # non-arrays are left alone
            clone = pickle.loads(pickle.dumps(obj))
            assert clone.left is clone.right
            np.testing.assert_array_equal(clone.left, payload)
        finally:
            for handle in created:
                handle.release()

    def test_resharing_reuses_existing_segments(self, payload):
        obj = _Carrier(payload, payload.copy(), tag="x")
        first = share_object(obj, ("left", "right"))
        try:
            assert len(first) == 2
            again = share_object(obj, ("left", "right"))
            assert again == []
            assert obj._shared["left"] is first[0]
        finally:
            for handle in first:
                handle.release()

    def test_registry_spans_objects(self, payload):
        a = _Carrier(payload, payload.copy(), tag="a")
        b = _Carrier(payload, payload.copy(), tag="b")
        registry = {}
        created = share_object(a, ("left", "right"), registry=registry)
        created += share_object(b, ("left", "right"), registry=registry)
        try:
            # ``payload`` appears in both objects but gets one segment.
            assert len(created) == 3
            assert a._shared["left"] is b._shared["left"]
        finally:
            for handle in created:
                handle.release()


def _child_checksum(blob, queue):
    handle = pickle.loads(blob)
    queue.put(float(handle.array.sum()))
