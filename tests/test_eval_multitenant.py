"""Multi-tenant correctness of one shared cache root.

Pool workers and concurrent CLI invocations point many processes (and
threaded callers many threads) at one ``.cache/repro-eval`` directory;
these tests pin the concurrency fixes that make that safe:
digest-sharded entries, per-call-unique tmp files (plus orphan
sweeping), and jobs run from a thread other than the main one.
"""

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.eval.jobs import (
    MISS,
    DiskCache,
    count_spec,
    run_attempt,
    simulate,
    unique_tmp_path,
)

BENCHES = ("jpeg", "go", "compress")


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache", code_version="v1")


# ----------------------------------------------------------------------
# Sharded layout.
# ----------------------------------------------------------------------


class TestShardedLayout:
    def test_store_writes_digest_sharded(self, cache):
        key = count_spec("jpeg").key
        cache.store(key, 123)
        path = cache.path_for(key)
        assert path.parent != cache.root
        assert path.parent.parent == cache.root
        assert len(path.parent.name) == 2
        assert path.exists()
        assert cache.load(key) == 123

    def test_clear_walks_both_layouts(self, cache):
        k1, k2 = count_spec("jpeg").key, count_spec("go").key
        cache.store(k1, 1)
        cache.store(k2, 2)
        # A flat root/*.pkl entry, as versions before sharding wrote it.
        os.replace(cache.path_for(k2), cache.root / cache.path_for(k2).name)
        assert cache.clear() == 2
        assert cache.load(k1) is MISS
        assert cache.load(k2) is MISS

    def test_prune_stale_walks_both_layouts(self, cache):
        stale = DiskCache(cache.root, code_version="old")
        k1, k2 = count_spec("jpeg").key, count_spec("go").key
        stale.store(k1, 1)
        stale.store(k2, 2)
        os.replace(stale.path_for(k2), stale.root / stale.path_for(k2).name)
        fresh = DiskCache(cache.root, code_version="new")
        assert fresh.prune_stale() == 2


# ----------------------------------------------------------------------
# Tmp files: uniqueness and orphan sweeping.
# ----------------------------------------------------------------------


class TestTmpFiles:
    def test_unique_across_calls_and_threads(self, tmp_path):
        target = tmp_path / "entry.pkl"
        seen = []
        lock = threading.Lock()

        def grab():
            paths = [unique_tmp_path(target) for _ in range(50)]
            with lock:
                seen.extend(paths)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == len(seen)
        assert all(".tmp" in p.name for p in seen)

    def test_prune_stale_sweeps_aged_orphans(self, cache):
        key = count_spec("jpeg").key
        cache.store(key, 1)
        orphan_flat = cache.root / "dead.pkl.tmp1-2-3"
        shard = cache.path_for(key).parent
        orphan_shard = shard / "dead.pkl.tmp4-5-6"
        for orphan in (orphan_flat, orphan_shard):
            orphan.write_bytes(b"partial write from a crashed process")
        assert cache.prune_stale(tmp_age_seconds=0.0) == 2
        assert not orphan_flat.exists()
        assert not orphan_shard.exists()
        assert cache.load(key) == 1

    def test_prune_stale_keeps_young_tmps(self, cache):
        cache.root.mkdir(parents=True, exist_ok=True)
        young = cache.root / "live.pkl.tmp1-2-3"
        young.write_bytes(b"another writer, mid-replace")
        assert cache.prune_stale(tmp_age_seconds=3600.0) == 0
        assert young.exists()

    def test_clear_sweeps_orphans_unconditionally(self, cache):
        key = count_spec("jpeg").key
        cache.store(key, 1)
        orphan = cache.root / "dead.pkl.tmp9-9-9"
        orphan.write_bytes(b"junk")
        assert cache.clear() == 2
        assert not orphan.exists()


# ----------------------------------------------------------------------
# Many tenants, one root.
# ----------------------------------------------------------------------


def _tenant_pass(root, benches):
    """One tenant's sweep against the shared root (importable so a
    spawned process can run it too)."""
    cache = DiskCache(root, code_version="vtest")
    out = {}
    for bench in benches:
        spec = count_spec(bench)
        hit = cache.load(spec.key)
        if hit is MISS:
            hit = simulate(spec)
            cache.store(spec.key, hit)
        out[bench] = hit
    return out


class TestSharedRootHammer:
    def _assert_identical_to_inline(self, results, reference):
        for out in results:
            assert out == reference

    def _assert_no_tmp_residue(self, root):
        leftovers = sorted(root.glob("**/*.tmp*"))
        assert leftovers == []

    def test_threads_hammering_one_root(self, tmp_path):
        root = tmp_path / "cache"
        reference = {b: simulate(count_spec(b)) for b in BENCHES}
        with ThreadPoolExecutor(max_workers=8) as pool:
            # Overlapping job sets: every tenant wants every benchmark,
            # in a different order, so the same key races constantly.
            futures = [
                pool.submit(_tenant_pass, root,
                            BENCHES[i % len(BENCHES):] + BENCHES[:i % len(BENCHES)])
                for i in range(8)
            ]
            results = [f.result() for f in futures]
        self._assert_identical_to_inline(results, reference)
        self._assert_no_tmp_residue(root)
        # Every tenant ends with a loadable, identical cache.
        after = DiskCache(root, code_version="vtest")
        for bench in BENCHES:
            assert after.load(count_spec(bench).key) == reference[bench]

    def test_processes_hammering_one_root(self, tmp_path):
        root = tmp_path / "cache"
        reference = {b: simulate(count_spec(b)) for b in BENCHES[:2]}
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_tenant_pass, root, BENCHES[:2]) for _ in range(2)
            ]
            results = [f.result() for f in futures]
        self._assert_identical_to_inline(results, reference)
        self._assert_no_tmp_residue(root)


# ----------------------------------------------------------------------
# Jobs off the main thread.
# ----------------------------------------------------------------------


class TestOffMainThreadTimeout:
    def _run_in_thread(self, fn):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        if "error" in box:
            raise box["error"]
        return box["value"]

    def test_no_timeout_off_main_thread_succeeds(self):
        # Without a budget no SIGALRM is armed, so a job runs on any
        # thread.
        spec = count_spec("jpeg")
        result, wall, cpu, started, _report = self._run_in_thread(
            lambda: run_attempt(spec, None)
        )
        assert result == simulate(spec)
        assert wall >= 0.0 and cpu >= 0.0
        assert started <= time.monotonic()

    def test_main_thread_still_uses_sigalrm(self):
        # The signal path pool workers and the inline driver use: their
        # jobs run on the process's main thread.
        spec = count_spec("jpeg")
        result, *_ = run_attempt(spec, 600.0)
        assert result == simulate(spec)
