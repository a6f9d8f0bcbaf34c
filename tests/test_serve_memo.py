"""Memo store + single-flight coalescing: keys, LRU persistence, fan-out.

Covers the canonical-key invariants (property-tested: dict insertion
order, cross-type numeric equality, float edge cases), the
``MemoStore`` storage discipline (LRU byte budget, resume, torn tails,
corrupt records), and the service
integration: memo hits replay bitwise, duplicates coalesce behind one
leader, leader failure promotes a waiter, and a coalesced waiter's
deadline sheds exactly once — all with exact five-bucket accounting.
"""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import GridPoint, run_grid
from repro.machine.simulator import SimResult
from repro.machine.spec import IVY_DESKTOP
from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults
from repro.resilience.journal import (
    canonical_fragment,
    canonical_number,
    grid_hash,
    point_key,
    sim_result_to_dict,
)
from repro.resilience.retry import NO_RETRY
from repro.schedules import Variant
from repro.serve import (
    ByteBudget,
    JobService,
    JobSpec,
    MemoStore,
    canonical_job_key,
    memo_bytes,
    serve_grid,
)
from repro.serve.memo import decode_result, encode_result

DOMAIN = (32, 32, 32)


def point(threads=1, box=16, engine="estimate", ncomp=5):
    return GridPoint(
        Variant("series"), IVY_DESKTOP, threads, box, DOMAIN,
        ncomp=ncomp, engine=engine,
    )


def quiet():
    """An empty fault plan: shields the test from ambient fault seeds."""
    return inject_faults(FaultPlan([]))


def sim(i: float) -> SimResult:
    return SimResult(
        machine="m", variant="v", threads=1, time_s=float(i),
        flops=1.0, dram_bytes=1.0, phase_times=[float(i)],
    )


def wait_until(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --------------------------------------------------------------- canonical keys
_NUMBERS = st.one_of(
    st.integers(-(10 ** 24), 10 ** 24),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [-0.0, 0.0, 0, 2, 2.0, -2.0, 5, 5.0, 1e22, float("1e+22"),
         10 ** 22, 1e-3, 2.5]
    ),
)

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10 ** 12), 10 ** 12),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)

_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalNumber:
    """Equal finite numbers must always format identically."""

    @settings(max_examples=300, deadline=None)
    @given(_NUMBERS, _NUMBERS)
    def test_string_equality_iff_numeric_equality(self, a, b):
        assert (canonical_number(a) == canonical_number(b)) == (a == b)

    def test_zero_family_collapses(self):
        assert (
            canonical_number(-0.0)
            == canonical_number(0.0)
            == canonical_number(0)
            == "0"
        )

    def test_integral_float_matches_int_twin(self):
        assert canonical_number(2.0) == canonical_number(2) == "2"
        assert canonical_number(1e22) == canonical_number(float("1e+22"))
        assert canonical_number(1e22) == canonical_number(10 ** 22)

    def test_numpy_scalars_lose_their_repr(self):
        np = pytest.importorskip("numpy")
        assert canonical_number(np.int64(7)) == canonical_number(7)
        assert canonical_number(np.float64(2.5)) == canonical_number(2.5)
        assert canonical_number(np.float32(2.0)) == canonical_number(2)

    def test_bools_stay_distinct_from_ints(self):
        assert canonical_number(True) != canonical_number(1)
        assert canonical_number(False) != canonical_number(0)

    def test_nonfinite_tokens(self):
        assert canonical_number(float("nan")) == "nan"
        assert canonical_number(float("inf")) == "inf"
        assert canonical_number(float("-inf")) == "-inf"


class TestCanonicalFragment:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _JSON, max_size=6),
           st.randoms(use_true_random=False))
    def test_dict_insertion_order_invariant(self, d, rnd):
        items = list(d.items())
        rnd.shuffle(items)
        assert canonical_fragment(dict(items)) == canonical_fragment(d)

    @settings(max_examples=100, deadline=None)
    @given(_JSON, st.randoms(use_true_random=False))
    def test_nested_permutations_stable(self, obj, rnd):
        def shuffled(o):
            if isinstance(o, dict):
                items = [(k, shuffled(v)) for k, v in o.items()]
                rnd.shuffle(items)
                return dict(items)
            if isinstance(o, list):
                return [shuffled(v) for v in o]
            return o

        assert canonical_fragment(shuffled(obj)) == canonical_fragment(obj)

    def test_object_repr_is_refused(self):
        with pytest.raises(TypeError):
            canonical_fragment(object())


class TestPointKeyFloatEdges:
    """point_key/grid_hash never split one semantic config (satellite 1)."""

    def test_numpy_point_keys_as_plain_int_twin(self):
        np = pytest.importorskip("numpy")
        plain = point()
        numpied = GridPoint(
            Variant("series"), IVY_DESKTOP, np.int64(1), np.int64(16),
            tuple(np.int64(c) for c in DOMAIN), ncomp=np.int64(5),
        )
        assert point_key(numpied) == point_key(plain)
        assert grid_hash([numpied]) == grid_hash([plain])

    def test_float_typed_fields_key_as_int_twin(self):
        assert point_key(point(threads=2)) == point_key(
            GridPoint(Variant("series"), IVY_DESKTOP, 2.0, 16.0, DOMAIN)
        )

    def test_negative_zero_extent_keys_as_zero(self):
        a = GridPoint(Variant("series"), IVY_DESKTOP, 1, 16, (32, 32, -0.0))
        b = GridPoint(Variant("series"), IVY_DESKTOP, 1, 16, (32, 32, 0))
        assert point_key(a) == point_key(b)

    def test_huge_extent_spelling_invariant(self):
        a = GridPoint(Variant("series"), IVY_DESKTOP, 1, 16, (32, 32, 1e22))
        b = GridPoint(
            Variant("series"), IVY_DESKTOP, 1, 16, (32, 32, float("1e+22"))
        )
        assert point_key(a) == point_key(b)

    def test_grid_hash_is_order_sensitive(self):
        pts = [point(threads=1), point(threads=2)]
        assert grid_hash(pts) != grid_hash(list(reversed(pts)))


class TestCanonicalJobKey:
    def test_stable_and_content_sensitive(self):
        p = point()
        k = canonical_job_key("estimate", p)
        assert k == canonical_job_key(JobSpec("estimate", p))
        assert k.startswith("estimate:")
        assert canonical_job_key("estimate", point(ncomp=6)) != k
        assert canonical_job_key("simulate", p) != k

    def test_grid_key_is_order_sensitive(self):
        pts = [point(threads=1), point(threads=2)]
        assert canonical_job_key("grid", pts) != canonical_job_key(
            "grid", list(reversed(pts))
        )

    def test_non_content_payload_raises_type_error(self):
        with pytest.raises(TypeError):
            canonical_job_key("estimate", object())
        with pytest.raises(TypeError):
            canonical_job_key("tune", {"fn": object()})


# --------------------------------------------------------------- the memo store
class TestMemoStore:
    def test_put_get_roundtrip_counts_and_fresh_objects(self):
        store = MemoStore()
        key = "estimate:abc"
        assert store.get(key) is None and store.misses == 1
        assert store.put(key, "estimate", sim(3))
        a, b = store.get(key), store.get(key)
        assert store.hits == 2
        assert a is not b  # decoded fresh per hit: cache is unmutable
        assert sim_result_to_dict(a) == sim_result_to_dict(sim(3))

    def test_lru_eviction_respects_recency(self):
        store = MemoStore(limit_bytes=1)
        store.limit_bytes = None
        store.put("k1", "estimate", sim(1))
        entry_bytes = store.current_bytes
        store.limit_bytes = int(entry_bytes * 2.5)  # room for two entries
        store.put("k2", "estimate", sim(2))
        assert store.get("k1") is not None  # refresh k1: k2 becomes LRU
        store.put("k3", "estimate", sim(3))
        assert store.evictions == 1
        assert store.get("k2") is None  # the LRU entry went
        assert store.get("k1") is not None and store.get("k3") is not None
        assert store.current_bytes <= store.limit_bytes

    def test_entry_larger_than_budget_is_not_stored(self):
        store = MemoStore(limit_bytes=4)
        assert not store.put("k", "estimate", sim(1))
        assert len(store) == 0 and store.current_bytes == 0

    def test_persistence_resume_replays_entries(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        with MemoStore(path) as store:
            store.put("k1", "estimate", sim(1))
            store.put("k2", "estimate", sim(2))
        with MemoStore(path, resume=True) as resumed:
            assert len(resumed) == 2
            assert sim_result_to_dict(resumed.get("k2")) == sim_result_to_dict(
                sim(2)
            )

    def test_eviction_tombstones_survive_resume(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        with MemoStore(path) as store:
            store.put("k1", "estimate", sim(1))
            entry_bytes = store.current_bytes
            store.limit_bytes = int(entry_bytes * 1.5)  # room for one
            store.put("k2", "estimate", sim(2))  # evicts k1
            assert store.evictions == 1
        with MemoStore(path, resume=True) as resumed:
            assert resumed.get("k1") is None
            assert resumed.get("k2") is not None

    def test_torn_tail_truncated_on_resume(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        with MemoStore(path) as store:
            store.put("k1", "estimate", sim(1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "put", "k": "k2", "kind": "esti')  # torn
        with MemoStore(path, resume=True) as resumed:
            assert resumed.recovered_bytes > 0
            assert resumed.get("k1") is not None
            assert resumed.get("k2") is None
        # The torn bytes are gone from disk, not just skipped.
        with open(path, encoding="utf-8") as fh:
            assert all(json.loads(ln) for ln in fh if ln.strip())

    def test_structurally_corrupt_records_are_skipped(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        with MemoStore(path) as store:
            store.put("k1", "estimate", sim(1))
        with open(path, "a", encoding="utf-8") as fh:
            for rec in (
                {"op": "evict", "k": ["a"]},  # unhashable key
                {"op": "put", "k": "k2", "kind": "estimate", "v": {}},
                {"op": "put", "k": "k3", "kind": "estimate", "v": [1]},
                {"op": "purge", "k": "k1"},  # unknown op
            ):
                fh.write(json.dumps(rec) + "\n")
        with MemoStore(path, resume=True) as resumed:  # TypeError pre-fix
            assert resumed.skipped_records == 4
            assert len(resumed) == 1 and resumed.get("k1") is not None

    def test_memo_bytes_probe_feeds_byte_budget(self):
        before = memo_bytes()
        store = MemoStore()
        store.put("k", "estimate", sim(1))
        assert memo_bytes() >= before + store.current_bytes
        budget = ByteBudget(limit_bytes=1, probe="memo")
        ok, used = budget.admits()
        assert not ok and used >= store.current_bytes

    def test_opaque_kinds_stay_memory_only(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        with MemoStore(path) as store:
            store.put("c", "cluster", object())  # no JSON codec
            assert store.get("c") is not None
        with MemoStore(path, resume=True) as resumed:
            assert resumed.get("c") is None  # never persisted

    def test_encode_decode_partial_grid_refused(self):
        pts = [point(threads=1), point(threads=2)]
        with quiet():
            gr = run_grid(pts)
        enc = encode_result("grid", gr)
        dec = decode_result("grid", enc)
        assert dec.grid_hash == gr.grid_hash
        assert [sim_result_to_dict(r) for r in dec] == [
            sim_result_to_dict(r) for r in gr
        ]
        gr[0] = None  # a partial grid must never replay as a hit
        assert encode_result("grid", gr) is None


# ------------------------------------------------------- service integration
class TestServiceMemo:
    def test_second_submission_is_a_bitwise_hit(self):
        p = point()
        with quiet(), JobService(workers=1, memo=True) as svc:
            first = svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
            second = svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
            stats = svc.stats()
        assert first.status == "ok" and not first.cached
        assert second.status == "ok" and second.cached
        assert sim_result_to_dict(first.value) == sim_result_to_dict(
            second.value
        )
        assert stats["memo"]["hits"] == 1 and stats["memo"]["misses"] == 1
        assert stats["counts"]["ok"] == 2

    def test_grid_hit_replays_bitwise(self):
        pts = [point(t, b) for t in (1, 2) for b in (16, 32)]
        with quiet(), JobService(workers=2, memo=True) as svc:
            cold = serve_grid(pts, svc, batch=True)
            warm = serve_grid(pts, svc, batch=True)
            stats = svc.stats()
        assert stats["memo"]["hits"] == 1
        assert warm.grid_hash == cold.grid_hash
        assert [sim_result_to_dict(r) for r in warm] == [
            sim_result_to_dict(r) for r in cold
        ]

    def test_persistent_store_survives_service_restart(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        p = point()
        with quiet():
            with JobService(workers=1, memo=path) as svc:
                cold = svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
            with JobService(workers=1, memo=path) as svc:
                warm = svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
                assert svc.stats()["memo"]["hits"] == 1
        assert warm.cached
        assert sim_result_to_dict(warm.value) == sim_result_to_dict(cold.value)

    def test_memo_disabled_by_default(self):
        p = point()
        with quiet(), JobService(workers=1) as svc:
            svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
            out = svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
            assert svc.stats()["memo"] is None
        assert not out.cached


class TestCoalescing:
    def test_duplicate_fanout_settles_every_ticket_once(self):
        p = point()
        label = "memo.fanout"
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label=f"{label}|",
                      stall_s=0.8, count=1),
        ])
        with inject_faults(plan), JobService(workers=2, memo=False) as svc:
            tickets = [
                svc.submit(JobSpec("estimate", p, label=label))
                for _ in range(5)
            ]
            assert wait_until(
                lambda: svc.stats()["coalesce"]["parked"] == 4, timeout=0.7
            )
            outs = [t.result(timeout=30.0) for t in tickets]
            stats = svc.stats()
        counts = stats["counts"]
        assert counts == {
            "submitted": 5, "ok": 1, "shed": 0, "degraded": 0, "failed": 0,
            "coalesced": 4,
        }
        assert stats["accounted"]
        assert stats["coalesce"]["max_live_per_key"] == 1
        encodings = {
            json.dumps(sim_result_to_dict(o.value), sort_keys=True)
            for o in outs
        }
        assert len(encodings) == 1  # the one execution fanned out bitwise

    def test_leader_failure_promotes_a_waiter(self):
        p = point()
        label = "memo.promote"
        # One attempt can consume only one perturb spec, so the leader
        # stalls (parking the waiters) and then fails on a corrupt-mode
        # output poison fired in the same attempt.
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label=f"{label}|",
                      stall_s=0.8, count=1),
            FaultSpec(scope="serve", mode="corrupt", label=f"{label}|",
                      count=1),
        ])
        with inject_faults(plan), JobService(
            workers=2, memo=False, retry_policy=NO_RETRY
        ) as svc:
            tickets = [
                svc.submit(JobSpec("estimate", p, label=label))
                for _ in range(4)
            ]
            assert wait_until(
                lambda: svc.stats()["coalesce"]["parked"] == 3, timeout=0.7
            )
            outs = [t.result(timeout=30.0) for t in tickets]
            stats = svc.stats()
        counts = stats["counts"]
        # Leader fails (its fault budget), one waiter promotes and
        # succeeds, the rest follow the promoted leader's settle.
        assert counts["failed"] == 1 and counts["ok"] == 1
        assert counts["coalesced"] == 2
        assert stats["accounted"]
        assert stats["coalesce"]["promotions"] >= 1
        assert stats["coalesce"]["max_live_per_key"] == 1
        statuses = sorted(o.status for o in outs)
        assert statuses == ["coalesced", "coalesced", "failed", "ok"]

    def test_waiter_deadline_sheds_exactly_once_without_touching_leader(self):
        """Regression (satellite 3): a coalesced waiter whose deadline
        lapses while the leader executes settles shed(deadline) once —
        the leader and the other waiters are untouched."""
        p = point()
        label = "memo.deadline"
        clock = FakeClock()
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label=f"{label}|",
                      stall_s=0.8, count=1),
        ])
        with inject_faults(plan), JobService(
            workers=2, memo=False, clock=clock, supervise_interval_s=0.02
        ) as svc:
            leader = svc.submit(
                JobSpec("estimate", p, label=label, deadline_s=1000.0)
            )
            short = svc.submit(
                JobSpec("estimate", p, label=label, deadline_s=5.0)
            )
            longer = svc.submit(
                JobSpec("estimate", p, label=label, deadline_s=1000.0)
            )
            assert wait_until(
                lambda: svc.stats()["coalesce"]["parked"] == 2, timeout=0.7
            )
            clock.advance(10.0)  # past short's deadline only
            svc._expire_waiters()
            out_short = short.result(timeout=5.0)
            assert out_short.status == "shed"
            assert out_short.reason == "deadline"
            out_leader = leader.result(timeout=30.0)
            out_longer = longer.result(timeout=30.0)
            stats = svc.stats()
        assert out_leader.status == "ok"  # leader was not cancelled
        assert out_longer.status == "coalesced"  # nor the other waiter
        assert short.result(timeout=1.0).status == "shed"  # settled once
        counts = stats["counts"]
        assert counts == {
            "submitted": 3, "ok": 1, "shed": 1, "degraded": 0, "failed": 0,
            "coalesced": 1,
        }
        assert stats["accounted"]

    def test_shutdown_flushes_parked_waiters_as_shed(self):
        p = point()
        label = "memo.shutdown"
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label=f"{label}|",
                      stall_s=0.5, count=1),
        ])
        with inject_faults(plan):
            svc = JobService(workers=2, memo=False)
            svc.start()
            tickets = [
                svc.submit(JobSpec("estimate", p, label=label))
                for _ in range(3)
            ]
            wait_until(lambda: svc.stats()["coalesce"]["parked"] == 2,
                       timeout=0.4)
            svc.stop()
            stats = svc.stats()
        assert stats["accounted"]
        assert all(t.done() for t in tickets)

    def test_coalesce_off_executes_each_duplicate(self):
        p = point()
        with quiet(), JobService(workers=1, memo=False, coalesce=False) as svc:
            outs = [
                svc.submit(JobSpec("estimate", p)).result(timeout=30.0)
                for _ in range(3)
            ]
            stats = svc.stats()
        assert all(o.status == "ok" for o in outs)
        assert stats["counts"]["coalesced"] == 0


class TestServeCLIMemo:
    def test_repeat_serves_second_pass_from_cache(self):
        env = {**os.environ, "PYTHONPATH": "src"}
        env.pop("REPRO_FAULT_SEED", None)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve", "--figure", "fig2",
                "--memo", "mem", "--repeat", "2", "--batch",
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "memo: entries=1 bytes=" in proc.stdout
        assert "hits=1 misses=1" in proc.stdout

    def test_memo_bytes_requires_memo(self):
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve", "--figure", "fig2",
                "--memo-bytes", "1000",
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode != 0
        assert "--memo-bytes requires --memo" in proc.stderr
