"""Unit tests for multifactor priority and the pending queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SchedulingError
from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority, PriorityWeights
from repro.slurm.queue import PendingQueue
from tests.conftest import make_job, make_spec
from tests.reference_engine import ReferencePriority


class TestPriorityWeights:
    def test_defaults(self):
        weights = PriorityWeights()
        assert weights.age > 0 and weights.fairshare > 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            PriorityWeights(age=-1.0)

    def test_bad_saturation_rejected(self):
        with pytest.raises(ConfigError):
            PriorityWeights(age_saturation=0.0)


class TestMultifactorPriority:
    def test_age_factor_grows_with_wait(self):
        priority = MultifactorPriority(num_nodes=8)
        job = make_job(submit=0.0)
        assert priority.priority(job, 1000.0) > priority.priority(job, 10.0)

    def test_age_factor_saturates(self):
        weights = PriorityWeights(age=100.0, size=0.0, fairshare=0.0,
                                  age_saturation=100.0)
        priority = MultifactorPriority(weights, num_nodes=8)
        job = make_job(submit=0.0)
        assert priority.priority(job, 100.0) == pytest.approx(100.0)
        assert priority.priority(job, 10_000.0) == pytest.approx(100.0)

    def test_size_factor_prefers_wide_jobs(self):
        weights = PriorityWeights(age=0.0, size=100.0, fairshare=0.0)
        priority = MultifactorPriority(weights, num_nodes=8)
        wide, narrow = make_job(nodes=8), make_job(nodes=1)
        assert priority.priority(wide, 0.0) > priority.priority(narrow, 0.0)

    def test_fairshare_decays_with_usage(self):
        priority = MultifactorPriority(num_nodes=8)
        assert priority.fairshare_factor("fresh") == 1.0
        priority.charge("heavy", 100_000.0)
        assert priority.fairshare_factor("heavy") < 0.5

    def test_charge_rejects_negative(self):
        priority = MultifactorPriority(num_nodes=8)
        with pytest.raises(ConfigError):
            priority.charge("u", -1.0)

    def test_order_breaks_ties_fifo(self):
        priority = MultifactorPriority(num_nodes=8)
        first = make_job(job_id=1, submit=0.0)
        second = make_job(job_id=2, submit=0.0)
        ordered = priority.order([second, first], now=100.0)
        assert [j.job_id for j in ordered] == [1, 2]

    def test_order_puts_heavy_user_last(self):
        weights = PriorityWeights(age=0.0, size=0.0, fairshare=100.0)
        priority = MultifactorPriority(weights, num_nodes=8)
        priority.charge("hog", 200_000.0)
        hog_job = make_job(job_id=1, user="hog")
        fresh_job = make_job(job_id=2, user="fresh")
        ordered = priority.order([hog_job, fresh_job], now=0.0)
        assert [j.job_id for j in ordered] == [2, 1]

    def test_refresh_stores_priority(self):
        priority = MultifactorPriority(num_nodes=8)
        job = make_job(submit=0.0)
        priority.refresh([job], now=500.0)
        assert job.priority > 0.0

    def test_order_stores_the_formula_bit_for_bit(self):
        # The batch path shares the per-user and per-QoS terms across
        # jobs; every stored float must still equal the textbook sum
        # evaluated left to right.
        weights = PriorityWeights(qos=30.0, age_saturation=5000.0)
        priority = MultifactorPriority(weights, num_nodes=7)
        priority.requeue_backoff = 12.5
        priority.charge("hog", 123_456.7)
        priority.charge("light", 987.6)
        jobs = [
            make_job(job_id=i, submit=37.3 * i, nodes=1 + i % 7,
                     user=("hog", "light", "fresh")[i % 3])
            for i in range(1, 13)
        ]
        for job in jobs[::4]:
            job.requeues = 2
        now = 3141.5
        ordered = priority.order(jobs, now)
        for job in jobs:
            w = weights
            expected = (
                w.age * min(1.0, max(0.0, now - job.spec.submit_time)
                            / w.age_saturation)
                + w.size * min(1.0, job.num_nodes / 7)
                + w.fairshare * 2.0 ** (
                    -priority.usage.get(job.spec.user, 0.0)
                    / priority.share_norm)
                + w.qos * priority.qos_factor(job.spec.qos)
            )
            if job.requeues:
                expected -= 12.5 * job.requeues
            assert job.priority == expected, job.job_id
            assert priority.priority(job, now) == expected
        assert [-j.priority for j in ordered] == sorted(
            -j.priority for j in jobs
        )


class TestPendingQueue:
    def _queue(self):
        return PendingQueue(MultifactorPriority(num_nodes=8))

    def test_add_remove(self):
        queue = self._queue()
        job = make_job()
        queue.add(job)
        assert job in queue and len(queue) == 1
        queue.remove(job)
        assert job not in queue and not queue

    def test_add_duplicate_rejected(self):
        queue = self._queue()
        job = make_job()
        queue.add(job)
        with pytest.raises(SchedulingError, match="already queued"):
            queue.add(job)

    def test_add_non_pending_rejected(self):
        queue = self._queue()
        job = make_job()
        job.mark_cancelled(0.0)
        with pytest.raises(SchedulingError, match="only PENDING"):
            queue.add(job)

    def test_remove_absent_rejected(self):
        with pytest.raises(SchedulingError, match="not queued"):
            self._queue().remove(make_job())

    def test_ordered_uses_priority(self):
        queue = self._queue()
        old = make_job(job_id=1, submit=0.0)
        new = make_job(job_id=2, submit=1000.0)
        queue.add(new)
        queue.add(old)
        ordered = queue.ordered(now=10_000.0)
        assert ordered[0].job_id == 1  # longer wait, higher age factor

    def test_iter_in_submit_order(self):
        queue = self._queue()
        jobs = [make_job(job_id=i) for i in (3, 1, 2)]
        for job in jobs:
            queue.add(job)
        assert [j.job_id for j in queue] == [3, 1, 2]

    def test_clear(self):
        queue = self._queue()
        queue.add(make_job())
        queue.clear()
        assert len(queue) == 0


class TestQos:
    def test_qos_factor_levels(self):
        priority = MultifactorPriority(num_nodes=8)
        assert priority.qos_factor("high") == 1.0
        assert priority.qos_factor("normal") == 0.5
        assert priority.qos_factor("low") == 0.0
        assert priority.qos_factor("mystery") == 0.5  # falls back

    def test_qos_weight_reorders_queue(self):
        weights = PriorityWeights(age=0.0, size=0.0, fairshare=0.0, qos=1000.0)
        priority = MultifactorPriority(weights, num_nodes=8)
        normal = make_job(job_id=1)
        urgent_spec = make_job(job_id=2).spec.with_(qos="high")
        urgent = Job(urgent_spec)
        ordered = priority.order([normal, urgent], now=0.0)
        assert [j.job_id for j in ordered] == [2, 1]

    def test_zero_qos_weight_is_inert(self):
        priority = MultifactorPriority(num_nodes=8)  # default weight 0
        normal = make_job(job_id=1, submit=0.0)
        urgent = Job(make_job(job_id=2, submit=0.0).spec.with_(qos="high"))
        ordered = priority.order([normal, urgent], now=100.0)
        assert [j.job_id for j in ordered] == [1, 2]  # FIFO tie-break

    def test_custom_levels(self):
        priority = MultifactorPriority(
            num_nodes=8, qos_levels={"normal": 0.2, "premium": 0.9}
        )
        assert priority.qos_factor("premium") == 0.9
        assert priority.qos_factor("unknown") == 0.2


USERS = ("ann", "bob", "cy", "dee", "eve")
QOS = ("low", "normal", "high", "mystery")

job_params = st.tuples(
    st.integers(1, 20),                      # nodes (past the cluster's 16)
    st.sampled_from(USERS),
    st.sampled_from(QOS),                    # "mystery" is unknown
    st.floats(min_value=0.0, max_value=3000.0),  # submit time
    st.integers(0, 3),                       # requeues
)
pass_params = st.tuples(
    st.floats(min_value=0.0, max_value=6000.0),  # now
    st.lists(                                # charges before the pass
        st.tuples(st.sampled_from(USERS),
                  st.floats(min_value=0.0, max_value=1e6)),
        max_size=3,
    ),
)


def _jobs(params) -> list[Job]:
    jobs = []
    for job_id, (nodes, user, qos, submit, requeues) in enumerate(params, 1):
        job = Job(make_spec(job_id=job_id, submit=submit, nodes=nodes,
                            user=user).with_(qos=qos))
        job.requeues = requeues
        jobs.append(job)
    return jobs


def assert_order_matches_reference(params, passes, backoff, saturation):
    """Queue *params* jobs and run *passes*: the queue's order, rank and
    stored priority bits must equal :class:`ReferencePriority`'s, which
    writes every pass's priorities at once.  The queue writes a pass's
    priorities when flushed: here by the next pass's ``ranked``, after
    that pass's charges, so the flush must write the keys of the pass
    it belongs to."""
    # Waits pass the 500 s saturation; submits may lie after now.
    weights = PriorityWeights(qos=40.0, age_saturation=saturation)
    priority = MultifactorPriority(weights, num_nodes=16)
    reference = ReferencePriority(weights, num_nodes=16)
    priority.requeue_backoff = reference.requeue_backoff = backoff
    queue = PendingQueue(priority)
    jobs, ref_jobs = _jobs(params), _jobs(params)
    for job in jobs:
        queue.add(job)
    for now, charges in passes:
        for user, amount in charges:
            priority.charge(user, amount)
            reference.charge(user, amount)
        ranked = [job.job_id for job in queue.ranked(now)]
        assert [j.priority.hex() for j in jobs] == [
            j.priority.hex() for j in ref_jobs
        ]
        ordered = queue.ordered(now)
        expected = reference.order(list(ref_jobs), now)
        assert [j.job_id for j in ordered] == [j.job_id for j in expected]
        assert ranked == [j.job_id for j in expected]
    queue.flush()
    assert [j.priority.hex() for j in jobs] == [
        j.priority.hex() for j in ref_jobs
    ]


class TestOrderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        params=st.lists(job_params, max_size=40),
        passes=st.lists(pass_params, min_size=1, max_size=5),
        backoff=st.sampled_from([0.0, 25.0, 700.0]),
        saturation=st.sampled_from([500.0, 7 * 86_400.0]),
    )
    def test_same_order_and_priority_bits(self, params, passes, backoff,
                                          saturation):
        assert_order_matches_reference(params, passes, backoff, saturation)

    def test_ranked_writes_nothing(self):
        queue = PendingQueue(MultifactorPriority(num_nodes=8))
        jobs = [make_job(job_id=i, submit=10.0 * i) for i in (1, 2, 3)]
        for job in jobs:
            queue.add(job)
        ranked = queue.ranked(now=500.0)
        assert [job.priority for job in jobs] == [0.0, 0.0, 0.0]
        assert ranked == queue.ordered(now=500.0)
        # A pass keeps its priorities until a flush writes them.
        assert [job.priority for job in jobs] == [0.0, 0.0, 0.0]
        queue.flush()
        assert all(job.priority > 0.0 for job in jobs)

