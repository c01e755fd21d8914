"""Hardened experiment jobs on the sweep scheduler: timeouts, retries,
wall-limit injection, journal resume, and the batch post-mortem."""

from repro.errors import ReproError, SimulationTimeout, WorkloadError
from repro.orchestrate.dag import JobDAG
from repro.orchestrate.journal import Journal
from repro.orchestrate.scheduler import JobResult, Scheduler


def one_job(job) -> JobDAG:
    dag = JobDAG("harness")
    dag.job("job", job, category="cell")
    return dag


def run_one(job, **policy) -> JobResult:
    return Scheduler(one_job(job), **policy).run()["job"]


class TestRunnerStatuses:
    def test_ok_job(self):
        sweep = Scheduler(one_job(lambda: 41 + 1)).run()
        result = sweep["job"]
        assert result.ok and result.value == 42
        assert result.status == "ok" and result.attempts == 1
        assert not sweep.degraded

    def test_repro_error_is_not_retried(self):
        calls = []

        def job():
            calls.append(1)
            raise WorkloadError("golden mismatch")

        result = run_one(job, retries=3)
        assert result.status == "error"
        assert "WorkloadError" in result.error
        assert len(calls) == 1, "deterministic failures must not retry"

    def test_environmental_flake_is_retried(self):
        calls = []

        def job():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("spurious")
            return "recovered"

        result = run_one(job, retries=2)
        assert result.ok and result.value == "recovered"
        assert result.attempts == 3

    def test_retries_are_bounded(self):
        calls = []

        def job():
            calls.append(1)
            raise OSError("always")

        result = run_one(job, retries=2)
        assert result.status == "error"
        assert len(calls) == 3

    def test_timeout_short_circuits_retries(self):
        calls = []

        def job():
            calls.append(1)
            raise SimulationTimeout("wedged", 1.0, 2.0)

        result = run_one(job, retries=5)
        assert result.status == "timeout"
        assert len(calls) == 1, "a cooperative timeout will time out again"
        assert "TIMEOUT" in result.describe()


class TestWallLimitInjection:
    def test_jobs_that_accept_wall_limit_receive_it(self):
        seen = {}

        def job(wall_limit=None):
            seen["wall_limit"] = wall_limit
            return 1

        run_one(job, wall_limit=2.5)
        assert seen["wall_limit"] == 2.5

    def test_var_keyword_jobs_receive_it(self):
        seen = {}

        def job(**kwargs):
            seen.update(kwargs)
            return 1

        run_one(job, wall_limit=1.0)
        assert seen == {"wall_limit": 1.0}

    def test_plain_jobs_are_left_alone(self):
        result = run_one(lambda: 7, wall_limit=1.0)
        assert result.ok and result.value == 7


class TestResume:
    def test_completed_jobs_resume_from_checkpoint(self, tmp_path):
        path = tmp_path / "fig.journal"
        calls = []

        def job():
            calls.append(1)
            return "computed"

        assert run_one(job, journal=path).status == "ok"
        result = run_one(job, journal=path)
        assert result.status == "resumed"
        assert result.value == "computed"
        assert result.ok
        assert len(calls) == 1
        assert "resumed" in result.describe()

    def test_failed_jobs_are_not_checkpointed(self, tmp_path):
        path = tmp_path / "fig.journal"

        def bad():
            raise ReproError("boom")

        dag = one_job(bad)
        Scheduler(dag, journal=path).run()
        assert not Journal(path).has_value(dag.jobs["job"].key)

    def test_checkpoint_accepts_instance(self, tmp_path):
        journal = Journal(tmp_path / "x.journal")
        assert Scheduler(one_job(int), journal=journal).journal is journal
        by_path = Scheduler(one_job(int), journal=tmp_path / "y.journal")
        assert isinstance(by_path.journal, Journal)


class TestReporting:
    def test_degraded_and_report(self):
        def bad():
            raise ReproError("deadlock")

        dag = JobDAG("batch")
        dag.job("good", lambda: 1, category="cell")
        dag.job("bad", bad, category="cell")
        sweep = Scheduler(dag).run()
        assert [result.name for result in sweep.degraded] == ["bad"]
        report = sweep.report()
        assert "good: ok" in report
        assert "bad: ERROR" in report
        assert "1 error, 1 ok" in report

    def test_outcome_describe_variants(self):
        assert "ok in" in JobResult("k", "ok", elapsed=0.5).describe()
        assert "resumed" in JobResult("k", "resumed").describe()
        described = JobResult("k", "error", error="x",
                              attempts=2).describe()
        assert "2 attempts" in described
        assert JobResult("k", "skipped", error="upstream degraded: a") \
            .describe() == "SKIPPED: upstream degraded: a"
