"""The session core on its own: no executor, a stub scheduler.

Every backend's numbers go through ``EngineSession.book`` and the
``open_boundary`` / ``close_boundary`` pair; the backend suites pin them
end to end.  What no real grid reaches is pinned here: one booking that
crosses two epoch boundaries, and both stopping rules firing on the same
boundary.
"""

from types import SimpleNamespace

from repro.exceptions import ExecutionError
from repro.exec import EngineResult, EngineSession


class _StubScheduler:
    total_points = 10

    def __init__(self):
        self.calls = []

    def complete_task(self, task):
        self.calls.append("complete_task")

    def start_iteration(self):
        self.calls.append("start_iteration")

    def is_gpu_worker(self, worker_index):
        return False


class _StubEngine:
    backend_name = "stub"
    kernel_name = "stub"
    error_class = ExecutionError
    result_class = EngineResult
    model = None
    test = object()  # "has a test set", so target_rmse is accepted
    training = SimpleNamespace(iterations=5)

    def __init__(self):
        self.scheduler = _StubScheduler()


class _BareCore(EngineSession):
    """The core with nothing underneath: the tests book completions by hand."""

    def _advance(self):
        return None

    def _release(self):
        pass


def _task(points):
    return SimpleNamespace(nnz=points, blocks=[None], stolen=False)


def test_one_booking_crossing_two_boundaries():
    engine = _StubEngine()
    core = _BareCore(engine, iterations=2)

    core.book(0, _task(25), start=1.0, end=3.0)  # 25 ratings >= two epochs of 10
    assert core.boundary_due
    core.open_boundary()
    core.close_boundary(None, 0.9)
    # The cap (2 epochs) is not reached by the first boundary: the run goes on.
    assert core.boundary_due and not core.done
    core.open_boundary()
    core.close_boundary(None, 0.8)
    assert not core.boundary_due  # the cap rule fired on the second one

    assert engine.scheduler.calls == ["complete_task", "start_iteration", "start_iteration"]
    assert [(r.iteration, r.test_rmse, r.points_processed, r.simulated_time) for r in core.trace.iterations] == [
        (0, 0.9, 25, 3.0),
        (1, 0.8, 25, 3.0),
    ]
    assert [task.iteration for task in core.trace.tasks] == [0]
    first, second = core.step(), core.step()
    assert (first.epoch, first.test_rmse, second.epoch, second.test_rmse) == (0, 0.9, 1, 0.8)
    assert core.step() is None and core.done
    result = core.finish()
    assert result.stop_reason == "iterations" and not result.converged
    assert result.engine_time == 3.0


def test_target_rmse_beats_the_cap_on_the_same_boundary():
    core = _BareCore(_StubEngine(), iterations=1, target_rmse=0.5)

    core.book(0, _task(10), start=0.0, end=2.0)
    core.open_boundary()
    core.close_boundary(None, 0.4)  # reaches the target on the cap's own epoch

    report = core.step()
    assert report.converged and report.epoch == 0
    result = core.finish()
    assert result.stop_reason == "target_rmse" and result.converged
    assert result.trace.target_reached_at == 2.0
