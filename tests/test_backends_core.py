"""The execution-backend protocol: registry, selection, threading."""

from __future__ import annotations

import pytest

from repro.amp.presets import odroid_xu4
from repro.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ExecutionBackend,
    RealBackend,
    ReferenceBackend,
    backend_names,
    create_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.check.generators import run_loop
from repro.errors import BackendError, ReproError
from repro.runtime.env import OmpEnv
from repro.runtime.program_runner import ProgramRunner
from repro.sched.registry import parse_schedule
from repro.workloads.registry import get_program


class TestRegistry:
    def test_builtins_registered(self):
        assert backend_names() == ("real", "reference")

    def test_create_by_name(self):
        assert isinstance(create_backend("reference"), ReferenceBackend)
        assert isinstance(create_backend("real"), RealBackend)

    def test_create_unknown_is_typed_error(self):
        with pytest.raises(BackendError, match="registered backends"):
            create_backend("turbo")

    def test_backend_error_is_a_repro_error(self):
        assert issubclass(BackendError, ReproError)

    def test_vectorized_is_gone(self, monkeypatch):
        # Its slot and drain engines were folded into reference; the old
        # name now fails like any unknown one, explicitly or from the
        # environment.
        with pytest.raises(BackendError, match="registered backends"):
            create_backend("vectorized")
        monkeypatch.setenv(ENV_VAR, "vectorized")
        with pytest.raises(BackendError, match=ENV_VAR):
            resolve_backend_name(None)


class TestSelection:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend_name(None) == DEFAULT_BACKEND == "reference"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "real")
        assert resolve_backend_name(None) == "real"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "real")
        assert resolve_backend_name("reference") == "reference"

    def test_invalid_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "referense")
        with pytest.raises(BackendError, match=ENV_VAR):
            resolve_backend_name(None)

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve_backend_name(None) == DEFAULT_BACKEND

    def test_resolve_backend_passthrough(self):
        live = ReferenceBackend()
        assert resolve_backend(live) is live

    def test_resolve_backend_builds_from_name(self):
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        assert isinstance(resolve_backend("real"), RealBackend)


class TestCapabilities:
    def test_reference_is_the_full_simulator(self):
        # Faults, trace and conformance recorders all run natively, and
        # equal inputs give equal results.
        from repro.check.recording import CheckContext
        from repro.faults.model import ThrottleEvent, FaultPlan
        from repro.tracing.trace import TraceRecorder

        def run():
            return run_loop(
                odroid_xu4(), parse_schedule("aid_dynamic,1,5"),
                n_iterations=64, trace=TraceRecorder(), check=CheckContext(),
                faults=FaultPlan((ThrottleEvent(cpu=4, t0=0.0, t1=1e-3,
                                                factor=0.5),)),
                backend="reference",
            )

        first = run()
        assert sum(first.iterations) == 64
        assert first.finish_times == run().finish_times

    def test_real_is_wall_clock(self):
        from repro.backends.real import BODY_SLEEP_SECONDS

        result = run_loop(
            odroid_xu4(), parse_schedule("dynamic,4"), n_iterations=16,
            backend="real",
        )
        assert sum(result.iterations) == 16
        # Every chunk really slept on a host thread.
        assert result.duration >= 4 * BODY_SLEEP_SECONDS


class TestThreading:
    """The selector flows from every entry point down to the executor."""

    def test_run_loop_accepts_backend_name(self):
        result = run_loop(
            odroid_xu4(), parse_schedule("dynamic,1"), n_iterations=32,
            backend="reference",
        )
        assert sum(result.iterations) == 32

    def test_run_loop_accepts_live_instance(self):
        backend = ReferenceBackend()
        result = run_loop(
            odroid_xu4(), parse_schedule("dynamic,1"), n_iterations=32,
            backend=backend,
        )
        assert sum(result.iterations) == 32
        assert isinstance(backend, ExecutionBackend)

    def test_program_runner_invalid_backend_fails_at_construction(self):
        with pytest.raises(BackendError):
            ProgramRunner(odroid_xu4(), OmpEnv(), backend="nope")

    def test_program_runner_invalid_env_fails_at_construction(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "nope")
        with pytest.raises(BackendError, match=ENV_VAR):
            ProgramRunner(odroid_xu4(), OmpEnv())

    def test_program_runner_backend_matches_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        program = get_program("EP")
        env = OmpEnv(schedule="dynamic,1", affinity="SB")
        ref = ProgramRunner(odroid_xu4(), env, backend="reference")
        live = ProgramRunner(odroid_xu4(), env, backend=ReferenceBackend())
        default = ProgramRunner(odroid_xu4(), env)
        assert (
            ref.run(program).completion_time
            == live.run(program).completion_time
            == default.run(program).completion_time
        )
