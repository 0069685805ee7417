"""The autotuning loop: profiles, "auto" resolution, probes, CI gate.

Four properties carry the PR's guarantees:

1. **No-profile behaviour is pinned bitwise-unchanged**: with no active
   profile every ``"auto"`` knob resolves exactly as it did before
   autotuning existed (``resolve_backend_name``'s heuristic matrix,
   ``minibatch_local``, ``DEFAULT_BATCH_SIZE``, ``DEFAULT_CHUNK_ITEMS``,
   the fold-in Gram constant) — and passing ``profile=None`` explicitly
   forces that path even when a profile *is* installed.
2. **Profiles round-trip exactly** through JSON (``loads(dumps(p)) ==
   p``) and reject malformed payloads loudly.
3. **Profiles change speed, never results** — within the numpy kernel
   pair: the fold-in solver is bitwise-identical across Gram-chunk
   ceilings, the scorer across chunk widths, a profile can never pin the
   ``sequential`` kernel, and a profile naming ``native`` (within 1e-12
   of the pair) demotes to ``minibatch_local`` where it does not load.
4. **The CI gate bites**: ``compare_tune`` fails on error-budget
   breaches, on ``acceptance.met`` false, and on relative tuning-win
   erosion — and passes a healthy payload.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_BATCH_SIZE, TrainingConfig
from repro.exceptions import ConfigurationError, ReproError
from repro.exec import process_backend_supported, resolve_backend_name
from repro.hardware import fingerprint_matches
from repro.serve.bench import synthetic_model
from repro.serve.scorer import DEFAULT_CHUNK_ITEMS, Scorer
from repro.serve.service import DEFAULT_SERVICE_BATCH, RecommendationService
from repro.service.server import ServiceConfig
from repro.sgd.foldin import _GRAM_CHUNK_ELEMENTS
from repro.sgd.kernels import resolve_kernel_name
from repro.sgd.native import native_status
from repro.tune.probes import ERROR_BUDGETS
from repro.tune import (
    AUTO,
    ServingTunables,
    StreamTunables,
    TrainingTunables,
    TunedProfile,
    active_profile,
    resolve_foldin_batch_users,
    resolve_foldin_gram_chunk,
    resolve_serving_chunk_items,
    resolve_training_batch_size,
    resolve_workers,
    run_tune,
    set_active_profile,
    use_profile,
)

_REPO = os.path.join(os.path.dirname(__file__), "..")


def _load_script(name):
    """Import a benchmarks/ script as a module (the dir is not a package)."""
    path = os.path.join(_REPO, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _no_leaked_profile():
    """Every test starts and ends with no active profile."""
    set_active_profile(None)
    yield
    set_active_profile(None)


@pytest.fixture
def profile():
    """A hand-built profile whose every knob differs from the defaults."""
    return TunedProfile(
        fingerprint={"machine": "testbox"},
        training=TrainingTunables(
            backend="processes", workers=4, batch_size=1024, kernel="minibatch_local"
        ),
        serving=ServingTunables(chunk_items=2048, batch_size=128),
        stream=StreamTunables(gram_chunk_elements=750_000, foldin_batch_users=64),
        predict_error={"costmodel": 0.05},
        alpha=0.4,
    )


# --------------------------------------------------------------------------- #
# Round-trip and validation
# --------------------------------------------------------------------------- #
class TestProfileSerialization:
    def test_default_profile_round_trips(self):
        p = TunedProfile()
        assert TunedProfile.loads(p.dumps()) == p

    def test_populated_profile_round_trips(self, profile):
        assert TunedProfile.loads(profile.dumps()) == profile

    def test_file_round_trip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.dump(path)
        assert TunedProfile.load(path) == profile

    def test_dump_is_plain_json(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.dump(path)
        payload = json.loads(path.read_text())
        assert payload["training"]["backend"] == "processes"
        assert payload["schema_version"] == 1

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            TunedProfile.from_dict({"nonsense": 1})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema version"):
            TunedProfile.from_dict({"schema_version": 99})

    def test_malformed_nested_section_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed profile"):
            TunedProfile.from_dict({"training": {"no_such_knob": 3}})

    def test_non_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TunedProfile.loads("{")

    def test_profile_rejects_auto_backend(self):
        with pytest.raises(ConfigurationError, match="concrete backend"):
            TrainingTunables(backend="auto")

    def test_profile_rejects_sequential_kernel(self):
        # ``sequential`` is a numerical contract, not a speed choice; a
        # profile pinning it would change training results.
        with pytest.raises(ConfigurationError, match="kernel"):
            TrainingTunables(kernel="sequential")

    def test_profile_rejects_nonpositive_knobs(self):
        with pytest.raises(ConfigurationError):
            TrainingTunables(workers=0)
        with pytest.raises(ConfigurationError):
            ServingTunables(chunk_items=-1)
        with pytest.raises(ConfigurationError):
            StreamTunables(gram_chunk_elements=0)

    def test_set_active_profile_type_checked(self):
        with pytest.raises(ConfigurationError, match="TunedProfile"):
            set_active_profile({"training": {}})

    def test_use_profile_restores_previous(self, profile):
        assert active_profile() is None
        with use_profile(profile):
            assert active_profile() is profile
            with use_profile(None):
                assert active_profile() is None
            assert active_profile() is profile
        assert active_profile() is None


# --------------------------------------------------------------------------- #
# The pinned no-profile path
# --------------------------------------------------------------------------- #
class TestNoProfilePinning:
    """The pre-autotuning behaviour, asserted value by value.

    These mirror (and extend) the resolution matrix pinned in
    ``test_process_backend.py`` — if autotuning ever changes a
    no-profile default, one of these fails.
    """

    def test_backend_heuristic_unchanged(self):
        assert resolve_backend_name("auto", n_workers=4) == "processes"
        assert resolve_backend_name("auto", n_workers=1) == "threads"
        assert resolve_backend_name("auto", n_workers=None) == "threads"
        assert resolve_backend_name("simulate", n_workers=8) == "simulate"

    def test_explicit_none_profile_forces_heuristic(self, profile):
        # Even with a profile installed, profile=None pins the legacy
        # path bitwise — the escape hatch callers rely on.
        with use_profile(profile):
            assert resolve_backend_name("auto", n_workers=1, profile=None) == "threads"
            assert (
                resolve_backend_name("auto", n_workers=4, profile=None) == "processes"
            )

    def test_kernel_default_unchanged(self, no_native_kernel):
        assert resolve_kernel_name("auto") == "minibatch_local"
        assert resolve_kernel_name("auto", exact_kernel=True) == "sequential"

    def test_kernel_default_prefers_native_when_it_loads(self):
        expected = "native" if native_status()[0] else "minibatch_local"
        assert resolve_kernel_name("auto") == expected

    def test_training_batch_default_unchanged(self):
        assert TrainingConfig().effective_batch_size == DEFAULT_BATCH_SIZE
        assert TrainingConfig(batch_size=AUTO).effective_batch_size == DEFAULT_BATCH_SIZE
        assert resolve_training_batch_size(None) == DEFAULT_BATCH_SIZE
        assert resolve_training_batch_size(AUTO) == DEFAULT_BATCH_SIZE
        assert resolve_training_batch_size(96) == 96

    def test_serving_defaults_unchanged(self):
        model = synthetic_model(40, 60, 4, seed=0)
        assert Scorer(model).chunk_items == DEFAULT_CHUNK_ITEMS
        assert Scorer(model, chunk_items=AUTO).chunk_items == DEFAULT_CHUNK_ITEMS
        service = RecommendationService(model, batch_size=AUTO, chunk_items=AUTO)
        assert service.batch_size == DEFAULT_SERVICE_BATCH
        config = ServiceConfig(batch_size=AUTO, chunk_items=AUTO)
        assert config.batch_size == DEFAULT_SERVICE_BATCH
        assert config.chunk_items == DEFAULT_CHUNK_ITEMS

    def test_foldin_defaults_unchanged(self):
        assert resolve_foldin_gram_chunk(_GRAM_CHUNK_ELEMENTS) == _GRAM_CHUNK_ELEMENTS
        assert resolve_foldin_batch_users(512) == 512

    def test_workers_default_passthrough(self):
        assert resolve_workers(None, 16) == 16
        assert resolve_workers(AUTO, 16) == 16
        assert resolve_workers(3, 16) == 3

    def test_auto_strings_other_than_auto_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_training_batch_size("fast")
        with pytest.raises(ConfigurationError):
            resolve_serving_chunk_items("big", DEFAULT_CHUNK_ITEMS)
        with pytest.raises(ConfigurationError):
            TrainingConfig(batch_size="fast")


# --------------------------------------------------------------------------- #
# Profile-driven resolution
# --------------------------------------------------------------------------- #
class TestProfileResolution:
    def test_training_knobs_resolve_through_profile(self, profile):
        with use_profile(profile):
            assert TrainingConfig(batch_size=AUTO).effective_batch_size == 1024
            assert resolve_kernel_name("auto") == "minibatch_local"
            assert resolve_workers(AUTO, 1) == 4
        # Explicit integers always win over the profile.
        with use_profile(profile):
            assert TrainingConfig(batch_size=64).effective_batch_size == 64

    def test_backend_resolves_through_profile_with_legality_bounds(self, profile):
        with use_profile(profile):
            if process_backend_supported():
                assert resolve_backend_name("auto", n_workers=4) == "processes"
            # A multi-worker profile choice still demotes for runs the
            # process backend cannot serve.
            assert resolve_backend_name("auto", n_workers=1) == "threads"
            # Concrete names bypass the profile entirely.
            assert resolve_backend_name("simulate", n_workers=8) == "simulate"

    def test_threads_profile_resolves_unconditionally(self):
        threads = TunedProfile(training=TrainingTunables(backend="threads", workers=2))
        with use_profile(threads):
            assert resolve_backend_name("auto", n_workers=8) == "threads"

    def test_serving_knobs_resolve_through_profile(self, profile):
        model = synthetic_model(40, 60, 4, seed=0)
        with use_profile(profile):
            assert Scorer(model, chunk_items=AUTO).chunk_items == 2048
            service = RecommendationService(model, batch_size=AUTO, chunk_items=AUTO)
            assert service.batch_size == 128
            config = ServiceConfig(batch_size=AUTO, chunk_items=AUTO)
            assert config.batch_size == 128
            assert config.chunk_items == 2048
        # Ints pass through untouched under a profile too.
        with use_profile(profile):
            assert Scorer(model, chunk_items=512).chunk_items == 512

    def test_foldin_knobs_resolve_through_profile(self, profile):
        with use_profile(profile):
            assert resolve_foldin_gram_chunk(_GRAM_CHUNK_ELEMENTS) == 750_000
            assert resolve_foldin_batch_users(512) == 64

    def test_explicit_profile_argument_beats_active(self, profile):
        other = TunedProfile(serving=ServingTunables(chunk_items=4096))
        with use_profile(profile):
            assert resolve_serving_chunk_items(AUTO, 8192, profile=other) == 4096


# --------------------------------------------------------------------------- #
# Profiles change speed, never results
# --------------------------------------------------------------------------- #
class TestNativeKernelInProfiles:
    def test_profile_naming_native_demotes_where_it_does_not_load(self, no_native_kernel):
        pinned = TunedProfile(training=TrainingTunables(kernel="native"))
        with use_profile(pinned):
            assert resolve_kernel_name("auto") == "minibatch_local"

    def test_default_profile_is_kernel_neutral(self):
        without = resolve_kernel_name("auto")
        with use_profile(TunedProfile()):
            assert resolve_kernel_name("auto") == without

    def test_probe_times_native_only_where_it_loads(self):
        outcome = run_tune(quick=True, seed=0, sections=["train_batch"])
        probes = outcome.payload["tune"]["sections"]["train_batch"]["probes"]
        timed = {probe["config"]["kernel"] for probe in probes if "kernel" in probe["config"]}
        expected = {"minibatch_local"} | ({"native"} if native_status()[0] else set())
        assert timed == expected
        assert outcome.profile.training.kernel in expected


class TestBitwiseSafety:
    def test_scorer_slates_identical_across_profile_chunking(self, profile):
        model = synthetic_model(60, 500, 8, seed=3)
        users = np.arange(60, dtype=np.int64)
        baseline_ids, baseline_scores = Scorer(model).top_k(users, 10)
        with use_profile(profile):
            tuned = Scorer(model, chunk_items=AUTO)
            assert tuned.chunk_items == 2048
            ids, scores = tuned.top_k(users, 10)
        np.testing.assert_array_equal(ids, baseline_ids)
        np.testing.assert_array_equal(scores, baseline_scores)

    def test_fold_in_identical_across_gram_chunks(self):
        model = synthetic_model(50, 300, 8, seed=5)
        rng = np.random.default_rng(11)
        n = 600
        users = np.repeat(np.arange(50, 80, dtype=np.int64), 20)[:n]
        items = rng.integers(0, 300, size=n, dtype=np.int64)
        vals = rng.uniform(1.0, 5.0, size=n)
        reference_users, reference_rows = model.fold_in_users(users, items, vals)
        for gram in (1_000, 123_456, 8_000_000):
            override = TunedProfile(stream=StreamTunables(gram_chunk_elements=gram))
            with use_profile(override):
                got_users, got_rows = model.fold_in_users(users, items, vals)
            np.testing.assert_array_equal(got_users, reference_users)
            np.testing.assert_array_equal(got_rows, reference_rows)


# --------------------------------------------------------------------------- #
# The probes
# --------------------------------------------------------------------------- #
class TestRunTune:
    def test_quick_tune_end_to_end(self):
        outcome = run_tune(quick=True, seed=0)
        profile = outcome.profile
        # The profile must round-trip and be legal on this machine.
        assert TunedProfile.loads(profile.dumps()) == profile
        assert profile.quick is True
        assert profile.fingerprint["usable_cores"] >= 1
        with use_profile(profile):
            backend = resolve_backend_name("auto", n_workers=None)
            assert backend in ("threads", "processes")
            legal = ("minibatch_local",) + (("native",) if native_status()[0] else ())
            assert resolve_kernel_name("auto") in legal
            assert TrainingConfig(batch_size=AUTO).effective_batch_size >= 1
        payload = outcome.payload
        sections = payload["tune"]["sections"]
        assert set(sections) == {
            "costmodel",
            "train_batch",
            "backend",
            "serve_chunk",
            "foldin",
        }
        for name, section in sections.items():
            gated = section["gated"]
            assert gated == (name != "backend")
            if gated:
                # Structure only: the wall-clock sections fit two-point
                # lines over sub-millisecond timings, so holding them to
                # their budget here flaked (ROADMAP aim 3a).  The budgets
                # are enforced by the `tune` perf-guard kind (compare_tune,
                # pinned on recorded payloads in TestCompareTune) and, for
                # the deterministic simulated section, just below.
                assert section["error_budget"] == ERROR_BUDGETS[name]
                assert 0.0 <= section["predict_error"] < float("inf"), name
            for probe in section["probes"]:
                assert probe["measured_s"] > 0
        # The acceptance rule guarantees this by construction: resolved
        # knobs fall back to the default whenever the default measured
        # faster.
        assert payload["tune"]["acceptance"]["met"] is True
        assert payload["tune"]["defaults"]["training"]["batch_size"] == (
            DEFAULT_BATCH_SIZE
        )

    def test_section_subset_keeps_default_knobs(self):
        outcome = run_tune(quick=True, seed=0, sections=["serve_chunk"])
        assert list(outcome.payload["tune"]["sections"]) == ["serve_chunk"]
        # Unprobed subsystems keep their documented defaults.
        assert outcome.profile.training.batch_size == DEFAULT_BATCH_SIZE
        assert outcome.profile.training.kernel == resolve_kernel_name("auto")
        assert outcome.profile.stream.gram_chunk_elements == _GRAM_CHUNK_ELEMENTS

    def test_costmodel_probe_validates_out_of_sample(self):
        outcome = run_tune(quick=True, seed=0, sections=["costmodel"])
        section = outcome.payload["tune"]["sections"]["costmodel"]
        devices = {probe["config"]["device"] for probe in section["probes"]}
        assert devices == {"cpu", "gpu_kernel"}
        assert 0.0 <= section["predict_error"] <= section["error_budget"]
        assert outcome.profile.alpha is not None
        assert 0.0 < outcome.profile.alpha < 1.0


# --------------------------------------------------------------------------- #
# The CI gate
# --------------------------------------------------------------------------- #
def _tune_payload(
    predict_error=0.05,
    budget=0.35,
    acceptance_ok=True,
    default_s=1.2,
    resolved_s=1.0,
):
    return {
        "schema_version": 1,
        "hardware": {"usable_cores": 1},
        "tune": {
            "sections": {
                "costmodel": {
                    "gated": True,
                    "error_budget": budget,
                    "predict_error": predict_error,
                    "probes": [],
                },
                "backend": {
                    "gated": False,
                    "error_budget": None,
                    "predict_error": 0.9,
                    "probes": [],
                },
            },
            "acceptance": {
                "sections": {
                    "train_batch": {
                        "default_s": default_s,
                        "resolved_s": resolved_s,
                        "ok": acceptance_ok,
                    }
                },
                "met": acceptance_ok,
            },
        },
    }


class TestCompareTune:
    @pytest.fixture(scope="class")
    def checker(self):
        return _load_script("check_perf_regression")

    def test_healthy_payload_passes(self, checker):
        payload = _tune_payload()
        assert checker.compare_tune(payload, payload, 0.30) == 0

    def test_error_budget_breach_fails(self, checker):
        good, bad = _tune_payload(), _tune_payload(predict_error=0.50)
        assert checker.compare_tune(good, bad, 0.30) == 1

    def test_report_only_section_never_fails(self, checker):
        # The backend section carries a 90% "error" in every payload
        # above; a healthy run still passes because it is ungated.
        payload = _tune_payload()
        assert payload["tune"]["sections"]["backend"]["predict_error"] == 0.9
        assert checker.compare_tune(payload, payload, 0.30) == 0

    def test_acceptance_not_met_fails(self, checker):
        good = _tune_payload()
        bad = _tune_payload(acceptance_ok=False, default_s=1.0, resolved_s=1.4)
        assert checker.compare_tune(good, bad, 0.30) == 1

    def test_tuning_win_erosion_fails(self, checker):
        # Baseline win 2.0x, current 1.0x: a 50% drop trips max_drop=0.3.
        good = _tune_payload(default_s=2.0, resolved_s=1.0)
        flat = _tune_payload(default_s=1.0, resolved_s=1.0)
        assert checker.compare_tune(good, flat, 0.30) == 1
        assert checker.compare_tune(good, flat, 0.60) == 0

    def test_empty_payload_fails(self, checker):
        assert checker.compare_tune({}, {}, 0.30) == 1

    def test_comparator_registered_for_tune_payloads(self, checker):
        assert "tune" in {key for key, _, _ in checker._COMPARATORS}
        payload = _tune_payload()
        # End-to-end through compare(): the tune section is auto-detected.
        assert checker.compare(payload, payload, 0.30) == 0

    def test_committed_baseline_passes_its_own_gate(self, checker):
        path = os.path.join(_REPO, "BENCH_tune.json")
        if not os.path.exists(path):
            pytest.skip("BENCH_tune.json not generated yet")
        with open(path) as handle:
            payload = json.load(handle)
        assert checker.compare_tune(payload, payload, 0.50) == 0


class TestCheckTunedProfileScript:
    def test_accepts_a_fresh_profile(self, tmp_path):
        outcome = run_tune(quick=True, seed=0, sections=["serve_chunk"])
        path = tmp_path / "profile.json"
        outcome.profile.dump(path)
        checker = _load_script("check_tuned_profile")
        assert checker.check_profile(str(path)) == 0

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{}")
        checker = _load_script("check_tuned_profile")
        # An empty profile round-trips but was not calibrated here.
        profile = TunedProfile.loads(path.read_text())
        assert profile.fingerprint == {}
        assert checker.check_profile(str(path)) == 1


# --------------------------------------------------------------------------- #
# The CLI
# --------------------------------------------------------------------------- #
class TestTuneCli:
    def test_tune_writes_profile_and_bench(self, tmp_path):
        profile_path = tmp_path / "profile.json"
        bench_path = tmp_path / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(_REPO, "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "tune",
                "--quick",
                "--out",
                str(profile_path),
                "--bench-out",
                str(bench_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "profile written" in result.stdout
        assert "acceptance         : met" in result.stdout
        profile = TunedProfile.load(profile_path)
        assert TunedProfile.loads(profile.dumps()) == profile
        payload = json.loads(bench_path.read_text())
        assert payload["tune"]["acceptance"]["met"] is True

    def test_profile_flag_resolves_auto_knobs(self, tmp_path):
        # `repro recommend --profile P --chunk-items auto` must accept
        # the profile end to end (recommend with a pre-saved model is
        # the cheapest --profile consumer — no training run).
        profile_path = tmp_path / "profile.json"
        TunedProfile(
            serving=ServingTunables(chunk_items=1024, batch_size=32)
        ).dump(profile_path)
        model_path = tmp_path / "model.npz"
        synthetic_model(30, 40, 4, seed=0).save(model_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(_REPO, "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "recommend",
                "--model",
                str(model_path),
                "--users",
                "3",
                "--profile",
                str(profile_path),
                "--chunk-items",
                "auto",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr

    def test_bad_auto_value_rejected_by_argparse(self):
        from repro.cli import _int_or_auto

        assert _int_or_auto("auto") == "auto"
        assert _int_or_auto("128") == 128
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _int_or_auto("fast")


class TestTunePackageSurface:
    """The lazy package facade and validation corners of `repro.tune`."""

    def test_lazy_run_tune_wrapper(self):
        import repro.tune as tune_pkg

        outcome = tune_pkg.run_tune(quick=True, seed=0, sections=("costmodel",))
        assert outcome.profile.alpha is not None
        assert "costmodel" in outcome.payload["tune"]["sections"]

    def test_lazy_tune_outcome_attribute(self):
        import repro.tune as tune_pkg

        from repro.tune.probes import TuneOutcome

        assert tune_pkg.TuneOutcome is TuneOutcome
        with pytest.raises(AttributeError):
            tune_pkg.does_not_exist

    def test_from_dict_rejects_non_object_payload(self):
        with pytest.raises(ConfigurationError):
            TunedProfile.from_dict(["not", "an", "object"])

    def test_full_mode_serve_probe_uses_wider_ladder(self):
        # The non-quick serving sweep probes more (batch, chunk)
        # candidates over larger user pools; the resolved knobs must
        # still be legal and the fit must still validate out of sample.
        outcome = run_tune(quick=False, seed=0, sections=("serve_chunk",))
        section = outcome.payload["tune"]["sections"]["serve_chunk"]
        assert section["predict_error"] >= 0.0
        assert outcome.profile.serving.chunk_items >= 1
        assert outcome.profile.serving.batch_size >= 1


# --------------------------------------------------------------------------- #
# Stale and hostile profile files
# --------------------------------------------------------------------------- #
def _stale_minibatch_profile_text(profile) -> str:
    """A profile written while ``"minibatch"`` was still a kernel name."""
    payload = profile.to_dict()
    payload["training"]["kernel"] = "minibatch"
    return json.dumps(payload)


class TestStaleKernelName:
    def test_loads_rejects_the_removed_minibatch_kernel(self, profile, tmp_path):
        text = _stale_minibatch_profile_text(profile)
        with pytest.raises(ConfigurationError, match="'minibatch'"):
            TunedProfile.loads(text)
        path = tmp_path / "stale.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="'minibatch'"):
            TunedProfile.load(path)

    def test_cli_train_with_a_stale_profile_exits_with_one_line_error(
        self, profile, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "stale.json"
        path.write_text(_stale_minibatch_profile_text(profile))
        code = main(["train", "--dataset", "movielens", "--iterations", "1", "--profile", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'minibatch'" in err
        assert active_profile() is None


def _json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=8)
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )


def _knob_paths():
    paths = [(f.name,) for f in dataclasses.fields(TunedProfile)]
    for section, tunables in (
        ("training", TrainingTunables),
        ("serving", ServingTunables),
        ("stream", StreamTunables),
    ):
        paths += [(section, f.name) for f in dataclasses.fields(tunables)]
    return paths


def _valid_profile_payload() -> dict:
    return TunedProfile(
        fingerprint={"machine": "x86_64", "cpu_count": 2},
        quick=True,
        created_unix=1.0e9,
        training=TrainingTunables(backend="processes", workers=2, kernel="minibatch_local"),
        predict_error={"costmodel": 0.05},
        alpha=0.25,
    ).to_dict()


@st.composite
def _profile_texts(draw):
    """Valid profile JSON with one knob mutated in value and type, or truncated."""
    payload = _valid_profile_payload()
    if draw(st.booleans()):
        *parents, leaf = draw(st.sampled_from(_knob_paths()))
        target = payload
        for key in parents:
            target = target[key]
        target[leaf] = draw(_json_values())
        return json.dumps(payload)
    text = json.dumps(payload)
    return text[: draw(st.integers(0, len(text)))]


def _assert_usable(profile) -> None:
    """What a loaded profile's consumers do with it must work."""
    assert TunedProfile.loads(profile.dumps()) == profile
    assert isinstance(fingerprint_matches(profile.fingerprint), bool)
    assert isinstance(profile.resolve_backend(), str)
    with use_profile(profile):
        assert resolve_kernel_name("auto") in ("minibatch_local", "native")
        assert TrainingConfig(batch_size=AUTO).effective_batch_size >= 1
        assert resolve_workers(AUTO, 1) >= 1
        assert resolve_serving_chunk_items(AUTO, DEFAULT_CHUNK_ITEMS) >= 1
        assert resolve_foldin_gram_chunk(_GRAM_CHUNK_ELEMENTS) >= 1
    if profile.alpha is not None:
        assert f"{profile.alpha:.3f}"


class TestProfileLoadsProperty:
    """``TunedProfile.loads`` yields a typed ``ReproError`` or a usable profile."""

    @settings(max_examples=300, deadline=None)
    @given(text=_profile_texts())
    def test_typed_error_or_usable_profile(self, text):
        try:
            profile = TunedProfile.loads(text)
        except ReproError:
            return
        _assert_usable(profile)

    @pytest.mark.parametrize("knob, value", [("fingerprint", None), ("alpha", [])])
    def test_examples_the_property_found(self, knob, value):
        # Both used to load, then broke fingerprint_matches / the alpha print.
        payload = _valid_profile_payload()
        payload[knob] = value
        with pytest.raises(ConfigurationError, match=f"profile {knob}"):
            TunedProfile.loads(json.dumps(payload))
