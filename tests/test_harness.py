import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvclust import (
    ConfigurationError,
    ExperimentSpec,
    GeneratorSpec,
    IsotropicGMM,
    ParseError,
    Responsibilities,
    RunConfig,
    TraceRecord,
    binary_responsibilities,
    emit,
    free_energy_entropy_form,
    free_energy_kmeans,
    lazy_reassign,
    load_trace,
    make_rng,
    run_experiment,
    seed_dsquared,
    seed_uniform,
    select_nearest,
)
from tvclust.harness import _worker_count, restart_seed


def small_spec(tmp_path, restarts=3, **config_kwargs):
    gen = GeneratorSpec(
        kind="uniform",
        c_true=3,
        per_cluster_n=20,
        gen_sigma=0.8,
        domain_box=((0.0, 10.0), (0.0, 10.0)),
        seed=5,
    )
    defaults = dict(algorithm="kmeans", c=3, seed=7, max_iters=50)
    defaults.update(config_kwargs)
    return ExperimentSpec(
        config=RunConfig(**defaults),
        restarts=restarts,
        out_dir=tmp_path,
        generator=gen,
    )


# (owner, count field, a valid value) for every integer count of the package
COUNT_FIELDS = [
    (RunConfig, "c", 3),
    (RunConfig, "c_prime", 2),
    (RunConfig, "max_iters", 2),
    (RunConfig, "seed", 1),
    (GeneratorSpec, "c_true", 4),
    (GeneratorSpec, "per_cluster_n", 2),
    (GeneratorSpec, "seed", 1),
    (ExperimentSpec, "restarts", 2),
]


def with_count(owner, name, value):
    base = {
        RunConfig: dict(algorithm="kmeans_cprime", c=3, c_prime=2),
        GeneratorSpec: dict(kind="grid", c_true=4),
        ExperimentSpec: dict(config=RunConfig(algorithm="kmeans", c=3), data_path="points.csv"),
    }[owner]
    return owner(**{**base, name: value})


class TestCountFields:
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("owner,name,ok", COUNT_FIELDS)
    def test_float_rejected_up_front(self, owner, name, ok, shift):
        with pytest.raises(ConfigurationError, match=f"^{name} must be >= .* an integer"):
            with_count(owner, name, ok + shift)

    @pytest.mark.parametrize("owner,name,ok", COUNT_FIELDS)
    def test_numpy_integer_accepted(self, owner, name, ok):
        value = getattr(with_count(owner, name, np.int64(ok)), name)
        assert value == ok and type(value) is int

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("owner,name,ok", COUNT_FIELDS)
    def test_bool_rejected(self, owner, name, ok, flag):
        with pytest.raises(ConfigurationError, match=f"^{name} must be >= .* an integer"):
            with_count(owner, name, flag)

    def test_numpy_scalars_echo_as_plain_numbers(self, tmp_path):
        tol, sigma = float(np.float32(1e-9)), float(np.float32(0.8))
        echoes = []
        for wrap, wrap_float in ((int, float), (np.uint8, np.float32)):
            spec = ExperimentSpec(
                config=RunConfig(algorithm="kmeans_cprime", c=wrap(3), c_prime=wrap(2),
                                 max_iters=wrap(5), tol=wrap_float(tol), seed=wrap(7)),
                restarts=wrap(2),
                out_dir=tmp_path,
                generator=GeneratorSpec(
                    kind="uniform", c_true=wrap(3), per_cluster_n=wrap(20),
                    gen_sigma=wrap_float(sigma),
                    domain_box=((wrap_float(0.0), wrap_float(10.0)),) * 2, seed=wrap(5),
                ),
            )
            run_experiment(spec)
            echoes.append(json.loads((tmp_path / "summary.json").read_text())["config_echo"])
        assert echoes[0] == echoes[1]
        assert echoes[0]["config"]["tol"] == tol and echoes[0]["generator"]["gen_sigma"] == sigma


def _threads(value):
    with mock.patch.dict(os.environ, {"TVEM_THREADS": str(value)}):
        return _worker_count()


def _called(function, *args, **kwargs):
    """Store nothing: a function argument is only checked."""
    function(*args, **kwargs)


_D2 = np.array([[0.0, 1.0, 4.0], [4.0, 1.0, 0.0]])

# Every scalar field: its rule ("count" >= 0, "count1" >= 1, "real" >= 0 or
# "positive" and finite), a function that sets it and returns what was
# stored (None where nothing is stored), a valid value, and the bad values
# beyond its rule's own (an upper bound).
SCALAR_FIELDS = {
    **{
        f"{owner.__name__}.{name}": (
            "count" if name in ("max_iters", "seed") else "count1",
            lambda v, owner=owner, name=name: getattr(with_count(owner, name, v), name),
            ok,
            [4] if name == "c_prime" else [],
        )
        for owner, name, ok in COUNT_FIELDS
    },
    "RunConfig.tol": ("real", lambda v: RunConfig(algorithm="kmeans", c=2, tol=v).tol, 0.5, []),
    "RunConfig.epsilon": (
        "real", lambda v: RunConfig(algorithm="lazy_kmeans", c=2, epsilon=v).epsilon, 0.5, []
    ),
    "GeneratorSpec.gen_sigma": (
        "positive", lambda v: GeneratorSpec(kind="grid", c_true=4, gen_sigma=v).gen_sigma, 0.5, []
    ),
    "GeneratorSpec.spacing": (
        "positive", lambda v: GeneratorSpec(kind="grid", c_true=4, spacing=v).spacing, 0.5, []
    ),
    "select_nearest.c_prime": ("count1", lambda v: _called(select_nearest, _D2, v), 2, [4]),
    "lazy_reassign.epsilon": (
        "real", lambda v: _called(lazy_reassign, _D2, v, np.zeros((2, 1), int)), 0.5, []
    ),
    **{
        f"{seeding.__name__}.c": (
            "count1",
            lambda v, seeding=seeding: _called(seeding, [[0.0], [1.0], [5.0]], v, make_rng(0)),
            2,
            [4],
        )
        for seeding in (seed_uniform, seed_dsquared)
    },
    "seed_dsquared.initial": (
        "count",
        lambda v: _called(seed_dsquared, [[0.0], [0.0], [5.0]], 3, make_rng(0), initial=v),
        1,
        [3],
    ),
    "TVEM_THREADS": ("count1", _threads, 2, []),
    "IsotropicGMM.sigma2": ("positive", lambda v: IsotropicGMM([[0.0]], v).sigma2, 0.5, []),
    "Responsibilities.n_clusters": (
        "count1", lambda v: Responsibilities([[0]], [[1.0]], v).n_clusters, 2, []
    ),
    "free_energy_kmeans.c": ("count1", lambda v: _called(free_energy_kmeans, v, 2, 1.0), 2, []),
    "free_energy_kmeans.sigma2": (
        "positive", lambda v: _called(free_energy_kmeans, 2, 2, v), 0.5, []
    ),
    "free_energy_entropy_form.sigma2": (
        "positive",
        lambda v: _called(
            free_energy_entropy_form, [[0.0], [1.0]], binary_responsibilities([0, 1], 2), v
        ),
        0.5,
        [],
    ),
}

_NOT_NUMBERS = ["0.5", None, True, False, 1 + 0j]
_RULE_BAD = {
    "count": [math.nan, -1, -math.inf, math.inf, 2.5],
    "count1": [math.nan, -1, -math.inf, math.inf, 2.5, 0],
    "real": [math.nan, -1.0, -math.inf],
    "positive": [math.nan, -1.0, -math.inf, 0.0, math.inf],
}

# None leaves these two fields to their default, a uniform first center and
# 4 * gen_sigma, so it is not a bad value there.
_NONE_IS_DEFAULT = ("GeneratorSpec.spacing", "seed_dsquared.initial")
# sigma2 goes through float() first, so that a snapshot's non-number
# "sigma2" stays a parse error (float's own ValueError or TypeError); only
# numbers reach its check, so only numbers are drawn for it.
_NUMBERS_ONLY = ("IsotropicGMM.sigma2",)
_BAD_CASES = [
    (field, bad)
    for field, (rule, _, _, beyond) in SCALAR_FIELDS.items()
    for bad in (_NOT_NUMBERS if field not in _NUMBERS_ONLY else []) + _RULE_BAD[rule] + beyond
    if not (bad is None and field in _NONE_IS_DEFAULT)
]


class TestScalarFields:
    @settings(max_examples=2 * len(_BAD_CASES))
    @given(case=st.sampled_from(_BAD_CASES))
    def test_bad_values_are_configuration_errors(self, case):
        field, bad = case
        rule, store, ok, _ = SCALAR_FIELDS[field]
        with pytest.raises(ConfigurationError) as err:
            store(bad)
        assert type(err.value) is ConfigurationError
        plain = int if rule.startswith("count") else float
        stored = store((np.int32 if plain is int else np.float32)(ok))
        assert stored is None or (type(stored) is plain and stored == ok)


class TestEmit:
    def test_trace_round_trip_identical_floats(self, tmp_path):
        records = [
            TraceRecord(0, 1.23456789012345678, -2.5, -2.4, 0.1, 0.3, 4, []),
            TraceRecord(1, 1.0, -2.0, -1.9, 0.1, 0.25, 0, ["reseeded empty cluster 1 at point 3"]),
        ]
        path = tmp_path / "trace.jsonl"
        emit(records, path)
        back = load_trace(path)
        assert len(back) == 2
        for a, b in zip(records, back):
            assert a.to_dict() == b.to_dict()

    def test_empty_events_serialize_as_list(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        emit([TraceRecord(0, 0.0, 0.0, 0.0, 0.0, 1.0, 0, [])], path)
        line = json.loads(path.read_text().splitlines()[0])
        assert line["events"] == []

    @pytest.mark.parametrize("bad", [
        '{"iter": 1, "J": 1.0, "L": 0.0, "gap": 0.0, "sigma2": 1.0, "n_changed": 0}',
        '{"iter": 1, "J": 1.0,',
        '{"iter": 1, "J": "x", "F": 0.0, "L": 0.0, "gap": 0.0, "sigma2": 1.0, "n_changed": 0}',
    ], ids=["missing field", "not JSON", "not a number"])
    def test_malformed_line_is_a_parse_error(self, tmp_path, bad):
        path = tmp_path / "trace.jsonl"
        emit([TraceRecord(0, 1.0, 0.0, 0.0, 0.0, 1.0, 4, [])], path)
        path.write_text(path.read_text() + bad + "\n")
        with pytest.raises(ParseError, match=r"trace.jsonl: line 2: not a trace record"):
            load_trace(path)

    def test_summary_written_as_json_object(self, tmp_path):
        path = tmp_path / "summary.json"
        emit({"a": 1.5, "b": [1, 2]}, path)
        assert json.loads(path.read_text()) == {"a": 1.5, "b": [1, 2]}


class TestExperimentSpec:
    def test_requires_exactly_one_source(self, tmp_path):
        cfg = RunConfig(algorithm="kmeans", c=2)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(config=cfg, restarts=1, out_dir=tmp_path)
        gen = GeneratorSpec(
            kind="grid", c_true=4, per_cluster_n=5, gen_sigma=0.5, seed=0
        )
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                config=cfg,
                restarts=1,
                out_dir=tmp_path,
                generator=gen,
                data_path="x.csv",
            )

    def test_restarts_positive(self, tmp_path):
        cfg = RunConfig(algorithm="kmeans", c=2)
        gen = GeneratorSpec(
            kind="grid", c_true=4, per_cluster_n=5, gen_sigma=0.5, seed=0
        )
        with pytest.raises(ConfigurationError):
            ExperimentSpec(config=cfg, restarts=0, out_dir=tmp_path, generator=gen)


class TestRunExperiment:
    def test_single_restart_zero_iters_summary_echoes_initial_record(self, tmp_path):
        spec = small_spec(tmp_path, restarts=1, max_iters=0)
        summary = run_experiment(spec)
        trace = load_trace(tmp_path / "trace_000.jsonl")
        assert len(trace) == 1
        assert summary["per_iter_mean_F"] == [trace[0].F]
        assert summary["per_iter_mean_L"] == [trace[0].L]
        assert summary["best_run"] == 0
        assert summary["config_echo"] == spec.to_dict()

    def test_three_restarts_write_three_traces(self, tmp_path):
        spec = small_spec(tmp_path, restarts=3)
        summary = run_experiment(spec)
        files = sorted(p.name for p in tmp_path.glob("trace_*.jsonl"))
        assert files == ["trace_000.jsonl", "trace_001.jsonl", "trace_002.jsonl"]
        assert (tmp_path / "summary.json").exists()
        assert summary["failures"] == []

    def test_best_run_dominates_finals(self, tmp_path):
        spec = small_spec(tmp_path, restarts=5, seed=13)
        summary = run_experiment(spec)
        finals = [
            load_trace(tmp_path / f"trace_{i:03d}.jsonl")[-1].F for i in range(5)
        ]
        assert summary["best_final_F"] == max(finals)
        assert summary["best_run"] == int(np.argmax(finals))

    def test_byte_identical_reexecution(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(small_spec(out_a, restarts=3))
        run_experiment(small_spec(out_b, restarts=3))
        for name in ["trace_000.jsonl", "trace_001.jsonl", "trace_002.jsonl"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # the summary embeds out_dir, so compare it without that echo field
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa["config_echo"].pop("out_dir")
        sb["config_echo"].pop("out_dir")
        assert sa == sb

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("TVEM_THREADS", "1")
        run_experiment(small_spec(out_a, restarts=4))
        monkeypatch.setenv("TVEM_THREADS", "3")
        run_experiment(small_spec(out_b, restarts=4))
        for i in range(4):
            name = f"trace_{i:03d}.jsonl"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_pool_defaults_to_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.delenv("TVEM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count() == 1

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TVEM_THREADS", "plenty")
        with pytest.raises(ConfigurationError):
            run_experiment(small_spec(tmp_path))

    def test_restart_seeds_are_distinct_and_stable(self):
        seeds = [restart_seed(7, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert seeds == [restart_seed(7, i) for i in range(10)]

    def test_csv_source(self, tmp_path):
        from tvclust import generate, save_csv

        gen = GeneratorSpec(
            kind="grid", c_true=4, per_cluster_n=10, gen_sigma=0.5, seed=2
        )
        data_path = tmp_path / "data.csv"
        save_csv(generate(gen), data_path)
        spec = ExperimentSpec(
            config=RunConfig(algorithm="kmeans", c=4, seed=1),
            restarts=2,
            out_dir=tmp_path / "out",
            data_path=data_path,
        )
        summary = run_experiment(spec)
        assert len(summary["per_iter_mean_F"]) >= 1


class TestFailureHandling:
    def test_partial_failures_excluded_from_means(self, tmp_path, monkeypatch):
        import tvclust.harness as harness
        from tvclust import NumericError

        real_run = harness.run
        spec = small_spec(tmp_path, restarts=3)
        bad_seed = restart_seed(spec.config.seed, 1)

        def flaky_run(dataset, config):
            if config.seed == bad_seed:
                raise NumericError("synthetic failure")
            return real_run(dataset, config)

        monkeypatch.setattr(harness, "run", flaky_run)
        summary = harness.run_experiment(spec)
        assert summary["failures"] == [{"restart": 1, "error": "synthetic failure"}]
        assert not (tmp_path / "trace_001.jsonl").exists()
        assert summary["best_run"] in (0, 2)

    def test_all_failures_raise(self, tmp_path, monkeypatch):
        import tvclust.harness as harness
        from tvclust import NumericError

        def doomed_run(dataset, config):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(harness, "run", doomed_run)
        with pytest.raises(NumericError):
            harness.run_experiment(small_spec(tmp_path, restarts=2))

    @pytest.mark.parametrize("seeding", ["dsquared", "uniform"])
    def test_overflow_scale_restart_recorded_as_failure(
        self, tmp_path, monkeypatch, seeding
    ):
        import tvclust.harness as harness
        from tvclust import Dataset, NumericError, save_csv

        huge = Dataset(np.random.default_rng(0).normal(size=(200, 2)) * 1e160)
        huge_path = tmp_path / "huge.csv"
        save_csv(huge, huge_path)
        config = RunConfig(algorithm="kmeans", c=3, seeding=seeding, seed=7)
        spec = ExperimentSpec(config=config, restarts=2, data_path=huge_path)
        with pytest.raises(NumericError, match="all restarts failed"):
            run_experiment(spec)

        # one restart on the overflowing data, the others on normal data
        real_run = harness.run
        spec = small_spec(tmp_path, restarts=3, seeding=seeding)
        bad_seed = restart_seed(spec.config.seed, 1)

        def mixed_run(dataset, config):
            return real_run(huge if config.seed == bad_seed else dataset, config)

        monkeypatch.setattr(harness, "run", mixed_run)
        summary = harness.run_experiment(spec)
        assert [f["restart"] for f in summary["failures"]] == [1]
        assert "not finite" in summary["failures"][0]["error"]
        assert summary["best_run"] in (0, 2)
