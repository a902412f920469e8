"""``repro.vps``: plan artifact, scorer determinism, selection quality.

The subsystem's contract (docs/vps.md): ``select_vps`` is a greedy
submodular pick over exact-integer agreement counts, so the emitted
``VPPlan`` is *byte-identical* across runs; the plan's weights
repartition the full population over the kept VPs (they always sum to
the total); and detection over the kept VPs with those weights
reproduces full-volume results on series whose redundancy the
selection exploits.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cli import main
from repro.core.detect import detect_events
from repro.core.series import VectorSeries
from repro.core.vector import StateCatalog
from repro.io.formats import write_series_jsonl
from repro.vps import (
    PlanError,
    SelectionConfig,
    VPPlan,
    agreement_counts,
    select_vps,
    series_digest,
)

T0 = datetime(2025, 1, 1)

# Three catchments with populations 6/4/2; inside a catchment every VP
# sees the same site at every round, so one VP per catchment carries
# all the information.
CATCHMENTS = {"a": 6, "b": 4, "c": 2}


def catchment_series(rounds: int = 40, flip_at: int = 20) -> VectorSeries:
    networks = [
        f"{catchment}{index}"
        for catchment, size in CATCHMENTS.items()
        for index in range(size)
    ]
    series = VectorSeries(networks, StateCatalog())
    for step in range(rounds):
        sites = {"a": "LAX", "b": "AMS", "c": "FRA"}
        if step >= flip_at:
            sites["a"] = "NRT"  # the event: catchment a moves
        series.append_mapping(
            {n: sites[n[0]] for n in networks}, T0 + timedelta(hours=step)
        )
    return series


def random_series(seed: int, num_networks: int = 9, rounds: int = 25) -> VectorSeries:
    rng = np.random.default_rng(seed)
    networks = [f"n{i}" for i in range(num_networks)]
    series = VectorSeries(networks, StateCatalog())
    sites = ["LAX", "AMS", "FRA", "unknown", "err"]
    for step in range(rounds):
        series.append_mapping(
            {n: sites[int(rng.integers(0, len(sites)))] for n in networks},
            T0 + timedelta(hours=step),
        )
    return series


class TestPlanArtifact:
    def plan(self) -> VPPlan:
        return VPPlan(
            kept=("a0", "b0", "c0"),
            weights={"a0": 6.0, "b0": 4.0, "c0": 2.0},
            total_networks=12,
            provenance={"series_sha256": "f" * 64},
        )

    def test_round_trip_and_canonical_json(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = VPPlan.load(path)
        assert loaded == plan
        assert loaded.canonical_json() == plan.canonical_json()
        assert path.read_text() == plan.canonical_json()
        assert plan.budget == 3
        assert plan.volume_fraction == 0.25

    def test_validation(self):
        with pytest.raises(PlanError):
            VPPlan(kept=(), weights={}, total_networks=0, provenance={})
        with pytest.raises(PlanError):  # weight keys must equal kept
            VPPlan(
                kept=("a0",), weights={"b0": 1.0}, total_networks=2, provenance={}
            )
        with pytest.raises(PlanError):  # non-positive weight
            VPPlan(
                kept=("a0",), weights={"a0": 0.0}, total_networks=2, provenance={}
            )
        with pytest.raises(PlanError):  # duplicate kept VP
            VPPlan(
                kept=("a0", "a0"),
                weights={"a0": 2.0},
                total_networks=2,
                provenance={},
            )
        with pytest.raises(PlanError):  # fewer networks than kept VPs
            VPPlan(
                kept=("a0", "b0"),
                weights={"a0": 1.0, "b0": 1.0},
                total_networks=1,
                provenance={},
            )

    def test_from_document_rejects_junk(self):
        good = self.plan().to_document()
        for breakage in (
            {"type": "wrong"},
            {"version": 99},
            {"kept": "a0"},
            {"weights": [1.0]},
            {"total_networks": "twelve"},
        ):
            with pytest.raises(PlanError):
                VPPlan.from_document({**good, **breakage})

    def test_apply_and_weight_alignment(self):
        series = catchment_series()
        plan = self.plan()
        reduced, weights = plan.apply(series)
        assert tuple(reduced.networks) == plan.kept
        assert weights.tolist() == [6.0, 4.0, 2.0]
        with pytest.raises(PlanError):
            plan.weight_array(["a0", "zz"])  # zz not in the plan

    def test_series_digest_tracks_content(self):
        first = catchment_series()
        second = catchment_series()
        assert series_digest(first) == series_digest(second)
        third = catchment_series(flip_at=21)
        assert series_digest(first) != series_digest(third)


class TestAgreementCounts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_and_is_exact(self, seed):
        series = random_series(seed)
        matrix = series.matrix
        counts = agreement_counts(matrix)
        rounds, networks = matrix.shape
        brute = np.zeros((networks, networks))
        for i in range(networks):
            for j in range(networks):
                brute[i, j] = int(np.sum(matrix[:, i] == matrix[:, j]))
        assert counts.tobytes() == brute.tobytes()


class TestSelection:
    def test_one_vp_per_catchment_with_population_weights(self):
        series = catchment_series()
        plan = select_vps(series, SelectionConfig(budget=3))
        kept_catchments = sorted(vp[0] for vp in plan.kept)
        assert kept_catchments == ["a", "b", "c"]
        # Weights repartition the full population over the kept VPs.
        assert sorted(plan.weights.values()) == [2.0, 4.0, 6.0]
        assert sum(plan.weights.values()) == plan.total_networks

    def test_weights_always_sum_to_total(self):
        for seed in (11, 12, 13):
            series = random_series(seed, num_networks=12, rounds=30)
            plan = select_vps(series, SelectionConfig(fraction=0.4))
            assert sum(plan.weights.values()) == pytest.approx(12.0)
            assert all(weight >= 1.0 for weight in plan.weights.values())

    def test_reduced_detection_matches_full(self):
        series = catchment_series()
        full_events = detect_events(series, threshold=0.02, merge_gap=3)
        plan = select_vps(series, SelectionConfig(budget=3))
        reduced, weights = plan.apply(series)
        reduced_events = detect_events(
            reduced, weights=weights, threshold=0.02, merge_gap=3
        )
        assert [(e.start, e.end) for e in reduced_events] == [
            (e.start, e.end) for e in full_events
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig()  # exactly one of budget/fraction
        with pytest.raises(ValueError):
            SelectionConfig(budget=3, fraction=0.2)
        with pytest.raises(ValueError):
            SelectionConfig(fraction=1.5)
        with pytest.raises(ValueError):
            SelectionConfig(budget=0)
        assert SelectionConfig(fraction=0.2).resolve_budget(450) == 90
        assert SelectionConfig(fraction=0.001).resolve_budget(10) == 1

    def test_budget_larger_than_population_keeps_everything(self):
        series = catchment_series()
        plan = select_vps(series, SelectionConfig(budget=50))
        assert len(plan.kept) == len(series.networks)


class TestDeterminism:
    def test_same_plan_across_runs(self):
        series = random_series(7, num_networks=15, rounds=40)
        baseline = select_vps(series, SelectionConfig(fraction=0.3))
        for _ in range(3):
            assert (
                select_vps(series, SelectionConfig(fraction=0.3)).canonical_json()
                == baseline.canonical_json()
            )

    def test_cli_select_is_byte_deterministic(self, tmp_path, capsys):
        series_path = tmp_path / "series.jsonl"
        with series_path.open("w") as stream:
            write_series_jsonl(catchment_series(), stream)
        outputs = []
        for run in range(3):
            out = tmp_path / f"plan{run}.json"
            assert (
                main(
                    [
                        "vps",
                        "select",
                        str(series_path),
                        "-o",
                        str(out),
                        "--keep",
                        "3",
                    ]
                )
                == 0
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert "kept 3/12 VPs" in capsys.readouterr().out

    def test_cli_show_and_apply(self, tmp_path, capsys):
        series_path = tmp_path / "series.jsonl"
        with series_path.open("w") as stream:
            write_series_jsonl(catchment_series(), stream)
        plan_path = tmp_path / "plan.json"
        main(["vps", "select", str(series_path), "-o", str(plan_path), "--keep", "3"])
        assert main(["vps", "show", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "3/12 VPs" in out

        reduced_path = tmp_path / "reduced.jsonl"
        assert (
            main(
                [
                    "vps",
                    "apply",
                    str(series_path),
                    str(plan_path),
                    str(reduced_path),
                ]
            )
            == 0
        )
        header, first = reduced_path.read_text().splitlines()[:2]
        assert len(json.loads(header)["networks"]) == 3
        assert len(json.loads(first)["states"]) == 3

    def test_analyze_with_vp_plan(self, tmp_path, capsys):
        series_path = tmp_path / "series.jsonl"
        with series_path.open("w") as stream:
            write_series_jsonl(catchment_series(), stream)
        plan_path = tmp_path / "plan.json"
        main(["vps", "select", str(series_path), "-o", str(plan_path), "--keep", "3"])
        capsys.readouterr()
        assert (
            main(["analyze", str(series_path), "--vp-plan", str(plan_path)]) == 0
        )
        assert "modes: 2" in capsys.readouterr().out
