"""CI perf-regression gate: comparisons, tolerance resolution, CLI."""

import json

import pytest

from repro.perf.bench_gate import (
    DEFAULT_TOLERANCE,
    TOLERANCE_ENV,
    compare_records,
    main,
    resolve_tolerance,
)
from repro.perf.regression import RegressionComponent, RegressionRecord


def _record(speedups, label="bench", retired=None):
    """Record with one component per (name, speedup); reference is 1 s."""
    components = [
        RegressionComponent(
            name=name, reference_seconds=1.0, optimized_seconds=1.0 / s,
            detail="synthetic",
        )
        for name, s in speedups.items()
    ]
    return RegressionRecord(
        label=label, scope="unit", components=components,
        retired=retired or {},
    )


BASELINE = {"stack_distances": 10.0, "fsai_setup": 4.0, "cache_replay": 1.0}


class TestCompareRecords:
    def test_identical_records_pass(self):
        report = compare_records(_record(BASELINE), _record(BASELINE))
        assert report.ok
        assert [v.name for v in report.verdicts] == [
            "stack_distances", "fsai_setup", "cache_replay", "COMPOSITE",
        ]
        assert all(v.ratio == pytest.approx(1.0) for v in report.verdicts)

    def test_small_regression_within_tolerance_passes(self):
        current = dict(BASELINE, stack_distances=8.5)  # 0.85x of baseline
        report = compare_records(_record(BASELINE), _record(current))
        assert report.ok

    def test_component_below_tolerance_fails(self):
        current = dict(BASELINE, stack_distances=7.0)  # 0.70x < 0.8 default
        report = compare_records(_record(BASELINE), _record(current))
        assert not report.ok
        bad = {v.name for v in report.verdicts if not v.ok}
        assert "stack_distances" in bad
        assert "GATE FAILED" in "\n".join(report.lines())

    def test_injected_slowdown_trips_composite_too(self):
        # A 4x slowdown of the wall-time-dominant component (cache_replay
        # spends 1 s optimized vs 0.35 s for the rest) sinks the composite.
        current = dict(BASELINE, cache_replay=BASELINE["cache_replay"] / 4)
        report = compare_records(_record(BASELINE), _record(current))
        composite = report.verdicts[-1]
        assert composite.name == "COMPOSITE" and not composite.ok

    def test_missing_component_fails(self):
        current = {k: v for k, v in BASELINE.items() if k != "fsai_setup"}
        report = compare_records(_record(BASELINE), _record(current))
        assert not report.ok
        assert report.missing == ["fsai_setup"]
        assert "missing" in "\n".join(report.lines())

    def test_retired_component_is_reported_not_failed(self):
        current = {k: v for k, v in BASELINE.items() if k != "fsai_setup"}
        reason = "reference side deleted"
        report = compare_records(
            _record(BASELINE),
            _record(current, retired={"fsai_setup": reason}),
        )
        assert report.ok
        assert report.missing == []
        assert report.retired == {"fsai_setup": reason}
        assert "fsai_setup" not in {v.name for v in report.verdicts}
        lines = "\n".join(report.lines())
        assert "retired fsai_setup" in lines and reason in lines
        assert report.to_dict()["retired"] == {"fsai_setup": reason}

    def test_retiring_one_component_does_not_excuse_another(self):
        current = {"cache_replay": BASELINE["cache_replay"]}
        report = compare_records(
            _record(BASELINE),
            _record(current, retired={"fsai_setup": "deleted"}),
        )
        assert not report.ok
        assert report.missing == ["stack_distances"]
        assert report.retired == {"fsai_setup": "deleted"}

    def test_retired_map_round_trips(self):
        record = _record(BASELINE, retired={"old": "deleted"})
        clone = RegressionRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.retired == {"old": "deleted"}
        assert "retired" not in _record(BASELINE).to_dict()
        assert RegressionRecord.from_dict(_record(BASELINE).to_dict()).retired == {}

    def test_extra_current_component_is_not_judged(self):
        # A fast new bench changes the composite only mildly and gets no
        # per-component verdict of its own.
        current = dict(BASELINE, brand_new=2.0)
        report = compare_records(_record(BASELINE), _record(current))
        assert report.ok
        assert "brand_new" not in {v.name for v in report.verdicts}

    def test_improvement_always_passes(self):
        current = {k: 2 * v for k, v in BASELINE.items()}
        report = compare_records(_record(BASELINE), _record(current))
        assert report.ok


def _info_record(speedup, informational):
    # The dominant armed component pins the composite, so the tests
    # below exercise the per-component verdict in isolation.
    return RegressionRecord(label="bench", scope="unit", components=[
        RegressionComponent(
            name="pcg_iteration", reference_seconds=100.0,
            optimized_seconds=10.0, detail="synthetic",
        ),
        RegressionComponent(
            name="serve_throughput_mp", reference_seconds=1.0,
            optimized_seconds=1.0 / speedup, detail="synthetic",
            informational=informational,
        ),
    ])


class TestInformationalComponents:
    """A component whose gate is unarmed on the recording host (e.g. the
    multi-process serving throughput on a small machine) is recorded but
    must never be judged as a regression."""

    @staticmethod
    def _mp_verdict(report):
        return next(
            v for v in report.verdicts if v.name == "serve_throughput_mp"
        )

    def test_informational_regression_passes(self):
        report = compare_records(
            _info_record(4.0, True), _info_record(0.5, True)
        )
        verdict = self._mp_verdict(report)
        assert verdict.ok and verdict.informational
        assert report.ok
        assert "info" in verdict.line()

    def test_flag_from_either_record_suffices(self):
        # Baseline from a big host (armed), current from a small one —
        # and the other way around; neither pairing may trip the gate.
        for base_flag, cur_flag in [(True, False), (False, True)]:
            report = compare_records(
                _info_record(4.0, base_flag), _info_record(0.5, cur_flag)
            )
            assert report.ok and self._mp_verdict(report).informational

    def test_armed_component_still_fails(self):
        report = compare_records(
            _info_record(4.0, False), _info_record(0.5, False)
        )
        assert not report.ok
        assert not self._mp_verdict(report).informational

    def test_flag_round_trips_through_json(self):
        record = _info_record(4.0, True)
        clone = RegressionRecord.from_dict(record.to_dict())
        assert clone.components[1].informational is True
        assert "(informational)" in "\n".join(clone.summary_lines())
        # And the report JSON carries the verdict's flag for CI artifacts.
        report = compare_records(record, clone)
        flags = {
            v["name"]: v["informational"]
            for v in report.to_dict()["verdicts"]
        }
        assert flags["serve_throughput_mp"] is True
        assert flags["pcg_iteration"] is False

    def test_legacy_payload_defaults_to_armed(self):
        payload = _record(BASELINE).to_dict()
        for c in payload["components"]:
            del c["informational"]
        clone = RegressionRecord.from_dict(payload)
        assert not any(c.informational for c in clone.components)

    def test_informational_excluded_from_composite(self):
        # 100 s -> 10 s armed; the informational pair (1 s -> 2 s) must
        # not dilute the 10x composite claim.
        record = _info_record(0.5, True)
        assert record.reference_total == pytest.approx(100.0)
        assert record.optimized_total == pytest.approx(10.0)
        assert record.speedup == pytest.approx(10.0)
        # Armed, the same timings do count.
        armed = _info_record(0.5, False)
        assert armed.speedup == pytest.approx(101.0 / 12.0)


class TestToleranceResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        assert resolve_tolerance() == DEFAULT_TOLERANCE

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV, "0.5")
        assert resolve_tolerance() == 0.5

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV, "0.5")
        assert resolve_tolerance(0.95) == 0.95

    def test_must_be_positive(self):
        with pytest.raises(ValueError):
            resolve_tolerance(0.0)
        with pytest.raises(ValueError):
            resolve_tolerance(-1.0)

    def test_env_tightens_the_gate(self, monkeypatch):
        current = dict(BASELINE, stack_distances=9.0)  # 0.9x of baseline
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        assert compare_records(_record(BASELINE), _record(current)).ok
        monkeypatch.setenv(TOLERANCE_ENV, "0.95")
        assert not compare_records(_record(BASELINE), _record(current)).ok


class TestCli:
    def _write(self, path, speedups):
        path.write_text(json.dumps(_record(speedups).to_dict(), indent=2))
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        base = self._write(tmp_path / "base.json", BASELINE)
        cur = self._write(tmp_path / "cur.json", BASELINE)
        assert main([base, cur]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        base = self._write(tmp_path / "base.json", BASELINE)
        cur = self._write(
            tmp_path / "cur.json", dict(BASELINE, fsai_setup=1.0)
        )
        assert main([base, cur]) == 1
        out = capsys.readouterr().out
        assert "FAIL fsai_setup" in out and "GATE FAILED" in out

    def test_retired_component_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        base = self._write(tmp_path / "base.json", BASELINE)
        current = _record(
            {k: v for k, v in BASELINE.items() if k != "fsai_setup"},
            retired={"fsai_setup": "reference side deleted"},
        )
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(current.to_dict()))
        assert main([base, str(cur)]) == 0
        out = capsys.readouterr().out
        assert "retired fsai_setup" in out and "PASS" in out

    def test_tolerance_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        base = self._write(tmp_path / "base.json", BASELINE)
        cur = self._write(
            tmp_path / "cur.json", dict(BASELINE, stack_distances=7.0)
        )
        assert main([base, cur]) == 1  # 0.70x fails the default 0.8
        assert main([base, cur, "--tolerance", "0.6"]) == 0

    def test_gate_works_on_committed_artifact_shape(self, tmp_path):
        """The real BENCH_engine.json (with trace_summary) must load."""
        from pathlib import Path

        artifact = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
        if not artifact.exists():
            pytest.skip("no committed BENCH_engine.json")
        record = RegressionRecord.load(artifact)
        report = compare_records(record, record)
        assert report.ok
