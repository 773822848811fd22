"""End-to-end ``repro-fsai trace <case>`` CLI (ISSUE 3 acceptance check).

Runs one real suite case under tracing and validates both artifacts: the
JSON export must carry the stable schema with per-phase times that cover
the case wall time to within 5%, and the Chrome trace must be a loadable
Trace-Event-Format document.
"""

import json
import re

import pytest

from repro.cli import main
from repro.trace import JSON_SCHEMA, TraceSummary

CASE_ID = 37  # small campaign case: full method x filter grid in < 1 s

#: Phases the instrumented layers must all contribute.
EXPECTED_PHASES = {
    "case",
    "case.prepare",
    "case.evaluate",
    "fsai.setup",
    "solvers.cg",
    "cachesim.spmv_sim",
}


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace-cli")
    json_path = tmp / "trace.json"
    chrome_path = tmp / "trace.chrome.json"
    rc = main([
        "trace", str(CASE_ID),
        "--json", str(json_path),
        "--chrome", str(chrome_path),
    ])
    return rc, json_path, chrome_path


class TestTraceCli:
    def test_exit_code_and_files(self, cli_run):
        rc, json_path, chrome_path = cli_run
        assert rc == 0
        assert json_path.exists() and chrome_path.exists()

    def test_json_schema_and_phases(self, cli_run):
        _, json_path, _ = cli_run
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == JSON_SCHEMA
        assert f"case {CASE_ID}" in doc["label"]
        assert EXPECTED_PHASES <= set(doc["phase_seconds"])
        assert doc["counter_totals"]["cg.iterations"] > 0
        assert doc["counter_totals"]["pattern.final_nnz"] > 0

    def test_setup_ops_trace_one_span_per_call(self, cli_run):
        """The exact setup and the §5 precalc each open one span per call,
        stamped with the kernel backend and its thread count."""
        _, json_path, _ = cli_run
        summary = TraceSummary.from_dict(json.loads(json_path.read_text()))
        names = [s.name for s in summary.iter_spans()]
        assert "fsai_setup" not in names
        setup_spans = [
            s for s in summary.iter_spans()
            if s.name in ("fsai.frobenius", "fsai.precalc")
        ]
        assert {s.name for s in setup_spans} == {
            "fsai.frobenius", "fsai.precalc",
        }
        for span in setup_spans:
            assert not span.children
            assert {"backend", "threads"} <= set(span.attrs)

    def test_phase_times_cover_wall_within_5pct(self, cli_run):
        """The CLI reports its own wall-vs-span coverage; enforce >= 95%."""
        _, json_path, _ = cli_run
        doc = json.loads(json_path.read_text())
        summary = TraceSummary.from_dict(doc)
        # The single root "case" span covers the whole grid; its direct
        # children (prepare + evaluations) must account for >= 95% of it.
        (root,) = summary.spans
        assert root.name == "case"
        child_sum = sum(c.duration for c in root.children)
        assert child_sum <= root.duration * 1.0001
        assert child_sum >= 0.95 * root.duration, (
            f"children cover {100 * child_sum / root.duration:.1f}% "
            f"of the case span"
        )

    def test_cli_reports_full_coverage(self, capsys, tmp_path):
        """The printed wall-vs-span line must show >= 95% coverage."""
        rc = main([
            "trace", str(CASE_ID),
            "--json", str(tmp_path / "t.json"),
            "--chrome", str(tmp_path / "t.chrome.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        match = re.search(r"spans cover [\d.]+s \(([\d.]+)%\)", out)
        assert match, f"coverage line missing from CLI output:\n{out}"
        coverage_pct = float(match.group(1))
        assert 95.0 <= coverage_pct <= 101.0
        assert "phase breakdown" in out

    def test_chrome_trace_loadable(self, cli_run):
        _, _, chrome_path = cli_run
        doc = json.loads(chrome_path.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert EXPECTED_PHASES <= names
        for e in events:
            assert e["dur"] >= 0.0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
