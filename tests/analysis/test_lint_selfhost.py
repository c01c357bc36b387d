"""Self-hosting gate: the shipped tree must satisfy its own linter.

This is the tier-1 enforcement point for the repository invariants —
seeded RNG everywhere, atomic IO outside ``repro/store``, SI-prefix
constants for physical quantities, tolerance-aware float assertions in
tests, the ``repro.errors`` taxonomy for every ``raise`` in ``src``,
and the project-wide dataflow family (async-safety, waiter resolution,
fork-safety, exception hygiene, resource lifetimes) with an *empty*
baseline.  If a change reintroduces a violation, this test fails
before CI's lint job ever runs.
"""

import json
import os

import pytest

from repro.analysis.lint import (
    DEEP_RULE_IDS,
    LintReport,
    RULES,
    check_source,
    render_sarif,
    run_lint,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(scope="module")
def tree_report():
    """One full-tree lint run shared by every test that reads it (the
    linter is pure over the tree, so re-running it only costs time)."""
    return run_lint(root=REPO_ROOT)


def test_repo_root_layout():
    assert os.path.isdir(os.path.join(REPO_ROOT, "src", "repro"))
    assert os.path.isdir(os.path.join(REPO_ROOT, "tests"))


def test_shipped_tree_is_clean(tree_report):
    report = tree_report
    assert report.errors == [], f"unparseable files: {report.errors}"
    details = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"lint violations in shipped tree:\n{details}"
    assert report.exit_code == 0


def test_shipped_tree_needs_no_baseline(tree_report):
    # The linter landed with every historical violation fixed, so the
    # suppression file must stay empty/absent. A finding that "needs"
    # a baseline entry is a regression, not legacy debt.
    assert tree_report.suppressed == 0


def test_every_registered_rule_participates(tree_report):
    # Sanity: the run actually visited a substantial tree with all
    # rules active, rather than passing vacuously.
    assert tree_report.files > 100
    assert set(RULES) >= {
        "RNG001", "IO001", "UNIT001", "TEST001", "ERR001", "TEL001",
    }
    assert set(RULES) >= set(DEEP_RULE_IDS)


# ----------------------------------------------------------------------
# the deep dataflow family self-hosts with an empty baseline
def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


BATCHER_REL = "src/repro/serving/batcher.py"
DAEMON_REL = "src/repro/serving/daemon.py"


class TestDeepFamilySelfHost:
    def test_deep_rules_clean_with_documented_exemptions(self):
        report = run_lint(root=REPO_ROOT, rules=list(DEEP_RULE_IDS))
        assert report.errors == []
        details = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], (
            f"deep-rule violations in shipped tree:\n{details}"
        )
        # Exactly the three documented conversion boundaries (per-model
        # load isolation in registry.py, the connection-level HTTP 500
        # in server.handle, and the traced per-request 500 in
        # server._predict that stamps the trace id onto model-bug
        # responses) carry `# lint: exempt EXC002` comments. A fourth
        # exemption is a design decision, not a drive-by.
        assert report.exempted == 3

    def test_batcher_satisfies_the_waiter_contract(self):
        findings = check_source(
            _read(os.path.join(REPO_ROOT, BATCHER_REL)),
            "ASYNC002", path=BATCHER_REL,
        )
        assert findings == []

    def test_daemon_satisfies_the_waiter_contract(self):
        findings = check_source(
            _read(os.path.join(REPO_ROOT, DAEMON_REL)),
            "ASYNC002", path=DAEMON_REL,
        )
        assert findings == []

    def test_mutant_dropping_fail_batch_is_caught(self):
        # Acceptance check for ASYNC002: delete the exception-path
        # resolution in MicroBatcher._flush and the rule must fire —
        # that mutant abandons every waiter in the batch whenever the
        # compute stage raises.
        source = _read(os.path.join(REPO_ROOT, BATCHER_REL))
        marker = "            self._fail_batch(batch, exc)\n"
        assert source.count(marker) == 1, (
            "batcher changed shape; re-seat the ASYNC002 mutant test"
        )
        mutant = source.replace(
            marker, "            pass  # mutant: waiter dropped\n"
        )
        findings = check_source(mutant, "ASYNC002", path=BATCHER_REL)
        assert any(
            f.rule == "ASYNC002" and "'batch'" in f.message
            for f in findings
        ), "seeded waiter-drop mutant was not caught"


# ----------------------------------------------------------------------
class TestSarifOutput:
    def test_clean_tree_renders_valid_sarif(self, tree_report):
        doc = json.loads(render_sarif(tree_report))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(DEEP_RULE_IDS) <= rule_ids
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_findings_carry_location_and_fingerprint(self):
        findings = check_source(
            "import time\n\nasync def f():\n    time.sleep(1)\n",
            "ASYNC001",
        )
        assert len(findings) == 1
        report = LintReport(findings=findings, files=1)
        doc = json.loads(render_sarif(report))
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "ASYNC001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/example.py"
        assert location["region"]["startLine"] == 4
        assert (result["partialFingerprints"]["reproLint/v1"]
                == findings[0].fingerprint())
