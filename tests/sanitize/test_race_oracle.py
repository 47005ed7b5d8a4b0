"""The sanitizers as the one race oracle, over runnable race seeds.

Every seed in :mod:`tests.sanitize.race_seeds` looks racy from source
text.  The two whose result depends on same-instant event order must
be caught (S902 and/or S903); the ones that are ordered, exclusive or
order-free at run time must produce no finding at all.  The findings
also export as valid SARIF with paths relative to the given root.
"""

import json
from pathlib import Path

import pytest

from repro.sanitize import DeterminismSanitizer, sanitized
from repro.sanitize.cli import findings_to_violations, format_sanitize_sarif
from tests.sanitize import race_seeds

SEEDS = tuple(range(1, 9))
HERE = Path(race_seeds.__file__).resolve().parent


def oracle_findings(seed, *args):
    """Findings of both sanitizers on one seed."""
    with sanitized(auto_instrument=False) as race:
        race_seeds.drive(seed, *args, watch=race.watch)
    determinism = DeterminismSanitizer(seeds=SEEDS)
    determinism.check(lambda: race_seeds.drive(seed, *args), name=seed)
    return [*race.findings, *determinism.findings]


@pytest.mark.parametrize("seed,args,rules", [
    ("sample", (), {"S902", "S903"}),
    # In-place list mutation is invisible to attribute tracking;
    # only the perturbed re-runs see the order dependence.
    ("arm", (0,), {"S903"}),
], ids=["read-write-same-instant", "container-mutation-same-instant"])
def test_order_dependent_seeds_are_caught(seed, args, rules):
    findings = oracle_findings(seed, *args)
    assert {finding.rule_id for finding in findings} == rules
    races = [f for f in findings if f.rule_id != "S903"]
    assert all(f.object_type == "Controller" and f.attr == "backlog"
               for f in races)


@pytest.mark.parametrize("seed,args", [
    ("arm", (5,)),
    ("staged", (True,)),
    ("staged", (False,)),
    ("storm", (4,)),
    ("defer", ()),
], ids=["distinct-instants", "exclusive-branch-a", "exclusive-branch-b",
        "identical-append-storm", "lone-global-lambda"])
def test_order_free_seeds_stay_silent(seed, args):
    assert oracle_findings(seed, *args) == []


def test_findings_convert_to_violations_with_relative_paths():
    violations = findings_to_violations(oracle_findings("sample"),
                                        root=str(HERE))
    assert {v.rule_id for v in violations} == {"S902", "S903"}
    for violation in violations:
        assert not violation.path.startswith("/")
        assert violation.line >= 1
    # A race anchors at its schedule call; a divergence at its scenario.
    assert {v.path for v in violations if v.rule_id == "S902"} \
        == {"race_seeds.py"}
    assert {v.path for v in violations if v.rule_id == "S903"} \
        == {"sample"}


def test_sanitize_sarif_is_valid_and_carries_rule_metadata():
    payload = json.loads(format_sanitize_sarif(oracle_findings("sample"),
                                               1))
    [run] = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro.sanitize"
    rules = {rule["id"]: rule for rule in run["tool"]["driver"]["rules"]}
    assert set(rules) == {"S902", "S903"}
    assert rules["S902"]["name"] == "dynamic-read-write-race"
    assert rules["S903"]["shortDescription"]["text"]
    assert run["results"]
    for result in run["results"]:
        assert result["ruleId"] in rules
