"""Tier-1 wrapper for reprolint: rule battery fixtures + repo self-check.

Each rule group gets a paired good/bad fixture under
``tests/fixtures/reprolint/`` — the bad fixture proves the rule fires, the
good one proves it stays quiet — and the committed tree itself must lint
clean with zero unexplained suppressions (the CI ``static-analysis`` gate,
run here so a violation fails the PR's tier-1 leg too).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import tools.reprolint.rules  # noqa: E402,F401  (registers the battery)
from tools.reprolint.core import (  # noqa: E402
    LintConfig,
    RepoContext,
    run_lint,
    run_rules,
)
from tools.reprolint.rules.fingerprint import field_set_digest  # noqa: E402

FIXTURES = "tests/fixtures/reprolint"


def lint(paths, groups, manifest=None, fingerprint=None):
    """Run ``groups`` over fixture ``paths`` with a synthetic config."""
    config = LintConfig(manifest or {}, fingerprint or {})
    repo = RepoContext(REPO_ROOT, config, rel_paths=list(paths))
    return run_rules(repo, groups)


def codes(result):
    return [v.code for v in result.violations]


# ------------------------------------------------------------- determinism
class TestDeterminismRule:
    def test_bad_fixture_fires_every_code(self):
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"])
        found = codes(result)
        assert "DET01" in found  # time.time()
        assert "DET03" in found  # os.environ.get
        assert found.count("DET02") == 2  # random.randint + unseeded rng

    def test_good_fixture_is_clean(self):
        result = lint([f"{FIXTURES}/det_good.py"], ["determinism"])
        assert codes(result) == []

    def test_allowlist_admits_named_var_only(self):
        allow = {"env_allowlist": {
            f"{FIXTURES}/det_bad.py": {"vars": ["NOT_ALLOWLISTED"],
                                       "reason": "test"},
        }}
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"],
                      manifest=allow)
        assert "DET03" not in codes(result)

    def test_wallclock_allowlist(self):
        allow = {"wallclock_allowlist": {f"{FIXTURES}/det_bad.py": "test"}}
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"],
                      manifest=allow)
        assert "DET01" not in codes(result)


# --------------------------------------------------------- order-iteration
class TestOrderIterationRule:
    def test_bad_fixture_flags_values_and_set_literal(self):
        result = lint([f"{FIXTURES}/ord_bad.py"], ["order-iteration"])
        assert codes(result) == ["ORD01", "ORD01"]

    def test_sorted_wrapper_and_list_iteration_pass(self):
        result = lint([f"{FIXTURES}/ord_good.py"], ["order-iteration"])
        assert codes(result) == []


# ----------------------------------------------------------------- hot-path
class TestHotPathRules:
    def test_bad_fixture(self):
        manifest = {"hot_modules": [f"{FIXTURES}/hot_bad.py"]}
        result = lint([f"{FIXTURES}/hot_bad.py"], ["hot-path"],
                      manifest=manifest)
        found = codes(result)
        assert found.count("HOT01") == 1  # Beat only; Component has slots
        assert found.count("HOT02") == 2  # explicit None + fall-through

    def test_good_fixture_is_clean(self):
        manifest = {"hot_modules": [f"{FIXTURES}/hot_good.py"]}
        result = lint([f"{FIXTURES}/hot_good.py"], ["hot-path"],
                      manifest=manifest)
        assert codes(result) == []

    def test_slots_only_enforced_in_hot_modules(self):
        result = lint([f"{FIXTURES}/hot_bad.py"], ["hot-path"], manifest={})
        assert "HOT01" not in codes(result)


# -------------------------------------------------------------- fingerprint
def _fpr_manifest(module, fields, schema=3, digest_fields=None, extra=None):
    entry = {
        "module": module,
        "coverage": "explicit",
        "fields": fields,
        "exempt": {"verify": "checking results never changes them (test)"},
    }
    if extra:
        entry.update(extra)
    covered = {"MiniSpec": sorted(digest_fields or [])}
    return {
        "schema_version": schema,
        "spec_module": module,
        "classes": {"MiniSpec": entry},
        "digest_history": {str(schema): field_set_digest(covered)},
    }


class TestFingerprintRules:
    GOOD = f"{FIXTURES}/fpr_good.py"
    BAD = f"{FIXTURES}/fpr_bad.py"

    def test_good_fixture_is_clean(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode"],
                           digest_fields=["size", "mode"])
        assert codes(lint([], ["fingerprint"], fingerprint=fp)) == []

    def test_uncovered_field_and_unread_field(self):
        # Manifest claims `mode` covered and knows nothing about `latency`.
        fp = _fpr_manifest(self.BAD, ["size", "mode"],
                           digest_fields=["size", "mode"])
        found = codes(lint([], ["fingerprint"], fingerprint=fp))
        assert "FPR01" in found  # latency uncovered
        assert "FPR04" in found  # mode never read in fingerprint()
        assert "FPR05" in found  # field-set drifted from the pinned digest

    def test_stale_manifest_field(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode", "gone"],
                           digest_fields=["size", "mode"])
        assert "FPR02" in codes(lint([], ["fingerprint"], fingerprint=fp))

    def test_schema_version_mismatch(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode"], schema=99,
                           digest_fields=["size", "mode"])
        found = codes(lint([], ["fingerprint"], fingerprint=fp))
        assert "FPR03" in found

    def test_field_set_change_without_bump(self):
        # Pin a digest for a *smaller* field-set than the code declares.
        fp = _fpr_manifest(self.GOOD, ["size", "mode"],
                           digest_fields=["size"])
        assert "FPR05" in codes(lint([], ["fingerprint"], fingerprint=fp))


# ------------------------------------------------------------ twin-coverage
class TestTwinCoverageRules:
    def test_good_pair_is_clean(self):
        manifest = {"twins": {
            "planners": f"{FIXTURES}/twn_planners_good.py",
            "lanes": f"{FIXTURES}/twn_lanes_good.py",
        }}
        assert codes(lint([], ["twin-coverage"], manifest=manifest)) == []

    def test_orphans_both_ways(self):
        manifest = {"twins": {
            "planners": f"{FIXTURES}/twn_planners_bad.py",
            "lanes": f"{FIXTURES}/twn_lanes_bad.py",
        }}
        result = lint([], ["twin-coverage"], manifest=manifest)
        assert sorted(codes(result)) == ["TWN01", "TWN02"]
        by_code = {v.code: v.message for v in result.violations}
        assert "plan_orphan_beats" in by_code["TWN01"]
        assert "batch_rogue" in by_code["TWN02"]

    def test_exemption_silences_a_deliberate_singleton(self):
        manifest = {"twins": {
            "planners": f"{FIXTURES}/twn_planners_bad.py",
            "lanes": f"{FIXTURES}/twn_lanes_bad.py",
            "exempt": {"plan_orphan_beats": "scalar-only by design (test)",
                       "batch_rogue": "batch-only by design (test)"},
        }}
        assert codes(lint([], ["twin-coverage"], manifest=manifest)) == []


# -------------------------------------------------------------- deprecation
class TestDeprecationRule:
    def test_import_and_use_both_flagged(self):
        manifest = {"deprecated_names": {
            "MemoryError_": "use MemoryAccessError",
        }}
        result = lint([f"{FIXTURES}/dep_bad.py"], ["deprecation"],
                      manifest=manifest)
        assert codes(result).count("DEP01") >= 2
        assert "MemoryAccessError" in result.violations[0].message

    def test_committed_tree_carries_the_real_tombstone(self):
        config = LintConfig.load(REPO_ROOT)
        assert "MemoryError_" in config.deprecated


# ------------------------------------------------------------- suppressions
class TestSuppressionMeta:
    def test_reasonless_and_unused_suppressions_are_violations(self):
        result = lint([f"{FIXTURES}/sup_bad.py"], ["determinism"])
        found = codes(result)
        assert "SUP01" in found  # disable=DET01 with no reason
        assert "SUP02" in found  # disable=DET02 suppressing nothing
        assert "DET01" not in found  # ... but the suppression still applies

    def test_explained_suppression_is_reported_not_hidden(self):
        result = lint([f"{FIXTURES}/sup_good.py"], ["determinism"])
        assert codes(result) == []
        assert [v.code for v in result.suppressed] == ["DET01"]
        assert result.suppressed[0].reason is not None


# ---------------------------------------------------------------- dead-code
class TestDeadCodeRule:
    CALLERS = [f"{FIXTURES}/dead_caller*.py", f"{FIXTURES}/dead_pkg/*.py"]

    def test_bad_fixture_flags_test_only_reexported_and_self_referenced(self):
        manifest = {"dead_code_callers": self.CALLERS}
        result = lint([f"{FIXTURES}/dead_bad.py"], ["dead-code"],
                      manifest=manifest)
        flagged = {v.message.split("`")[1] for v in result.violations}
        assert codes(result) == ["DEAD01"] * 3
        assert flagged == {"orphan", "reexported", "Recursive"}

    def test_good_fixture_is_clean_once_the_exemption_is_listed(self):
        manifest = {"dead_code_callers": self.CALLERS}
        result = lint([f"{FIXTURES}/dead_good.py"], ["dead-code"],
                      manifest=manifest)
        key = "tests.fixtures.reprolint.dead_good:exempted"
        assert codes(result) == ["DEAD01"]
        assert f'"{key}"' in result.violations[0].message
        manifest["dead_code_exempt"] = {key: "deliberately uncalled (test)"}
        result = lint([f"{FIXTURES}/dead_good.py"], ["dead-code"],
                      manifest=manifest)
        assert codes(result) == []

    def test_committed_exemptions_carry_reasons(self):
        exempt = LintConfig.load(REPO_ROOT).dead_code_exempt
        assert exempt and all(reason.strip() for reason in exempt.values())

    def test_committed_exemptions_name_live_symbols(self):
        # A stale key would silently exempt nothing; every key must name a
        # module-level definition that still exists.
        import ast

        for key in LintConfig.load(REPO_ROOT).dead_code_exempt:
            module, name = key.split(":")
            path = REPO_ROOT / "src" / (module.replace(".", "/") + ".py")
            tree = ast.parse(path.read_text())
            assert name in {getattr(node, "name", None) for node in tree.body}, key

    @pytest.mark.parametrize("rel,module", [
        ("src/repro/axi/types.py", "repro.axi.types"),
        ("src/repro/sim/__init__.py", "repro.sim"),
        ("tests/fixtures/reprolint/dead_good.py",
         "tests.fixtures.reprolint.dead_good"),
    ])
    def test_module_name_forms_exemption_keys(self, rel, module):
        from tools.reprolint.rules.deadcode import module_name

        assert module_name(rel) == module

    @pytest.mark.parametrize("basename,is_test", [
        ("test_axi.py", True),
        ("axi_test.py", True),
        ("conftest.py", True),
        ("testing.py", False),
        ("contest.py", False),
    ])
    def test_only_test_module_basenames_are_excluded(self, basename, is_test):
        from tools.reprolint.rules.deadcode import _TEST_FILE_RE

        assert bool(_TEST_FILE_RE.match(basename)) is is_test

    @staticmethod
    def refs(source, package_init=False):
        import ast

        from tools.reprolint.rules.deadcode import references

        return references(ast.parse(source), package_init)

    def test_names_attributes_and_import_aliases_are_references(self):
        found = self.refs(
            "from pkg.mod import original as alias\n"
            "import pkg.other as other\n"
            "value = other.Widget(helper())\n"
        )
        assert {"original", "Widget", "helper", "other"} <= found

    def test_strings_docstrings_and_all_are_not_references(self):
        found = self.refs(
            '"""Mentions orphan in prose."""\n'
            '__all__ = ["exported"]\n'
            'label = "named_in_a_string"\n'
        )
        assert not {"orphan", "exported", "named_in_a_string"} & found

    def test_package_init_imports_are_not_references(self):
        source = "from pkg.mod import reexported\n"
        assert "reexported" in self.refs(source)
        assert "reexported" not in self.refs(source, package_init=True)

    def test_self_mention_dropped_but_use_by_a_sibling_counts(self):
        assert "walk" not in self.refs(
            "def walk(node):\n    return [walk(c) for c in node]\n"
        )
        assert "walk" in self.refs(
            "def walk(node):\n    return node\n\n"
            "def main():\n    return walk(1)\n"
        )

    def test_async_definitions_drop_their_self_mentions_too(self):
        found = self.refs(
            "async def poll():\n    await poll()\n\n"
            "class Node:\n    def clone(self):\n        return Node()\n"
        )
        assert not {"poll", "Node"} & found


# -------------------------------------------------------------------- docs
class TestDocsRule:
    def test_undocumented_surface_detected(self):
        import argparse

        from tools.reprolint.rules.docs import check_cli_documented

        parser = argparse.ArgumentParser(prog="repro")
        sub = parser.add_subparsers(dest="command")
        zap = sub.add_parser("zap")
        zap.add_argument("--boom", action="store_true")
        missing = check_cli_documented(parser, "docs mention nothing")
        assert missing == [
            "subcommand 'repro zap' not documented",
            "flag '--boom' (repro zap) not documented",
        ]

    def test_bad_fixture_flags_undocumented_flag_and_broken_link(self):
        manifest = {"docs": {"files": [f"{FIXTURES}/doc_bad.md"]}}
        result = lint([], ["docs"], manifest=manifest)
        doc01 = [v.message for v in result.violations if v.code == "DOC01"]
        doc02 = [v for v in result.violations if v.code == "DOC02"]
        assert any("flag '--jobs' (repro run)" in m for m in doc01)
        assert not any("subcommand 'repro run'" in m for m in doc01)
        assert [(v.path, v.line) for v in doc02] == [(f"{FIXTURES}/doc_bad.md", 5)]
        assert "no_such_page.md" in doc02[0].message

    def test_good_fixture_is_clean(self):
        from tools.reprolint.rules.docs import doc_files

        files = [*doc_files(REPO_ROOT), f"{FIXTURES}/doc_good.md"]
        result = lint([], ["docs"], manifest={"docs": {"files": files}})
        assert codes(result) == []

    def test_doc_set_is_readme_plus_docs_tree(self):
        from tools.reprolint.rules.docs import doc_files

        docs = doc_files(REPO_ROOT)
        assert docs[0] == "README.md"
        assert "docs/testing.md" in docs
        assert all(doc.endswith(".md") for doc in docs)


# ------------------------------------------------------------- whole-repo
class TestCommittedTree:
    def test_committed_tree_lints_clean(self):
        """The CI gate: zero violations, zero unexplained suppressions."""
        result = run_lint(REPO_ROOT)
        assert [v.render() for v in result.violations] == []
        assert all(v.reason for v in result.suppressed)
        assert result.exit_code == 0

    def test_json_report_shape(self):
        result = run_lint(REPO_ROOT, rule_names=["hot-path"])
        data = json.loads(json.dumps(result.to_dict()))
        assert data["version"] == 1
        assert data["exit_code"] == result.exit_code
        assert data["counts"]["violations"] == len(data["violations"])
        assert data["counts"]["suppressed"] == len(data["suppressed"])

    def test_cli_json_output(self, capsys):
        from tools.reprolint.cli import main

        status = main(["--root", str(REPO_ROOT), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert status == data["exit_code"] == 0
        assert data["counts"]["violations"] == 0

    def test_unknown_rule_group_is_a_config_error(self, capsys):
        from tools.reprolint.cli import main

        assert main(["--root", str(REPO_ROOT), "--rules", "nope"]) == 2
        assert "unknown rule group" in capsys.readouterr().err
