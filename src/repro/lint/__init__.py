"""``repro.lint`` — static preservation linting.

The cheap first line of defence the DPHEP validation-framework work
argues for: before any re-execution, preserved artifacts are checked
*statically* — analysis sources for reproducibility hazards, and
cross-artifact documents (specs, snapshots, provenance exports, archive
directories, RECAST catalogues, interview records) for internal
consistency. Rules carry stable ``DASnnn`` codes; ``docs/linting.md``
holds the generated catalogue.
"""

from repro.lint.consistency import (
    lint_archive_directory,
    lint_bundle,
    lint_conditions_coverage,
    lint_conditions_snapshot,
    lint_maturity_vs_sharing,
    lint_provenance_document,
    lint_recast_bridge,
    lint_skim_spec,
    lint_slim_spec,
)
from repro.lint.det import (
    det_findings,
    lint_tree_det,
    register_replay_root,
    replay_root,
    replay_roots,
)
from repro.lint.engine import (
    LintConfig,
    LintReport,
    LintSession,
    Rule,
    all_rules,
    get_rule,
)
from repro.lint.findings import Finding, Severity
from repro.lint.flow import (
    ClosureManifest,
    analyze_tree,
    archive_closure_sources,
    check_manifest_against_archive,
    check_manifest_against_recast,
    check_manifest_against_repository,
    deep_findings,
    extract_closure,
    lint_tree_deep,
)
from repro.lint.par import lint_tree_par, par_findings
from repro.lint.pycheck import lint_source, lint_source_file
from repro.lint.report import (
    render_json,
    render_rule_catalog,
    render_text,
)
from repro.lint.targets import (
    classify_document,
    lint_bundled_artifacts,
    lint_document,
    lint_path,
)

__all__ = [
    "ClosureManifest",
    "Finding",
    "LintConfig",
    "LintReport",
    "LintSession",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_tree",
    "archive_closure_sources",
    "check_manifest_against_archive",
    "check_manifest_against_recast",
    "check_manifest_against_repository",
    "classify_document",
    "deep_findings",
    "det_findings",
    "extract_closure",
    "get_rule",
    "lint_archive_directory",
    "lint_bundle",
    "lint_bundled_artifacts",
    "lint_conditions_coverage",
    "lint_conditions_snapshot",
    "lint_document",
    "lint_maturity_vs_sharing",
    "lint_path",
    "lint_provenance_document",
    "lint_recast_bridge",
    "lint_skim_spec",
    "lint_slim_spec",
    "lint_source",
    "lint_source_file",
    "lint_tree_deep",
    "lint_tree_det",
    "lint_tree_par",
    "par_findings",
    "register_replay_root",
    "render_json",
    "render_rule_catalog",
    "render_text",
    "replay_root",
    "replay_roots",
]
