"""Analyzer driver: file collection, two-pass analysis, dispatch.

v2 runs whole-program analysis in two passes:

* **Pass 1** reduces every file to a :class:`ModuleSummary` (imports,
  function parameter/return units, mutable globals) and stitches them
  into a :class:`ProjectIndex` — the call graph the flow rules query.
* **Pass 2** walks each file once more, running the local rules
  (U0xx/D1xx/E2xx/F3xx) and the project rules (U1xx/P4xx/C5xx), the
  latter with the index in hand.

Both passes are incremental when a :class:`LintCache` is supplied:
summaries are keyed by file content, findings by file content plus
the project signature, so a warm re-lint of an unchanged tree parses
nothing at all.

Violations are filtered through each file's suppression index; a
line-level directive that matches no violation, or any directive that
names a rule the registry does not know, is itself reported
(``W001 unused-suppression``), so stale escapes cannot accumulate.
Results are returned sorted — the analyzer practices the determinism
it preaches.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.fix import delete_span_fix
from repro.lint.project import ProjectIndex, module_name_for
from repro.lint.registry import all_rules, get_rule
from repro.lint.summaries import ModuleSummary, summarize_module
from repro.lint.suppressions import ALL, SuppressionIndex
from repro.lint.violations import Violation

#: Bump on any behavior change that should invalidate cached results.
ANALYZER_VERSION = "3.0"

#: Directory names skipped while walking a directory argument.  Files
#: named explicitly on the command line are always linted — that is how
#: the test fixtures (which contain planted violations) are exercised
#: without failing the repository-wide gate.
EXCLUDED_DIR_NAMES = ("fixtures", "__pycache__", ".git")

SYNTAX_ERROR_RULE = "E999"
UNUSED_SUPPRESSION_RULE = "W001"


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = set()
    collected: List[Path] = []

    def add(path: Path) -> None:
        key = str(path)
        if key not in seen:
            seen.add(key)
            collected.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in EXCLUDED_DIR_NAMES
                       for part in candidate.parts):
                    continue
                add(candidate)
        else:
            add(path)
    return collected


def _parse(source: str, path: str):
    """(tree, None) on success, (None, E999 violation) on failure."""
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Violation(path=path, line=exc.lineno or 1,
                               col=(exc.offset or 1) - 1,
                               rule_id=SYNTAX_ERROR_RULE,
                               message=f"syntax error: {exc.msg}")


def _select_checkers(select: Optional[Iterable[str]]):
    if select is None:
        return list(all_rules().values())
    return [get_rule(rule_id) for rule_id in select]


def _known_rules(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """Ids a directive may name, or ``None`` when not judged (``--select``)."""
    if select is not None:
        return None
    return {*all_rules(), SYNTAX_ERROR_RULE, UNUSED_SUPPRESSION_RULE}


def _run_checkers(tree: ast.Module, source: str, path: str,
                  checkers, index: Optional[ProjectIndex],
                  module: Optional[ModuleSummary],
                  known_rules: Optional[Set[str]]) -> List[Violation]:
    """Run pass 2 on one parsed file: rules + suppression filtering."""
    raw: List[Violation] = []
    checked_rules = set()
    for checker_cls in checkers:
        if not checker_cls.applies_to(path):
            continue
        checked_rules.add(checker_cls.rule_id)
        if getattr(checker_cls, "requires_index", False):
            checker = checker_cls(path, index=index, module=module)
        else:
            checker = checker_cls(path)
        checker.visit(tree)
        raw.extend(checker.violations)

    suppressions = SuppressionIndex.from_source(source)
    kept: List[Violation] = []
    used_lines = set()
    for violation in raw:
        line_rules = suppressions.line_rules.get(violation.line,
                                                frozenset())
        if ALL in line_rules or violation.rule_id in line_rules:
            used_lines.add(violation.line)
            continue
        if ALL in suppressions.file_rules \
                or violation.rule_id in suppressions.file_rules:
            continue
        kept.append(violation)

    if ALL not in suppressions.file_rules \
            and UNUSED_SUPPRESSION_RULE not in suppressions.file_rules:
        kept.extend(_judge_directives(path, suppressions, used_lines,
                                      checked_rules, known_rules))
    return sorted(kept)


def _judge_directives(path: str, suppressions: SuppressionIndex,
                      used_lines: Set[int], checked_rules: Set[str],
                      known_rules: Optional[Set[str]]) -> List[Violation]:
    """W001 for directives that name unknown rules or suppress nothing.

    ``known_rules`` is ``None`` under ``--select``: a run of a few
    rules cannot tell a misspelt id from an unselected one.
    """
    directives = [(line, rules, True)
                  for line, rules in suppressions.line_rules.items()]
    directives += [(line, rules, False)
                   for line, rules in suppressions.file_lines.items()]
    found: List[Violation] = []
    for line, rules, line_scoped in sorted(directives):
        if UNUSED_SUPPRESSION_RULE in rules:
            continue
        unknown = (sorted(rules - known_rules - {ALL})
                   if known_rules is not None else [])
        if unknown:
            listed = ",".join(unknown)
            message = (f"unknown rule in suppression: disable={listed} "
                       f"names no registered rule; delete it")
            deletable = line_scoped and len(unknown) == len(rules)
        elif line_scoped and line not in used_lines \
                and (ALL in rules or rules & checked_rules):
            # Judge a directive only when a rule it names actually
            # ran (under --select, suppressions for unselected rules
            # are outside this run's evidence).
            listed = ",".join(sorted(rules))
            message = (f"unused suppression: disable={listed} matches "
                       f"no violation on this line; delete it")
            deletable = True
        else:
            continue
        span = suppressions.line_spans.get(line) if deletable else None
        fix = None
        if span is not None:
            fix = delete_span_fix(line, span[0], line, span[1],
                                  "delete the unused suppression comment")
        found.append(Violation(path=path, line=line, col=0,
                               rule_id=UNUSED_SUPPRESSION_RULE,
                               message=message, fix=fix))
    return found


def lint_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None,
                index: Optional[ProjectIndex] = None,
                ) -> List[Violation]:
    """Lint one source string; ``select`` limits to the given rule ids.

    Without an ``index`` the project context is just this one file —
    cross-module rules then see only what the file itself defines.
    """
    tree, error = _parse(source, path)
    if error is not None:
        return [error]
    checkers = _select_checkers(select)
    module = summarize_module(tree, module_name_for(path), path)
    if index is None:
        index = ProjectIndex([module])
    return _run_checkers(tree, source, path, checkers, index, module,
                         _known_rules(select))


def lint_file(path: Path,
              select: Optional[Iterable[str]] = None,
              index: Optional[ProjectIndex] = None) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path=str(path), select=select, index=index)


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               cache=None,
               report_only: Optional[Iterable[str]] = None
               ) -> List[Violation]:
    """Lint every Python file reachable from ``paths``, sorted."""
    return lint_files(collect_files(paths), select=select, cache=cache,
                      report_only=report_only)


def lint_files(files: Sequence[Path],
               select: Optional[Iterable[str]] = None,
               cache=None,
               report_only: Optional[Iterable[str]] = None
               ) -> List[Violation]:
    """Two-pass lint of an explicit file list.

    ``cache`` is a :class:`repro.lint.cache.LintCache` (or ``None``);
    with one, unchanged files are neither parsed nor re-checked.

    ``report_only`` restricts *pass 2* to the named files while the
    project index still covers everything — this is how
    ``tools/lint_changed.py`` lints a handful of changed files with
    full cross-module context but no full-tree rule run.
    """
    checkers = _select_checkers(select)
    known_rules = _known_rules(select)
    select_key = ",".join(sorted(select)) if select is not None else "*"

    # Pass 1 — summaries (cached by file content).
    sources: Dict[str, str] = {}
    trees: Dict[str, ast.Module] = {}
    errors: Dict[str, Violation] = {}
    file_keys: Dict[str, str] = {}
    summaries: List[ModuleSummary] = []
    for file_path in files:
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        sources[path] = source
        if cache is not None:
            key = cache.file_key(path, source)
            file_keys[path] = key
            summary = cache.get_summary(key)
            if summary is not None:
                summaries.append(summary)
                continue
        tree, error = _parse(source, path)
        if error is not None:
            errors[path] = error
            summary = ModuleSummary(module=module_name_for(path),
                                    path=path)
        else:
            trees[path] = tree
            summary = summarize_module(tree, module_name_for(path), path)
        summaries.append(summary)
        if cache is not None:
            cache.put_summary(file_keys[path], summary)

    index = ProjectIndex(summaries)
    signature = f"{ANALYZER_VERSION}:{index.signature()}:{select_key}"
    reported = (None if report_only is None
                else {str(Path(p).resolve()) for p in report_only})

    # Pass 2 — rules (cached by file content + project signature).
    violations: List[Violation] = []
    for file_path in files:
        path = str(file_path)
        if reported is not None \
                and str(file_path.resolve()) not in reported:
            continue
        if cache is not None:
            cached = cache.get_results(file_keys[path], signature)
            if cached is not None:
                violations.extend(cached)
                continue
        if path in errors:
            found: List[Violation] = [errors[path]]
        else:
            tree = trees.get(path)
            if tree is None:  # summary came from cache; parse now
                tree, error = _parse(sources[path], path)
                if error is not None:
                    tree = None
                    found = [error]
            if tree is not None:
                found = _run_checkers(tree, sources[path], path,
                                      checkers, index,
                                      index.by_path.get(path),
                                      known_rules)
        if cache is not None:
            cache.put_results(file_keys[path], signature, found)
        violations.extend(found)
    return sorted(violations)


def build_project_index(paths: Sequence[str]) -> ProjectIndex:
    """Pass 1 only: the project index for ``paths`` (for tooling)."""
    summaries: List[ModuleSummary] = []
    for file_path in collect_files(paths):
        path = str(file_path)
        tree, error = _parse(file_path.read_text(encoding="utf-8"), path)
        if error is not None:
            summaries.append(ModuleSummary(module=module_name_for(path),
                                           path=path))
        else:
            summaries.append(summarize_module(tree, module_name_for(path),
                                              path))
    return ProjectIndex(summaries)
