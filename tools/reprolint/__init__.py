"""reprolint: repo-native static analysis for the AXI-Pack reproduction.

The simulator's correctness story rests on invariants that used to be
enforced only by reviewer vigilance: bit-identical determinism across the
event/naive x scalar/batch x FULL/ELIDE cube, cache fingerprints that cover
every ``SystemConfig`` field, ``__slots__`` discipline on hot-path records,
and a lane-kernel twin for every scalar planner.  This package turns each of
those hand-kept rules into a machine-checked analysis pass:

* :mod:`tools.reprolint.core` — the driver: file contexts, the rule
  registry, per-line ``# reprolint: disable=RULE[: reason]`` suppressions
  (themselves reported), human and ``--json`` output, stable exit codes.
* :mod:`tools.reprolint.rules` — the rule battery (determinism, ordering,
  fingerprint completeness, hot-path contracts, twin coverage, deprecation,
  dead code, documentation drift).
* ``manifest.json`` / ``fingerprint_manifest.json`` — committed manifests:
  the explicit allowlists and the fingerprint field-set pin, kept in the
  tree so every exemption shows up in diff review.

Entry points::

    python -m tools.reprolint [--json]     # from the repository root
    repro lint [--json]                    # the CLI subcommand

Exit codes: 0 clean, 1 violations found, 2 configuration/internal error.
"""

from tools.reprolint.core import (  # public API re-export
    LintConfig,
    LintResult,
    RepoContext,
    Violation,
    run_lint,
)
