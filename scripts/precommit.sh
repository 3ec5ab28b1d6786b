#!/usr/bin/env bash
# Fast pre-commit gate: formatting plus yoso-lint.
#
#   ./scripts/precommit.sh
#
# Needs no build tree: the builtin formatting subset, then one yoso-lint run
# over the tree (the standalone header compile is scripts/check.sh's and
# CI's job, not this hook's).  Wire it up with:
#
#   ln -s ../../scripts/precommit.sh .git/hooks/pre-commit
set -euo pipefail

cd "$(dirname "$0")/.."

echo "precommit: format.check (builtin subset)"
python3 tools/yoso_format.py --root . --check --builtin-only

echo "precommit: yoso-lint"
python3 tools/yoso_lint.py --root .

echo "precommit: ok"
