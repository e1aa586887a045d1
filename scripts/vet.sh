#!/usr/bin/env bash
# vet.sh — the repository's full static-analysis gate, runnable locally
# and in CI (the lint job calls exactly this script):
#
#   0. gofmt           — every tracked Go file is gofmt-clean (tracked
#                        files only, so build outputs are never walked)
#   1. go vet          — the stock toolchain checks
#   2. staticcheck     — if installed; CI installs the pinned version
#                        from .github/workflows/ci.yml, locally it is
#                        optional so a bare container can still vet
#   3. slingvet        — the repo's own analyzer suite (cmd/slingvet):
#                        determinism, cancellation, pooling, error
#                        contract, metrics-schema, and unsafe-confinement
#                        invariants
#
# Usage: scripts/vet.sh [packages...]   (default ./...)
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
  pkgs=(./...)
fi

echo "==> gofmt"
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet"
go vet "${pkgs[@]}"

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck "${pkgs[@]}"
else
  echo "==> staticcheck not installed; skipping (CI runs the pinned version)"
fi

echo "==> slingvet"
go run ./cmd/slingvet "${pkgs[@]}"

echo "ok: all static analysis passed"
