#!/usr/bin/env bash
# Lint gate (DESIGN.md "Static analysis"): clang-tidy over every
# translation unit in src/ (zero-warning policy via -warnings-as-errors),
# a clang-format drift check over all C++ sources, and the project-rule
# linter tools/lslint.py. Usage:
#   tools/lint.sh [build-dir]
#
# The build dir only needs a configure (for compile_commands.json); this
# script runs one if it is missing. Tools are looked up as clang-tidy /
# clang-format or their -MAJOR suffixed names. By default a missing tool
# is a skip with a notice so the gate degrades gracefully on boxes with
# only gcc; with LS_LINT_STRICT=1 (what CI sets) a missing tool is a hard
# failure — the gate must not silently pass because the runner image
# dropped a package.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"$repo_root/build-lint"}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
strict="${LS_LINT_STRICT:-0}"

find_tool() {
  local base="$1"
  if command -v "$base" >/dev/null 2>&1; then
    echo "$base"
    return 0
  fi
  local v
  for v in 21 20 19 18 17 16 15 14; do
    if command -v "$base-$v" >/dev/null 2>&1; then
      echo "$base-$v"
      return 0
    fi
  done
  return 1
}

missing_tool() {
  local name="$1" what="$2"
  if [ "$strict" = "1" ]; then
    echo "lint: $name not found — $what REQUIRED under LS_LINT_STRICT=1" >&2
    return 1
  fi
  echo "lint: $name not found — $what skipped" >&2
  return 0
}

clang_tidy="$(find_tool clang-tidy || true)"
clang_format="$(find_tool clang-format || true)"
python3_bin="$(command -v python3 || true)"
status=0
ran_any=0

cxx_sources() {
  find "$repo_root/src" "$repo_root/tests" "$repo_root/tools" \
    "$repo_root/bench" -name '*.cpp' -o -name '*.hpp' | sort
}

if [ -n "$python3_bin" ]; then
  ran_any=1
  echo "== lslint (project rules) over src/ and tests/"
  if ! "$python3_bin" "$repo_root/tools/lslint.py" --self-test; then
    status=1
  fi
  if ! "$python3_bin" "$repo_root/tools/lslint.py" "$repo_root/src" \
      "$repo_root/tests"; then
    status=1
  fi
else
  missing_tool python3 "project-rule lint" || status=1
fi

if [ -n "$clang_format" ]; then
  ran_any=1
  echo "== clang-format ($clang_format) drift check"
  if ! cxx_sources | xargs "$clang_format" --dry-run -Werror; then
    echo "clang-format: drift found — run: $clang_format -i <files>" >&2
    status=1
  fi
else
  missing_tool clang-format "format check" || status=1
fi

if [ -n "$clang_tidy" ]; then
  ran_any=1
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  echo "== clang-tidy ($clang_tidy) over src/ (warnings are errors)"
  # xargs -P parallelizes across TUs; each failure flips the exit status.
  if ! find "$repo_root/src" -name '*.cpp' | sort | xargs -P "$jobs" -I {} \
    "$clang_tidy" -p "$build_dir" --quiet -warnings-as-errors='*' {}; then
    status=1
  fi
else
  missing_tool clang-tidy "static analysis" || status=1
fi

if [ "$ran_any" -eq 0 ] && [ "$status" -eq 0 ]; then
  echo "lint: no lint tools available on this machine; nothing checked" >&2
  exit 0
fi
[ "$status" -eq 0 ] && echo "lint OK"
exit "$status"
