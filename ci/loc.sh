#!/bin/sh
# Non-test line count of the workspace's Rust sources.
#
# Counts every line of each .rs file under crates/ and src/, up to the
# file's first `#[cfg(test)]`, skipping tests/ and benches/ directories.
# The dependency shims under crates/shims/ are totalled separately.
#
#   ci/loc.sh        # run from the repository root
set -eu

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
        xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

echo "non-test: $(count src crates -not -path 'crates/shims/*')"
echo "shims: $(count crates/shims)"
