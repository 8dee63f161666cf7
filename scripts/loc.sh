#!/bin/sh
# Product lines of code, the number simplicity PRs quote: every `*.rs`
# under `crates/` and `src/` outside a `tests/` or `benches/` directory,
# each file cut at its first `#[cfg(test)]`, blank lines and `//` comment
# lines (incl. `///` and `//!`) not counted. Prints the total.
set -eu
cd "$(dirname "$0")/.."
awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    cut || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { total++ }
    END { print total }' $(find crates src -name '*.rs' ! -path '*/tests/*' ! -path '*/benches/*' | sort)
