#!/bin/sh
# Product lines of code, the number simplicity PRs quote: every `*.rs`
# under `crates/` and `src/` outside a `tests/` or `benches/` directory,
# without blank lines, `//` comment lines (incl. `///` and `//!`) and
# `#[cfg(test)]`-gated items. Each such item — a `mod tests { … }` block,
# a test-only fn, const, struct or statement — is skipped from its
# attribute to its closing brace or terminating `;`, and only that item;
# the lines after it count again. Prints the total.
set -eu
cd "$(dirname "$0")/.."
awk '
    # Strips what could hold an unbalanced bracket: comments, string and
    # char literals.
    function code(line) {
        sub(/\/\/.*/, "", line)
        gsub(/"([^"\\]|\\.)*"/, "", line)
        gsub(/'\''([^'\''\\]|\\.)'\''/, "", line)
        return line
    }
    FNR == 1 { skip = 0 }
    !skip && /#\[cfg\(test\)\]/ {
        skip = 1; depth = 0
        $0 = substr($0, index($0, "#[cfg(test)]") + 12)
    }
    skip {
        line = code($0)
        for (i = 1; i <= length(line); i++) {
            c = substr(line, i, 1)
            if (c == "{" || c == "(" || c == "[") depth++
            else if (c == ")" || c == "]") depth--
            else if (c == "}") { if (--depth == 0) { skip = 0; break } }
            else if (c == ";" && depth == 0) { skip = 0; break }
        }
        next
    }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { total++ }
    END { print total }' $(find crates src -name '*.rs' ! -path '*/tests/*' ! -path '*/benches/*' | sort)
