#!/bin/sh
# Product lines of code, the number simplicity PRs quote: every `*.rs`
# under `crates/` and `src/` outside a `tests/` or `benches/` directory,
# without blank lines, `//` comment lines (incl. `///` and `//!`) and
# `#[cfg(test)]`-gated items. Each such item — a `mod tests { … }` block,
# a test-only fn, const, struct or statement — is skipped from its
# attribute to its closing brace or terminating `;`, and only that item;
# the lines after it count again. Prints the total.
#
# `scripts/loc.sh --lines FILE...` prints the counted lines of those files
# instead, each as `file:line:text` (CI greps them for calls that belong
# in one module only).
set -eu
cd "$(dirname "$0")/.."
lines=0
if [ "${1:-}" = --lines ]; then
    lines=1
    shift
else
    set -- $(find crates src -name '*.rs' ! -path '*/tests/*' ! -path '*/benches/*' | sort)
fi
awk -v lines="$lines" '
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
    lines { print FILENAME ":" FNR ":" $0; next }
    { total++ }
    END { if (!lines) print total }' "$@"
