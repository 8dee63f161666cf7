//! `docs/FIGURES.md` is rendered from the code and checked here.
//!
//! Every section of the file is a seeded table of `waku_bench::figures`,
//! and each renders in at most a few seconds at the test profile, so the
//! test renders the whole file (`exp_paper_tables --check` compares the
//! same render in CI). It fails when the file differs, printing the
//! expected file and writing it to `$CARGO_TARGET_TMPDIR/FIGURES.md`.

use std::path::Path;

use waku_bench::figures::{render, Checks, HEADER};

#[test]
fn figures_md_is_the_render_of_the_code() {
    let expected = format!("{HEADER}{}", render(&mut Checks::new(), false));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/FIGURES.md");
    let actual = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("FIGURES.md");
        let _ = std::fs::write(&fresh, &expected);
        panic!(
            "docs/FIGURES.md does not match the render; the expected file \
             (also written to {}) is:\n{expected}",
            fresh.display()
        );
    }
}
