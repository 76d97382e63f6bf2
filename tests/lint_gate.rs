//! Lint gate: plain `cargo test` fails when the workspace breaks one of the
//! repo-specific lint rules (the same findings `cargo run -p xtask -- lint`
//! prints; see `ARCHITECTURE.md`, *Static analysis & race checking*).

use std::path::Path;

#[test]
fn workspace_passes_the_xtask_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = xtask::lint::lint_workspace(root).expect("the lint runs over the workspace");
    let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert!(report.is_empty(), "lint violations:\n{}", report.join("\n"));
}
