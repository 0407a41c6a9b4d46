//! The real workspace tree must come up clean — no failing site, no
//! annotation error, no stale escape — so `cargo test` keeps it clean, not
//! only the CI lint step.

use std::path::Path;

#[test]
fn workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = jet_analyze::analyze_workspace(&root).expect("workspace scan");
    assert!(
        a.files_scanned > 30,
        "suspiciously few files scanned: {}",
        a.files_scanned
    );
    assert!(
        a.is_clean() && a.stale_annotations.is_empty() && a.stale_baseline.is_empty(),
        "{}",
        a.render_report()
    );
}
