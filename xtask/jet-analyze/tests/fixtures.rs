//! Fixture-driven end-to-end tests: one positive and one negative case per
//! check class, plus a golden test for call-chain rendering and a CLI
//! exit-code check.

use jet_analyze::{analyze_paths, analyze_sources, Analysis, Effect};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze_paths(&[fixture(name)], &[]).expect("fixture readable")
}

fn effects_found(a: &Analysis) -> Vec<Effect> {
    let mut effects: Vec<Effect> = a.violations.iter().map(|v| v.effect).collect();
    effects.dedup();
    effects
}

#[test]
fn alloc_positive_flagged() {
    let a = analyze_fixture("alloc_pos.rs");
    assert!(
        effects_found(&a).contains(&Effect::Alloc),
        "{}",
        a.render_report()
    );
}

#[test]
fn alloc_negative_clean() {
    let a = analyze_fixture("alloc_neg.rs");
    assert!(a.is_clean(), "{}", a.render_report());
}

#[test]
fn block_positive_flagged() {
    let a = analyze_fixture("block_pos.rs");
    assert!(
        effects_found(&a).contains(&Effect::Block),
        "{}",
        a.render_report()
    );
}

#[test]
fn block_negative_clean() {
    let a = analyze_fixture("block_neg.rs");
    assert!(a.is_clean(), "{}", a.render_report());
}

#[test]
fn panic_positive_flagged() {
    let a = analyze_fixture("panic_pos.rs");
    assert!(
        effects_found(&a).contains(&Effect::Panic),
        "{}",
        a.render_report()
    );
}

#[test]
fn panic_negative_clean() {
    let a = analyze_fixture("panic_neg.rs");
    assert!(a.is_clean(), "{}", a.render_report());
}

#[test]
fn instant_positive_flagged() {
    let a = analyze_fixture("instant_pos.rs");
    assert!(
        effects_found(&a).contains(&Effect::Instant),
        "{}",
        a.render_report()
    );
}

#[test]
fn instant_negative_clean() {
    let a = analyze_fixture("instant_neg.rs");
    assert!(a.is_clean(), "{}", a.render_report());
}

#[test]
fn ordering_positive_flagged() {
    let a = analyze_fixture("ordering_pos.rs");
    let v: Vec<_> = a
        .violations
        .iter()
        .filter(|v| v.effect == Effect::Ordering)
        .collect();
    assert_eq!(v.len(), 1, "{}", a.render_report());
    assert!(v[0].in_fn.contains("seq"), "keyed by field: {}", v[0].in_fn);
    assert!(
        v[0].message.contains("Release"),
        "release side named: {}",
        v[0].message
    );
}

#[test]
fn ordering_negative_clean() {
    let a = analyze_fixture("ordering_neg.rs");
    assert!(a.is_clean(), "{}", a.render_report());
}

/// A publish through an `Ordering` const counts for the orderings the const
/// names, so it pairs with the acquire side like a literal `Release`.
#[test]
fn ordering_const_counts_as_its_orderings() {
    let src = |publish: &str| {
        format!(
            "const PUBLISH: Ordering = {publish};\n\
             pub struct Q {{\n    tail: AtomicUsize,\n}}\nimpl Q {{\n    \
             fn publish(&self) {{\n        self.tail.store(1, PUBLISH);\n    }}\n    \
             fn peek(&self) -> usize {{\n        self.tail.load(Ordering::Acquire)\n    }}\n}}\n"
        )
    };
    for (publish, failing) in [
        (
            "if cfg!(weak) { Ordering::Relaxed } else { Ordering::Release }",
            0,
        ),
        ("Ordering::Relaxed", 1),
    ] {
        let a = analyze_sources(&[("q.rs".to_string(), src(publish))], &[]);
        assert_eq!(
            a.violations.len(),
            failing,
            "{publish}:\n{}",
            a.render_report()
        );
    }
}

/// The blocking calls of a tasklet body are flagged one by one: a sleep, a
/// channel receive and a mutex lock.
#[test]
fn block_in_tasklet_body_flagged_per_call() {
    let a = analyze_fixture("block_tasklet_pos.rs");
    let patterns: Vec<&str> = a.violations.iter().map(|v| v.pattern.as_str()).collect();
    assert_eq!(
        patterns,
        ["std::thread::sleep(", ".recv(", ".lock("],
        "{}",
        a.render_report()
    );
}

/// The source-hygiene checks: each positive fixture trips its class, and
/// only it, once per seeded site; each negative fixture is clean and its
/// annotations all suppress something.
#[test]
fn hygiene_checks_flag_seeded_sites_only() {
    for (pos, neg, class, sites) in [
        (
            "ordering_comment_pos.rs",
            "ordering_comment_neg.rs",
            Effect::OrderingComment,
            1,
        ),
        (
            "single_item_pos.rs",
            "single_item_neg.rs",
            Effect::SingleItem,
            2,
        ),
        (
            "metric_name_pos.rs",
            "metric_name_neg.rs",
            Effect::MetricName,
            7,
        ),
        ("metric_dup_pos", "metric_dup_neg", Effect::MetricDup, 1),
        ("span_name_pos.rs", "span_name_neg.rs", Effect::SpanName, 2),
    ] {
        let a = analyze_fixture(pos);
        let classes: Vec<Effect> = a.violations.iter().map(|v| v.effect).collect();
        assert_eq!(classes, vec![class; sites], "{pos}:\n{}", a.render_report());
        let a = analyze_fixture(neg);
        assert!(
            a.is_clean() && a.stale_annotations.is_empty(),
            "{neg}:\n{}",
            a.render_report()
        );
    }
}

/// Every `.intern(` on a line is read, not only the first.
#[test]
fn span_name_second_call_on_a_line_flagged() {
    let a = analyze_fixture("span_name_pos.rs");
    assert!(
        a.violations
            .iter()
            .any(|v| v.line == 6 && v.message.contains("Snapshot_Commit")),
        "{}",
        a.render_report()
    );
}

/// A file-scoped check follows the file name: a relaxed publish needs a
/// reason only in the lock-free files.
#[test]
fn file_scoped_checks_follow_the_file_name() {
    let relaxed = "pub struct Q {\n    tail: AtomicUsize,\n}\nimpl Q {\n    \
                   fn publish(&self) {\n        self.tail.store(1, Ordering::Relaxed);\n    }\n    \
                   fn peek(&self) -> usize {\n        self.tail.load(Ordering::Relaxed)\n    }\n}\n";
    for (label, src, failing) in [("spsc.rs", relaxed, 1), ("metrics.rs", relaxed, 0)] {
        let a = analyze_sources(&[(label.to_string(), src.to_string())], &[]);
        assert_eq!(
            a.violations.len(),
            failing,
            "{label}:\n{}",
            a.render_report()
        );
    }
}

/// An annotation that suppresses nothing is reported, so escapes cannot
/// outlive the code they excused.
#[test]
fn unused_annotations_reported_stale() {
    let src = "// jet-analyze: allow(alloc) — nothing here allocates\nfn f() {}\n\
               fn g() {\n    // jet-analyze: cold — never called\n    h();\n}\n";
    let a = analyze_sources(&[("a.rs".to_string(), src.to_string())], &[]);
    assert_eq!(
        a.stale_annotations,
        ["a.rs:1: allow(alloc)", "a.rs:4: cold"]
    );
    assert!(a.is_clean(), "{}", a.render_report());
}

/// Golden test: the alloc fixture must report the full multi-hop chain
/// from the `Tasklet::call` root down to the allocating call.
#[test]
fn chain_rendering_golden() {
    let a = analyze_fixture("alloc_pos.rs");
    let v = a
        .violations
        .iter()
        .find(|v| v.effect == Effect::Alloc)
        .expect("alloc violation present");
    assert_eq!(
        v.compact_chain(),
        "Producer::call \u{2192} Producer::flush_outbox \u{2192} Outbox::grow \u{2192} .push(",
        "full report:\n{}",
        a.render_report()
    );
    let rendered = v.render();
    for needle in [
        "Producer::call",
        "Producer::flush_outbox",
        "Outbox::grow",
        ".push(",
        "[alloc]",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
}

/// The CLI must exit non-zero when pointed at a seeded violation, for
/// every check class, and report the sites on stdout.
#[test]
fn cli_exit_codes() {
    for (name, expect_fail) in [
        ("alloc_pos.rs", true),
        ("block_pos.rs", true),
        ("panic_pos.rs", true),
        ("instant_pos.rs", true),
        ("ordering_pos.rs", true),
        ("alloc_neg.rs", false),
        ("ordering_neg.rs", false),
        ("block_tasklet_pos.rs", true),
        ("ordering_comment_pos.rs", true),
        ("ordering_comment_neg.rs", false),
        ("single_item_pos.rs", true),
        ("single_item_neg.rs", false),
        ("metric_name_pos.rs", true),
        ("metric_name_neg.rs", false),
        ("metric_dup_pos", true),
        ("metric_dup_neg", false),
        ("span_name_pos.rs", true),
        ("span_name_neg.rs", false),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jet-analyze"))
            .arg("--paths")
            .arg(fixture(name))
            .output()
            .expect("spawn jet-analyze");
        assert_eq!(
            out.status.code(),
            Some(if expect_fail { 1 } else { 0 }),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
