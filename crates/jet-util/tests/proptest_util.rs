//! Property tests for the measurement substrate: the histogram's relative
//! error bound (the paper's p99.99 claims rest on it).

use jet_util::Histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_within_one_percent(
        mut values in proptest::collection::vec(1u64..100_000_000_000, 10..800),
        qs in proptest::collection::vec(0.01f64..1.0, 1..6),
    ) {
        let mut h = Histogram::new(7);
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in qs {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.value_at_quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(
                err < 0.01,
                "q={q}: est {est} exact {exact} err {err}"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *values.last().unwrap());
        prop_assert_eq!(h.min(), values[0]);
    }

    #[test]
    fn histogram_merge_is_exact_union(
        a in proptest::collection::vec(1u64..1_000_000, 0..200),
        b in proptest::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new(6);
        let mut hb = Histogram::new(6);
        let mut hu = Histogram::new(6);
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.1, 0.5, 0.9, 0.999] {
            prop_assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
        }
    }
}
