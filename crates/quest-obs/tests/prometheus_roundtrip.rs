//! Round-trip property suite for the Prometheus exporter/parser pair:
//! adversarial label values — quotes, backslashes, newlines, commas,
//! braces — escape on the way out and decode losslessly on the way back
//! in, with `# HELP` lines accepted throughout. Hostile input of any shape
//! is refused with an error, never a panic.

use proptest::prelude::*;
use quest_obs::{parse_prometheus_text, to_prometheus_text, MetricsRegistry, ParsedSample};

/// Label values over the characters that attack the exposition framing:
/// the escape triple (`"`, `\`, newline) plus the label-block punctuation
/// (`,`, `=`, `{`, `}`) and spaces.
fn hostile_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9\"\\\\\n,={} ]{0,16}"
}

/// Arbitrary bytes, half of them drawn from the exposition's own framing
/// alphabet so generated lines get past the first character checks.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..256),
        "[a-z_#{}=\"\\\\\n,. 0-9+-]{0,96}".prop_map(String::into_bytes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_bytes_never_panic_the_parsers(bytes in hostile_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        // As a whole document, and as the label block and trailing lines of
        // a declared family, so the bytes also reach the sample path.
        for doc in [text.to_string(), format!("# TYPE x counter\nx{{{text}}} 1\n{text}")] {
            if let Ok(samples) = parse_prometheus_text(&doc) {
                for sample in &samples {
                    let _ = sample.label_pairs();
                }
            }
        }
        let sample = ParsedSample {
            name: "x".into(),
            labels: text.into_owned(),
            value: 0.0,
        };
        let _ = sample.label_pairs();
    }

    #[test]
    fn counter_labels_round_trip(
        a in hostile_value(),
        b in hostile_value(),
        count in 0u64..1_000_000,
    ) {
        let r = MetricsRegistry::new();
        r.describe("quest_prop_series_total", "Adversarial series.");
        r.counter_with("quest_prop_series_total", &[("ka", &a), ("kb", &b)])
            .add(count);
        let text = to_prometheus_text(&r.snapshot());
        let samples = parse_prometheus_text(&text).expect("escaped exposition parses");
        let sample = samples
            .iter()
            .find(|s| s.name == "quest_prop_series_total")
            .expect("series present");
        prop_assert_eq!(sample.value, count as f64);
        let pairs = sample.label_pairs().expect("label block decodes");
        prop_assert_eq!(pairs, vec![("ka".to_string(), a), ("kb".to_string(), b)]);
    }

    #[test]
    fn histogram_labels_round_trip_with_le(
        q in hostile_value(),
        values in proptest::collection::vec(1u64..1_000_000, 1..20),
    ) {
        let r = MetricsRegistry::new();
        let h = r.histogram_with("quest_prop_lat_ns", &[("q", &q)]);
        for &v in &values {
            h.record(v);
        }
        let text = to_prometheus_text(&r.snapshot());
        let samples = parse_prometheus_text(&text).expect("escaped exposition parses");
        let count_sample = samples
            .iter()
            .find(|s| s.name == "quest_prop_lat_ns_count")
            .expect("_count present");
        prop_assert_eq!(count_sample.value, values.len() as f64);
        prop_assert_eq!(
            count_sample.label_pairs().expect("decodes"),
            vec![("q".to_string(), q.clone())]
        );
        // Bucket samples carry the synthetic `le` label alongside the
        // hostile one, and the cumulative +Inf bucket equals the count.
        let inf = samples
            .iter()
            .filter(|s| s.name == "quest_prop_lat_ns_bucket")
            .find(|s| {
                s.label_pairs()
                    .is_ok_and(|p| p.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            })
            .expect("+Inf bucket present");
        prop_assert_eq!(inf.value, values.len() as f64);
        prop_assert!(inf
            .label_pairs()
            .expect("decodes")
            .contains(&("q".to_string(), q)));
    }
}
