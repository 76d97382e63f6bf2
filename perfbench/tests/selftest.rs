//! Self-tests of the benchmark's own machinery: statistics, span self time,
//! seeded inputs, the schema check, and agreement with `BENCHMARK.json`.

use datagen::DatasetId;
use perfbench::dataset::{corpus_digest, generate};
use perfbench::metrics::{schema_problems, Absent, Metric, END_TO_END, PER_LAYER};
use perfbench::mix::{Deck, MIX};
use perfbench::stats::{beyond, median, percentile};
use perfbench::trace::{self_times, Span};
use perfbench::workload::Workload;

#[test]
fn nearest_rank_percentile() {
    let v: Vec<u64> = (1..=10).map(|x| x * 10).collect();
    assert_eq!(percentile(&v, 50.0), Some(50));
    assert_eq!(percentile(&v, 90.0), Some(90));
    assert_eq!(percentile(&v, 91.0), Some(100));
    assert_eq!(percentile(&v, 100.0), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(10));
    assert_eq!(percentile(&[7], 90.0), Some(7));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(beyond(&v, 90.0), 1);
    assert_eq!(beyond(&v, 50.0), 5);
    assert_eq!(beyond(&[5, 5, 5, 5], 50.0), 0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 1,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = [
        span(1, None, 0, 100),
        // Two overlapping children cover 10..50, a third 60..70.
        span(2, Some(1), 10, 30),
        span(3, Some(1), 20, 50),
        span(4, Some(1), 60, 70),
        // A grandchild counts against its parent only.
        span(5, Some(2), 12, 18),
        // A child overrunning its parent is clipped to the parent.
        span(6, None, 200, 210),
        span(7, Some(6), 205, 230),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 10, 6, 5, 25]);
}

#[test]
fn same_seed_gives_same_corpus_and_query_order() {
    let a = corpus_digest(&generate(DatasetId::A, 7));
    assert_eq!(a, corpus_digest(&generate(DatasetId::A, 7)));
    assert_ne!(a, corpus_digest(&generate(DatasetId::A, 8)));

    let draw = |seed, lane| {
        let mut d = Deck::new(seed, lane);
        (0..300).map(|_| d.draw()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7, 0), draw(7, 0));
    assert_ne!(draw(7, 0), draw(8, 0));
    assert_ne!(draw(7, 0), draw(7, 1));

    // Every deck deals each key exactly its weight.
    let per_deck: u32 = MIX.iter().map(|m| m.2).sum();
    let seq = draw(7, 0);
    for deck in seq.chunks(per_deck as usize) {
        for (k, m) in MIX.iter().enumerate() {
            assert_eq!(
                deck.iter().filter(|&&x| x == k).count() as u32,
                m.2,
                "key {k}"
            );
        }
    }
}

fn valid_end_to_end() -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: 1.5,
        })
        .collect()
}

#[test]
fn schema_rejects_missing_nan_and_placeholder_zero() {
    let w = Workload::QueryWarm;
    assert!(schema_problems(&END_TO_END, &valid_end_to_end(), &[], w).is_empty());

    let mut zero = valid_end_to_end();
    zero[1].value = 0.0;
    let p = schema_problems(&END_TO_END, &zero, &[], w);
    assert!(
        p.iter()
            .any(|p| p.contains("latency_p50_ms") && p.contains("placeholder")),
        "{p:?}"
    );

    let mut nan = valid_end_to_end();
    nan[0].value = f64::NAN;
    assert!(schema_problems(&END_TO_END, &nan, &[], w)
        .iter()
        .any(|p| p.contains("non-finite")));

    let mut missing = valid_end_to_end();
    missing.pop();
    assert!(schema_problems(&END_TO_END, &missing, &[], w)
        .iter()
        .any(|p| p.contains("missing")));

    let mut wrong_unit = valid_end_to_end();
    wrong_unit[0].unit = "ms";
    assert!(schema_problems(&END_TO_END, &wrong_unit, &[], w)
        .iter()
        .any(|p| p.contains("unit")));

    let absent = [Absent {
        name: "qps",
        reason: "",
    }];
    let p = schema_problems(&END_TO_END, &valid_end_to_end(), &absent, w);
    assert!(p.iter().any(|p| p.contains("without a reason")), "{p:?}");
    assert!(
        p.iter().any(|p| p.contains("both absent and measured")),
        "{p:?}"
    );
}

#[test]
fn layer_zero_is_a_placeholder_only_on_the_workloads_that_use_the_layer() {
    let layers = |v: f64| -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|d| Metric {
                name: d.name,
                unit: d.unit,
                value: if d.name == "client.roundtrip_us" {
                    v
                } else {
                    1.0
                },
            })
            .collect()
    };
    assert!(schema_problems(&PER_LAYER, &layers(0.0), &[], Workload::QueryWarm).is_empty());
    let p = schema_problems(&PER_LAYER, &layers(0.0), &[], Workload::ServeTcp);
    assert!(
        p.iter()
            .any(|p| p.contains("client.roundtrip_us") && p.contains("placeholder")),
        "{p:?}"
    );
    assert!(schema_problems(&PER_LAYER, &layers(12.5), &[], Workload::ServeTcp).is_empty());
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name(), w.why());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
