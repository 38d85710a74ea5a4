//! Runs every workload once at a tiny size and holds the output to the
//! contract in `BENCHMARK.json`.

use busbw_ledger::{layer_moves, run, Config, Metric, Report, Workload};
use busbw_trace::json::{parse, Value};

fn benchmark() -> Value {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(bench: &'a Value, key: &str) -> &'a [Value] {
    bench
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists `{key}`"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{entry:?} has a string `{key}`"))
}

/// A run of `workload` at a fifth of the benchmark's work volume, timed
/// for long enough that the 10 ms CPU clock advances. Pinned digests hold
/// at full size only.
fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        size: 0.2,
        expect: None,
        ..Config::new(workload, 42, 0.3, trace)
    }
}

fn metric<'a>(report: &'a Report, name: &str) -> &'a Metric {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is reported"))
}

/// The reported metrics must be exactly `expected`, in order, each with
/// its unit.
fn assert_matches(report: &Report, expected: &[Value], what: &str) {
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let want: Vec<(&str, &str)> = expected
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    assert_eq!(got, want, "{what}");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn names_and_counts_follow_the_contract() {
    let bench = benchmark();
    let e2e = entries(&bench, "end_to_end");
    let layers = entries(&bench, "per_layer");
    assert!(
        !e2e.is_empty() && e2e.len() <= 16,
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        !layers.is_empty() && layers.len() <= 128,
        "{} per-layer metrics",
        layers.len()
    );
    let workloads: Vec<&str> = entries(&bench, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let e2e_names: Vec<&str> = e2e.iter().map(|e| field(e, "name")).collect();
    let mut all: Vec<&str> = e2e_names.clone();
    for e in layers {
        let name = field(e, "name");
        all.push(name);
        let (moves, on) = layer_moves(name).unwrap_or_else(|| panic!("{name} names what it moves"));
        assert!(
            e2e_names.contains(&moves),
            "{name} moves unknown metric {moves}"
        );
        for w in on {
            assert!(workloads.contains(w), "{name} moves unknown workload {w}");
        }
    }
    for name in all.iter().chain(&workloads) {
        let first = name.chars().next().expect("names are not empty");
        assert!(
            name.len() <= 64
                && first.is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name `{name}`"
        );
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "metric names are unique");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    for workload in Workload::ALL {
        let name = workload.name();
        let report = run(&tiny(workload, false));
        assert!(report.correct, "{name}: {:?}", report.errors);
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted > 0, "{name}");
        assert_matches(&report, entries(&bench, "end_to_end"), name);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{name}: {} must not be 0", m.name);
        }
        assert!(
            report.spans.spans().is_empty(),
            "{name}: untraced runs keep no spans"
        );

        let traced = run(&tiny(workload, true));
        assert!(traced.correct, "{name} traced: {:?}", traced.errors);
        assert_eq!(
            traced.digest, report.digest,
            "{name}: tracing changed the figures"
        );
        assert_matches(&traced, entries(&bench, "per_layer"), name);
        // Span self times account for at least 95 % of each pass.
        assert!(
            metric(&traced, "trace.unattributed_frac").value <= 0.05,
            "{name}"
        );
        match workload {
            Workload::SweepWarm => {
                assert_eq!(metric(&traced, "cache.hit_frac").value, 1.0);
                assert_eq!(metric(&traced, "pool.executed").value, 0.0);
            }
            Workload::SweepCold => assert_eq!(metric(&traced, "cache.hits").value, 0.0),
            _ => {}
        }
    }
}

#[test]
fn a_flipped_digest_fails_the_run() {
    let good = run(&tiny(Workload::Topo, false));
    assert!(good.correct, "{:?}", good.errors);
    let flipped = good.digest ^ 1;
    let bad = run(&Config {
        expect: Some(flipped),
        ..tiny(Workload::Topo, false)
    });
    assert!(!bad.correct);
    assert_eq!(
        bad.failed, bad.attempted,
        "every pass disagrees with the flipped digest"
    );
    let expected = format!("expected {flipped:016x}");
    assert!(
        bad.errors.iter().all(|e| e.contains(&expected)),
        "{:?}",
        bad.errors
    );
    assert!(bad.to_json().starts_with("{\"correct\": false,"));
}

#[test]
fn pinned_digests_cover_both_seeds_of_every_workload() {
    for workload in Workload::ALL {
        for seed in [42, 7] {
            assert!(
                busbw_ledger::pinned_digest(workload, seed).is_some(),
                "{} seed {seed}",
                workload.name()
            );
        }
    }
}
