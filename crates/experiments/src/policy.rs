//! CLI-composable policy stacks: parse `estimator=…,selector=…,placer=…`
//! into a [`StackSpec`] and build the corresponding
//! [`busbw_core::PolicyStack`].
//!
//! The grammar is a comma-separated list of `stage=value` pairs; omitted
//! stages take the paper defaults (Latest Quantum estimation, head-of-list
//! admission, fitness selection, packed placement, 200 ms quantum):
//!
//! ```text
//! estimator=latest | window[:N] | ewma[:N] | raw | null
//! admission=head | strict | fcfs | widest | open
//! selector=fitness | random[:SEED] | greedy | lookahead | none
//! placer=packed | scatter | smt | pack_local | spread_sockets | migrate
//! quantum=<ms>          (1 ..= MAX_QUANTUM_MS)
//! ```

use busbw_core::estimator::{EwmaEstimator, LatestQuantumEstimator, QuantaWindowEstimator};
use busbw_core::pipeline::{
    Admission, Estimator, Fcfs, FitnessSelector, GreedySelector, HeadOfList, LookaheadSelector,
    MigrateOnSaturationPlacer, NullEstimator, NullSelector, Open, PackLocalPlacer, PackedPlacer,
    Placer, RandomSelector, RawRateEstimator, ReconstructingEstimator, ScatterPlacer, Selector,
    SmtAwarePlacer, SpreadSocketsPlacer, StrictHead, WidestFirst, PAPER_QUANTUM_US,
    PAPER_WINDOW_SAMPLES,
};
use busbw_core::PolicyStack;

/// Longest accepted `quantum=<ms>`: 10⁹ ms, the CLI's longest run
/// (`--duration` ≤ 10⁶ s). A longer quantum never ends inside any run, and
/// in µs it stays far from `u64` overflow.
pub(crate) const MAX_QUANTUM_MS: u64 = 1_000_000_000;

/// Which estimator stage a [`StackSpec`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Latest Quantum (§4) behind the paper's demand reconstruction.
    Latest,
    /// Quanta Window with the given window length, reconstruction included.
    Window(usize),
    /// EWMA matched to the given window length, reconstruction included.
    Ewma(usize),
    /// Raw whole-quantum counter rates, no reconstruction (comparators).
    Raw,
    /// No estimation at all (bandwidth-oblivious stacks).
    Null,
}

/// Which admission stage a [`StackSpec`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Head-of-list: first candidate that fits (the paper's guarantee).
    Head,
    /// Strict head: the literal head or nothing.
    StrictHead,
    /// FCFS: admit in list order while gangs fit.
    Fcfs,
    /// Widest-fitting-first.
    Widest,
    /// Admit nothing; the selector sees the full candidate list.
    Open,
}

/// Which selector stage a [`StackSpec`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// The §4 fitness-maximizing fill.
    Fitness,
    /// Random fill, seeded.
    Random(u64),
    /// Greedy max-measured-bandwidth fill.
    Greedy,
    /// One-step lookahead on the bus model's predicted aggregate value.
    Lookahead,
    /// No further selection beyond what admission produced.
    None,
}

/// Which placer stage a [`StackSpec`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacerKind {
    /// Affinity first, then lowest free cpu (the historical behavior).
    Packed,
    /// Affinity first, then least-loaded core.
    Scatter,
    /// Affinity first, then fully idle cores before sibling sharing.
    Smt,
    /// Socket-aware: keep each gang whole on one socket.
    PackLocal,
    /// Socket-aware: balance threads across sockets' local buses.
    SpreadSockets,
    /// Socket-aware: keep affinity until the local bus saturates, then
    /// migrate to the least-utilized socket.
    Migrate,
}

/// A fully-resolved four-stage stack choice, CLI- and cache-addressable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackSpec {
    /// Estimator stage.
    pub estimator: EstimatorKind,
    /// Admission stage.
    pub admission: AdmissionKind,
    /// Selector stage.
    pub selector: SelectorKind,
    /// Placer stage.
    pub placer: PlacerKind,
    /// Scheduling quantum, µs.
    pub quantum_us: u64,
}

impl Default for StackSpec {
    /// The paper's bus-aware stack: Latest Quantum estimation, head-of-list
    /// admission, fitness selection, packed placement, 200 ms quantum.
    fn default() -> Self {
        Self {
            estimator: EstimatorKind::Latest,
            admission: AdmissionKind::Head,
            selector: SelectorKind::Fitness,
            placer: PlacerKind::Packed,
            quantum_us: PAPER_QUANTUM_US,
        }
    }
}

/// A sample count of at least 1: an estimator over no samples has no
/// estimate.
fn parse_n(value: &str, what: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("{what} count must be at least 1, got {value:?}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {what} count {value:?}")),
    }
}

impl StackSpec {
    /// Parse the `--policy` grammar (see module docs). Unknown stages and
    /// malformed values are errors; omitted stages keep their defaults.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected stage=value, got {part:?}"))?;
            let (head, arg) = match value.split_once(':') {
                Some((h, a)) => (h, Some(a)),
                None => (value, None),
            };
            let takes_arg = matches!(
                (key, head),
                ("estimator", "window" | "ewma") | ("selector", "random")
            );
            if arg.is_some() && !takes_arg {
                return Err(format!("{key}={head} takes no ':' argument, got {part:?}"));
            }
            match (key, head) {
                ("estimator", "latest") => spec.estimator = EstimatorKind::Latest,
                ("estimator", "window") => {
                    let n = arg.map_or(Ok(PAPER_WINDOW_SAMPLES), |a| parse_n(a, "window"))?;
                    spec.estimator = EstimatorKind::Window(n);
                }
                ("estimator", "ewma") => {
                    let n = arg.map_or(Ok(PAPER_WINDOW_SAMPLES), |a| parse_n(a, "ewma"))?;
                    spec.estimator = EstimatorKind::Ewma(n);
                }
                ("estimator", "raw") => spec.estimator = EstimatorKind::Raw,
                ("estimator", "null") => spec.estimator = EstimatorKind::Null,
                ("admission", "head") => spec.admission = AdmissionKind::Head,
                ("admission", "strict") => spec.admission = AdmissionKind::StrictHead,
                ("admission", "fcfs") => spec.admission = AdmissionKind::Fcfs,
                ("admission", "widest") => spec.admission = AdmissionKind::Widest,
                ("admission", "open") => spec.admission = AdmissionKind::Open,
                ("selector", "fitness") => spec.selector = SelectorKind::Fitness,
                ("selector", "random") => {
                    let seed = arg.map_or(Ok(42), |a| {
                        a.parse().map_err(|_| format!("bad random seed {a:?}"))
                    })?;
                    spec.selector = SelectorKind::Random(seed);
                }
                ("selector", "greedy") => spec.selector = SelectorKind::Greedy,
                ("selector", "lookahead") => spec.selector = SelectorKind::Lookahead,
                ("selector", "none") => spec.selector = SelectorKind::None,
                ("placer", "packed") => spec.placer = PlacerKind::Packed,
                ("placer", "scatter") => spec.placer = PlacerKind::Scatter,
                ("placer", "smt") => spec.placer = PlacerKind::Smt,
                ("placer", "pack_local") => spec.placer = PlacerKind::PackLocal,
                ("placer", "spread_sockets") => spec.placer = PlacerKind::SpreadSockets,
                ("placer", "migrate") => spec.placer = PlacerKind::Migrate,
                ("quantum", ms) => {
                    let ms: u64 = ms.parse().map_err(|_| format!("bad quantum (ms) {ms:?}"))?;
                    if ms == 0 {
                        return Err("quantum must be positive".into());
                    }
                    spec.quantum_us = ms
                        .checked_mul(1000)
                        .filter(|_| ms <= MAX_QUANTUM_MS)
                        .ok_or_else(|| format!("quantum {ms} ms exceeds {MAX_QUANTUM_MS} ms"))?;
                }
                _ => return Err(format!("unknown stage setting {part:?}")),
            }
        }
        Ok(spec)
    }

    /// Short display label, e.g. `latest+head+fitness+packed`.
    pub(crate) fn label(&self) -> String {
        let est = match self.estimator {
            EstimatorKind::Latest => "latest".into(),
            EstimatorKind::Window(n) => format!("window{n}"),
            EstimatorKind::Ewma(n) => format!("ewma{n}"),
            EstimatorKind::Raw => "raw".into(),
            EstimatorKind::Null => "null".into(),
        };
        let adm = match self.admission {
            AdmissionKind::Head => "head",
            AdmissionKind::StrictHead => "strict",
            AdmissionKind::Fcfs => "fcfs",
            AdmissionKind::Widest => "widest",
            AdmissionKind::Open => "open",
        };
        let sel = match self.selector {
            SelectorKind::Fitness => "fitness".into(),
            SelectorKind::Random(seed) => format!("random{seed}"),
            SelectorKind::Greedy => "greedy".into(),
            SelectorKind::Lookahead => "lookahead".into(),
            SelectorKind::None => "none".into(),
        };
        let pl = match self.placer {
            PlacerKind::Packed => "packed",
            PlacerKind::Scatter => "scatter",
            PlacerKind::Smt => "smt",
            PlacerKind::PackLocal => "pack_local",
            PlacerKind::SpreadSockets => "spread_sockets",
            PlacerKind::Migrate => "migrate",
        };
        let mut s = format!("{est}+{adm}+{sel}+{pl}");
        if self.quantum_us != PAPER_QUANTUM_US {
            s.push_str(&format!("@{}ms", self.quantum_us / 1000));
        }
        s
    }

    /// Build the stack. Bandwidth-aware estimators are wrapped in the
    /// paper's demand-reconstruction path with two samples per quantum.
    pub(crate) fn build(&self) -> PolicyStack {
        let estimator: Box<dyn Estimator> = match self.estimator {
            EstimatorKind::Latest => Box::new(ReconstructingEstimator::new(Box::new(
                LatestQuantumEstimator::new(),
            ))),
            EstimatorKind::Window(n) => Box::new(ReconstructingEstimator::new(Box::new(
                QuantaWindowEstimator::with_window(n),
            ))),
            EstimatorKind::Ewma(n) => Box::new(ReconstructingEstimator::new(Box::new(
                EwmaEstimator::matching_window(n),
            ))),
            EstimatorKind::Raw => Box::new(RawRateEstimator::new()),
            EstimatorKind::Null => Box::new(NullEstimator),
        };
        let admission: Box<dyn Admission> = match self.admission {
            AdmissionKind::Head => Box::new(HeadOfList),
            AdmissionKind::StrictHead => Box::new(StrictHead),
            AdmissionKind::Fcfs => Box::new(Fcfs),
            AdmissionKind::Widest => Box::new(WidestFirst),
            AdmissionKind::Open => Box::new(Open),
        };
        let selector: Box<dyn Selector> = match self.selector {
            SelectorKind::Fitness => Box::new(FitnessSelector),
            SelectorKind::Random(seed) => Box::new(RandomSelector::new(seed)),
            SelectorKind::Greedy => Box::new(GreedySelector),
            SelectorKind::Lookahead => Box::new(LookaheadSelector),
            SelectorKind::None => Box::new(NullSelector),
        };
        let placer: Box<dyn Placer> = match self.placer {
            PlacerKind::Packed => Box::new(PackedPlacer),
            PlacerKind::Scatter => Box::new(ScatterPlacer),
            PlacerKind::Smt => Box::new(SmtAwarePlacer),
            PlacerKind::PackLocal => Box::new(PackLocalPlacer),
            PlacerKind::SpreadSockets => Box::new(SpreadSocketsPlacer),
            PlacerKind::Migrate => Box::new(MigrateOnSaturationPlacer),
        };
        PolicyStack::new(
            self.label(),
            self.quantum_us,
            estimator,
            admission,
            selector,
            placer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::Scheduler;

    #[test]
    fn empty_string_is_the_paper_default() {
        assert_eq!(StackSpec::parse("").unwrap(), StackSpec::default());
        assert_eq!(StackSpec::default().quantum_us, 200_000);
    }

    #[test]
    fn full_grammar_round_trips() {
        let s = StackSpec::parse(
            "estimator=window:7,admission=fcfs,selector=random:9,placer=smt,quantum=100",
        )
        .unwrap();
        assert_eq!(s.estimator, EstimatorKind::Window(7));
        assert_eq!(s.admission, AdmissionKind::Fcfs);
        assert_eq!(s.selector, SelectorKind::Random(9));
        assert_eq!(s.placer, PlacerKind::Smt);
        assert_eq!(s.quantum_us, 100_000);
        assert_eq!(s.label(), "window7+fcfs+random9+smt@100ms");
    }

    #[test]
    fn quantum_is_bounded_without_overflow() {
        for bad in ["quantum=18446744073709552", "quantum=18446744073709551615"] {
            assert!(StackSpec::parse(bad).is_err(), "{bad} should fail");
        }
        let max = StackSpec::parse(&format!("quantum={MAX_QUANTUM_MS}")).unwrap();
        assert_eq!(max.quantum_us, MAX_QUANTUM_MS * 1000);
        assert_eq!(
            max.label(),
            format!("latest+head+fitness+packed@{MAX_QUANTUM_MS}ms")
        );
        assert!(StackSpec::parse(&format!("quantum={}", MAX_QUANTUM_MS + 1)).is_err());
    }

    #[test]
    fn socket_aware_placers_round_trip() {
        for (text, kind) in [
            ("pack_local", PlacerKind::PackLocal),
            ("spread_sockets", PlacerKind::SpreadSockets),
            ("migrate", PlacerKind::Migrate),
        ] {
            let s = StackSpec::parse(&format!("placer={text}")).unwrap();
            assert_eq!(s.placer, kind);
            assert_eq!(s.label(), format!("latest+head+fitness+{text}"));
        }
    }

    #[test]
    fn defaulted_arguments_use_paper_constants() {
        let s = StackSpec::parse("estimator=window").unwrap();
        assert_eq!(s.estimator, EstimatorKind::Window(PAPER_WINDOW_SAMPLES));
        let s = StackSpec::parse("selector=random").unwrap();
        assert_eq!(s.selector, SelectorKind::Random(42));
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        for bad in [
            "estimator=psychic",
            "selector",
            "quantum=0",
            "quantum=abc",
            "estimator=window:x",
            "estimator=window:0",
            "estimator=ewma:0",
            "placer=moon",
            "estimator=latest:3",
            "placer=packed:",
            "quantum=100:5",
        ] {
            assert!(StackSpec::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn every_stage_combination_builds_and_schedules() {
        let ests = [
            EstimatorKind::Latest,
            EstimatorKind::Window(5),
            EstimatorKind::Ewma(5),
            EstimatorKind::Raw,
            EstimatorKind::Null,
        ];
        let adms = [
            AdmissionKind::Head,
            AdmissionKind::StrictHead,
            AdmissionKind::Fcfs,
            AdmissionKind::Widest,
            AdmissionKind::Open,
        ];
        let sels = [
            SelectorKind::Fitness,
            SelectorKind::Random(1),
            SelectorKind::Greedy,
            SelectorKind::Lookahead,
            SelectorKind::None,
        ];
        let pls = [
            PlacerKind::Packed,
            PlacerKind::Scatter,
            PlacerKind::Smt,
            PlacerKind::PackLocal,
            PlacerKind::SpreadSockets,
            PlacerKind::Migrate,
        ];
        let m = busbw_sim::Machine::new(busbw_sim::XEON_4WAY);
        for e in ests {
            for a in adms {
                for sel in sels {
                    for p in pls {
                        let spec = StackSpec {
                            estimator: e,
                            admission: a,
                            selector: sel,
                            placer: p,
                            quantum_us: 200_000,
                        };
                        let mut stack = spec.build();
                        let d = stack.schedule(&m.view());
                        assert!(d.assignments.is_empty(), "{}", spec.label());
                    }
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// `spec` in the `--policy` grammar, every stage spelled out.
        fn grammar(spec: &StackSpec) -> String {
            let est = match spec.estimator {
                EstimatorKind::Latest => "latest".to_string(),
                EstimatorKind::Window(n) => format!("window:{n}"),
                EstimatorKind::Ewma(n) => format!("ewma:{n}"),
                EstimatorKind::Raw => "raw".to_string(),
                EstimatorKind::Null => "null".to_string(),
            };
            let adm = match spec.admission {
                AdmissionKind::Head => "head",
                AdmissionKind::StrictHead => "strict",
                AdmissionKind::Fcfs => "fcfs",
                AdmissionKind::Widest => "widest",
                AdmissionKind::Open => "open",
            };
            let sel = match spec.selector {
                SelectorKind::Fitness => "fitness".to_string(),
                SelectorKind::Random(seed) => format!("random:{seed}"),
                SelectorKind::Greedy => "greedy".to_string(),
                SelectorKind::Lookahead => "lookahead".to_string(),
                SelectorKind::None => "none".to_string(),
            };
            let pl = match spec.placer {
                PlacerKind::Packed => "packed",
                PlacerKind::Scatter => "scatter",
                PlacerKind::Smt => "smt",
                PlacerKind::PackLocal => "pack_local",
                PlacerKind::SpreadSockets => "spread_sockets",
                PlacerKind::Migrate => "migrate",
            };
            let ms = spec.quantum_us / 1000;
            format!("estimator={est},admission={adm},selector={sel},placer={pl},quantum={ms}")
        }

        /// Either an error, or a spec whose spelled-out grammar parses
        /// back to the same spec and label.
        fn fails_or_round_trips(text: &str) {
            if let Ok(spec) = StackSpec::parse(text) {
                let written = grammar(&spec);
                let again = StackSpec::parse(&written)
                    .unwrap_or_else(|e| panic!("{text:?} wrote {written:?}: {e}"));
                prop_assert_eq!(again, spec, "{:?} via {:?}", text, written);
                prop_assert_eq!(again.label(), spec.label());
            }
        }

        /// The grammar's own alphabet: each stage with its values, and the
        /// arguments and strays drawn beside them (numbers at and past
        /// their bounds, signs, empty strings, separators).
        const STAGES: [(&str, &[&str]); 5] = [
            ("estimator", &["latest", "window", "ewma", "raw", "null"]),
            ("admission", &["head", "strict", "fcfs", "widest", "open"]),
            (
                "selector",
                &["fitness", "random", "greedy", "lookahead", "none"],
            ),
            (
                "placer",
                &[
                    "packed",
                    "scatter",
                    "smt",
                    "pack_local",
                    "spread_sockets",
                    "migrate",
                ],
            ),
            (
                "quantum",
                &["1", "200", "1000000000", "1000000001", "0", "-1"],
            ),
        ];
        const ARGS: &[&str] = &[
            "0",
            "1",
            "7",
            "+5",
            "-1",
            "18446744073709551615",
            "18446744073709551616",
            "",
            "x",
            ":",
            "=",
            "é",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn arbitrary_bytes_fail_or_round_trip(
                bytes in prop::collection::vec(any::<u8>(), 0..48),
            ) {
                fails_or_round_trips(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn grammar_shaped_specs_fail_or_round_trip(
                parts in prop::collection::vec(
                    (0..STAGES.len(), any::<u8>(), 0..ARGS.len(), any::<u8>()),
                    1..6,
                ),
            ) {
                // Mostly `stage=value` or `stage=value:arg`, now and then
                // a stage with a stray value or no value at all.
                let text: Vec<String> = parts
                    .iter()
                    .map(|&(k, v, a, shape)| {
                        let (key, values) = STAGES[k];
                        let value = values[v as usize % values.len()];
                        match shape % 8 {
                            0 | 1 => format!("{key}={value}:{}", ARGS[a]),
                            2 => format!("{key}={}", ARGS[a]),
                            3 => key.to_string(),
                            _ => format!("{key}={value}"),
                        }
                    })
                    .collect();
                fails_or_round_trips(&text.join(","));
            }
        }
    }
}
