//! The eleven applications of the paper, calibrated.
//!
//! Figure 1A of the paper gives each application's cumulative solo bus
//! transaction rate when run with two threads, sorted in increasing order:
//! Radiosity, Water-nsqr, Volrend, Barnes, FMM, LU CB, BT, SP, MG,
//! Raytrace, CG — "from 0.48 to 23.31 bus transactions per microsecond".
//!
//! Only the two endpoints are stated numerically in the text; the
//! interior values below are **estimates read off the figure's shape**
//! (monotone, with the four rightmost — SP, MG, Raytrace, CG — high enough
//! that two instances push a ~29.5 tx/µs bus into saturation, per §3).
//! Memory-boundness (`mu`) is chosen so each class reproduces its Figure 1B
//! slowdowns; cache sensitivity encodes §3's observations that LU CB
//! (99.53 % L2 hit rate) and Water-nsqr are "very sensitive to thread
//! migrations among processors". LU and Raytrace get non-constant demand
//! shapes because §4 calls their bus requirements "irregular".
//!
//! Absolute runtimes are not reported in the paper; every application
//! instance gets the same solo work volume ([`DEFAULT_SOLO_WORK_US`]),
//! which only scales experiment duration, not any reported ratio.

use crate::app::{AppSpec, Behavior};

/// Default useful work per thread (virtual µs): 6 simulated seconds.
pub const DEFAULT_SOLO_WORK_US: f64 = 6_000_000.0;

/// Default barrier interval (virtual µs) for the paper applications.
/// OpenMP parallel loops and Splash-2 phases synchronize every few tens of
/// milliseconds of computation at these problem sizes. At 100 ms (one
/// Linux quantum of lead), a thread scheduled without its sibling for one
/// quantum mostly keeps working, but persistent de-coscheduling makes it
/// spin — the gang-scheduling motivation of §4 at realistic strength.
pub(crate) const DEFAULT_BARRIER_INTERVAL_US: f64 = 100_000.0;

/// The paper's eleven applications, in Figure 1A order (increasing solo
/// bus-transaction rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PaperApp {
    /// Splash-2 Radiosity — lowest bus demand of the suite.
    Radiosity,
    /// Splash-2 Water-nsquared — low demand, migration sensitive.
    WaterNsqr,
    /// Splash-2 Volrend.
    Volrend,
    /// Splash-2 Barnes.
    Barnes,
    /// Splash-2 FMM.
    Fmm,
    /// NAS LU (cache-blocked) — 99.53 % L2 hit rate, very cache sensitive,
    /// irregular bus pattern.
    LuCb,
    /// NAS BT.
    Bt,
    /// NAS SP — first of the four saturating applications.
    Sp,
    /// NAS MG.
    Mg,
    /// Splash-2 Raytrace — highly irregular, bursty bus pattern.
    Raytrace,
    /// NAS CG — highest bus demand: 23.31 tx/µs with two threads.
    Cg,
}

impl PaperApp {
    /// All eleven, in Figure 1A order.
    pub const ALL: [PaperApp; 11] = [
        PaperApp::Radiosity,
        PaperApp::WaterNsqr,
        PaperApp::Volrend,
        PaperApp::Barnes,
        PaperApp::Fmm,
        PaperApp::LuCb,
        PaperApp::Bt,
        PaperApp::Sp,
        PaperApp::Mg,
        PaperApp::Raytrace,
        PaperApp::Cg,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PaperApp::Radiosity => "Radiosity",
            PaperApp::WaterNsqr => "Water-nsqr",
            PaperApp::Volrend => "Volrend",
            PaperApp::Barnes => "Barnes",
            PaperApp::Fmm => "FMM",
            PaperApp::LuCb => "LU CB",
            PaperApp::Bt => "BT",
            PaperApp::Sp => "SP",
            PaperApp::Mg => "MG",
            PaperApp::Raytrace => "Raytrace",
            PaperApp::Cg => "CG",
        }
    }

    /// Parse a display name (case-insensitive, spaces/dashes ignored).
    pub fn from_name(s: &str) -> Option<Self> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        PaperApp::ALL.into_iter().find(|a| {
            a.name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase()
                == norm
        })
    }

    /// Calibration row: (cumulative 2-thread solo rate tx/µs,
    /// memory-boundness, cache sensitivity, behaviour).
    fn calibration(self) -> (f64, f64, f64, Behavior) {
        match self {
            // (rate_2t, mu, cache_sens, behavior)
            PaperApp::Radiosity => (0.48, 0.04, 0.12, Behavior::Constant),
            PaperApp::WaterNsqr => (1.15, 0.06, 0.45, Behavior::Constant),
            PaperApp::Volrend => (2.40, 0.10, 0.15, Behavior::Constant),
            PaperApp::Barnes => (4.00, 0.16, 0.15, Behavior::Constant),
            PaperApp::Fmm => (6.00, 0.22, 0.15, Behavior::Constant),
            PaperApp::LuCb => (
                7.60,
                0.18,
                0.60,
                Behavior::Oscillating {
                    amplitude: 0.45,
                    period_us: 400_000.0,
                },
            ),
            PaperApp::Bt => (12.00, 0.45, 0.10, Behavior::Constant),
            PaperApp::Sp => (19.50, 0.70, 0.08, Behavior::Constant),
            PaperApp::Mg => (20.50, 0.78, 0.08, Behavior::Constant),
            PaperApp::Raytrace => (21.30, 0.82, 0.10, Behavior::Bursty),
            PaperApp::Cg => (23.31, 0.85, 0.05, Behavior::Constant),
        }
    }
}

/// The [`AppSpec`] for one paper application instance (two threads, as in
/// every experiment of the paper).
pub fn paper_app(which: PaperApp) -> AppSpec {
    let (rate_2t, mu, sens, behavior) = which.calibration();
    AppSpec {
        name: which.name().into(),
        nthreads: 2,
        work_us_per_thread: DEFAULT_SOLO_WORK_US,
        rate_per_thread: rate_2t / 2.0,
        mu,
        cache_sensitivity: sens,
        behavior,
        barrier_interval_us: Some(DEFAULT_BARRIER_INTERVAL_US),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All eleven application specs in Figure 1A order.
    fn paper_apps() -> Vec<AppSpec> {
        PaperApp::ALL.into_iter().map(paper_app).collect()
    }

    #[test]
    fn endpoints_match_the_paper_text() {
        assert_eq!(paper_app(PaperApp::Radiosity).cumulative_rate(), 0.48);
        assert_eq!(paper_app(PaperApp::Cg).cumulative_rate(), 23.31);
    }

    #[test]
    fn rates_are_sorted_increasing_like_figure_1a() {
        let rates: Vec<f64> = paper_apps().iter().map(|a| a.cumulative_rate()).collect();
        for w in rates.windows(2) {
            assert!(w[0] < w[1], "not increasing: {rates:?}");
        }
    }

    #[test]
    fn top_four_saturate_when_doubled() {
        use busbw_sim::PAPER_BUS_TX_PER_US;
        // §3: two instances of SP, MG, Raytrace, CG push the bus (29.5
        // tx/µs sustained) to or past capacity.
        for a in [PaperApp::Sp, PaperApp::Mg, PaperApp::Raytrace, PaperApp::Cg] {
            let double = 2.0 * paper_app(a).cumulative_rate();
            assert!(
                double > PAPER_BUS_TX_PER_US * 1.25,
                "{}: {double}",
                a.name()
            );
        }
        // While the others do not.
        for a in [PaperApp::Radiosity, PaperApp::Volrend, PaperApp::Fmm] {
            let double = 2.0 * paper_app(a).cumulative_rate();
            assert!(double < PAPER_BUS_TX_PER_US, "{}: {double}", a.name());
        }
    }

    #[test]
    fn migration_sensitive_apps_are_marked() {
        assert!(paper_app(PaperApp::LuCb).cache_sensitivity >= 0.5);
        assert!(paper_app(PaperApp::WaterNsqr).cache_sensitivity >= 0.4);
        assert!(paper_app(PaperApp::Cg).cache_sensitivity < 0.2);
    }

    #[test]
    fn irregular_apps_have_non_constant_behavior() {
        assert_ne!(paper_app(PaperApp::Raytrace).behavior, Behavior::Constant);
        assert_ne!(paper_app(PaperApp::LuCb).behavior, Behavior::Constant);
        assert_eq!(paper_app(PaperApp::Cg).behavior, Behavior::Constant);
    }

    #[test]
    fn every_app_uses_two_threads() {
        for a in paper_apps() {
            assert_eq!(a.nthreads, 2, "{}", a.name);
        }
    }

    #[test]
    fn name_roundtrip() {
        for a in PaperApp::ALL {
            assert_eq!(PaperApp::from_name(a.name()), Some(a));
        }
        assert_eq!(PaperApp::from_name("lucb"), Some(PaperApp::LuCb));
        assert_eq!(PaperApp::from_name("water nsqr"), Some(PaperApp::WaterNsqr));
        assert_eq!(PaperApp::from_name("nosuch"), None);
    }
}
