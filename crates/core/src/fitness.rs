//! The fitness metric — Equations (1) and (2) of the paper.
//!
//! ```text
//! Fitness = 1000 / (1 + |ABBW/proc − BBW/thread|)          (1)
//! ```
//!
//! `ABBW/proc` is the *available bus bandwidth per unallocated processor*:
//! total bus bandwidth, minus the requirements of already-allocated
//! applications, divided by the number of processors still free. The
//! closer a candidate's per-thread bandwidth is to it, the fitter the
//! candidate. The paper highlights one emergent property: once the bus is
//! overcommitted, `ABBW/proc` turns **negative** and the application with
//! the lowest `BBW/thread` automatically becomes the fittest.
//!
//! Equation (2) is the same expression evaluated with windowed rates; both
//! policies therefore share this function and differ only in the estimator
//! that produces `BBW/thread`.

/// Equation (1)/(2): fitness of a candidate whose per-thread bandwidth is
/// `bbw_per_thread`, given `abbw_per_proc` available per free processor.
/// Bandwidths are in bus transactions/µs (any consistent unit works).
///
/// ```
/// use busbw_core::fitness;
/// // A perfect bandwidth match scores 1000; distance decays the score.
/// assert_eq!(fitness(7.0, 7.0), 1000.0);
/// assert!(fitness(7.0, 8.0) > fitness(7.0, 20.0));
/// // Overcommitted bus (negative ABBW/proc): the lightest job wins.
/// assert!(fitness(-5.0, 0.1) > fitness(-5.0, 11.0));
/// ```
#[inline]
pub fn fitness(abbw_per_proc: f64, bbw_per_thread: f64) -> f64 {
    1000.0 / (1.0 + (abbw_per_proc - bbw_per_thread).abs())
}

/// `ABBW/proc`: remaining bus bandwidth per unallocated processor.
///
/// * `bus_total` — the system bus bandwidth (tx/µs);
/// * `allocated_bbw` — Σ of the bandwidth requirements of already-admitted
///   applications (tx/µs);
/// * `free_procs` — processors not yet allocated (must be > 0).
///
/// May be negative when the admitted set already overcommits the bus —
/// that is intentional (see module docs).
#[inline]
pub(crate) fn available_bbw_per_proc(bus_total: f64, allocated_bbw: f64, free_procs: usize) -> f64 {
    assert!(
        free_procs > 0,
        "ABBW/proc undefined with no free processors"
    );
    (bus_total - allocated_bbw) / free_procs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match_scores_1000() {
        assert_eq!(fitness(7.0, 7.0), 1000.0);
    }

    #[test]
    fn fitness_decreases_with_distance_symmetrically() {
        let f0 = fitness(10.0, 10.0);
        let f1 = fitness(10.0, 12.0);
        let f2 = fitness(10.0, 8.0);
        let f3 = fitness(10.0, 20.0);
        assert!(f0 > f1);
        assert_eq!(f1, f2);
        assert!(f1 > f3);
    }

    #[test]
    fn paper_example_values() {
        // |ABBW − BBW| = 1 → 500; = 9 → 100.
        assert_eq!(fitness(5.0, 4.0), 500.0);
        assert_eq!(fitness(10.0, 1.0), 100.0);
    }

    #[test]
    fn negative_abbw_prefers_lowest_bandwidth_candidate() {
        // Bus overcommitted: ABBW/proc = −5. The lightest job wins.
        let abbw = -5.0;
        let light = fitness(abbw, 0.1);
        let heavy = fitness(abbw, 11.0);
        assert!(light > heavy);
    }

    #[test]
    fn abbw_per_proc_divides_remaining_bandwidth() {
        assert_eq!(available_bbw_per_proc(29.5, 9.5, 2), 10.0);
        // Overcommitted → negative.
        assert!(available_bbw_per_proc(29.5, 40.0, 1) < 0.0);
    }

    #[test]
    #[should_panic(expected = "no free processors")]
    fn zero_free_procs_panics() {
        available_bbw_per_proc(29.5, 0.0, 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Fitness is bounded by (0, 1000] and maximized at equality.
            #[test]
            fn bounded_and_peaked(a in -100.0f64..100.0, b in 0.0f64..100.0) {
                let f = fitness(a, b);
                prop_assert!(f > 0.0 && f <= 1000.0);
                prop_assert!(f <= fitness(a, a) + 1e-12);
            }

            /// Strictly monotone in |distance|.
            #[test]
            fn monotone_in_distance(a in -50.0f64..50.0, d1 in 0.0f64..50.0, extra in 0.001f64..50.0) {
                let d2 = d1 + extra;
                prop_assert!(fitness(a, a + d1) > fitness(a, a + d2));
                prop_assert!(fitness(a, a - d1) > fitness(a, a - d2));
            }
        }
    }
}
