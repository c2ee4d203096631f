//! Property tests for the open-arrival workload generator.
//!
//! The overload experiments (E18/E19) replay generated arrival streams into
//! the deterministic simulator, so the generator itself must be deterministic
//! from its seed — byte-identical traces on every call, independent of how
//! many harness jobs or event shards later consume them — and its statistics
//! must be trustworthy: bounded-Pareto sizes inside their bounds, and the
//! rate curve's exact integral matching what the thinning sampler realises.

use proptest::prelude::*;
use tacoma_net::time::{Duration, SimTime};
use tacoma_net::workload::{OpenWorkload, RateCurve, SizeDist};
use tacoma_util::{DetRng, SiteId};

fn workload(seed: u64, sites: u32, base_hz: f64, weights: Vec<f64>) -> OpenWorkload {
    OpenWorkload {
        sites,
        horizon: Duration::from_secs(5),
        curve: RateCurve::diurnal(base_hz, weights, Duration::from_secs(2)),
        crowds: Vec::new(),
        sizes: SizeDist::default(),
        users: 1_000_000,
        seed,
    }
}

proptest! {
    /// Same seed, same configuration: the rendered event trace is
    /// byte-identical on every call.  This is the generator's half of the
    /// `--jobs` determinism contract — the stream handed to the
    /// simulator never depends on who asks or how often.
    #[test]
    fn same_seed_renders_byte_identical_traces(
        seed in 0u64..1_000_000,
        sites in 1u32..12,
        base_hz_deci in 10u64..600,
    ) {
        let w = workload(seed, sites, base_hz_deci as f64 / 10.0, vec![0.5, 1.0, 1.5]);
        let a = OpenWorkload::render_trace(&w.generate());
        let b = OpenWorkload::render_trace(&w.generate());
        prop_assert_eq!(a.as_bytes(), b.as_bytes());
    }

    /// Arrivals come out sorted by (time, site) with every field in range —
    /// the order the simulator's timer pre-load relies on.
    #[test]
    fn arrivals_are_sorted_and_in_range(
        seed in 0u64..1_000_000,
        sites in 1u32..10,
    ) {
        let w = workload(seed, sites, 20.0, vec![1.0, 2.0]);
        let arrivals = w.generate();
        for pair in arrivals.windows(2) {
            prop_assert!((pair[0].at, pair[0].site) <= (pair[1].at, pair[1].site));
        }
        for a in &arrivals {
            prop_assert!(a.site.0 < sites);
            prop_assert!(a.at.micros() < w.horizon.micros());
            prop_assert!(a.user < w.users);
            prop_assert!(a.bytes >= w.sizes.min_bytes && a.bytes <= w.sizes.max_bytes);
        }
    }

    /// Bounded-Pareto samples respect their bounds for arbitrary shapes and
    /// intervals, including degenerate ones.
    #[test]
    fn bounded_pareto_stays_in_bounds(
        seed in 0u64..1_000_000,
        alpha_milli in 200u64..3_000,
        lo in 1u64..10_000,
        span in 0u64..100_000,
    ) {
        let dist = SizeDist {
            alpha: alpha_milli as f64 / 1000.0,
            min_bytes: lo,
            max_bytes: lo + span,
        };
        let mut rng = DetRng::new(seed);
        for _ in 0..200 {
            let s = dist.sample(&mut rng);
            prop_assert!(s >= dist.min_bytes && s <= dist.max_bytes);
        }
    }

    /// The rate curve's exact integral predicts the realised arrival count:
    /// thinning a Poisson process at the curve keeps the mean, so the count
    /// must land within a generous statistical band of the expectation.
    #[test]
    fn realized_arrivals_match_the_curve_integral(
        seed in 0u64..1_000_000,
        base_hz in 10u64..80,
        w0 in 1u64..4,
        w1 in 0u64..4,
    ) {
        let w = workload(seed, 4, base_hz as f64, vec![w0 as f64, w1 as f64]);
        let expected_per_site = w.curve.expected_arrivals(w.horizon);
        let expected = expected_per_site * 4.0;
        let got = w.generate().len() as f64;
        // ±6 sigma of a Poisson(expected) plus slack for tiny expectations.
        let tolerance = 6.0 * expected.sqrt() + 12.0;
        prop_assert!(
            (got - expected).abs() <= tolerance,
            "expected ~{expected:.0} arrivals, generated {got} (tolerance {tolerance:.0})"
        );
    }

    /// Per-site sub-streams are independent: adding a site never perturbs
    /// the arrivals of existing sites.
    #[test]
    fn adding_a_site_never_perturbs_existing_streams(
        seed in 0u64..1_000_000,
        sites in 1u32..8,
    ) {
        let small = workload(seed, sites, 15.0, vec![1.0]);
        let large = workload(seed, sites + 1, 15.0, vec![1.0]);
        let from_small: Vec<_> = small.generate();
        let from_large: Vec<_> = large
            .generate()
            .into_iter()
            .filter(|a| a.site.0 < sites)
            .collect();
        prop_assert_eq!(from_small, from_large);
    }
}

#[test]
fn flash_crowd_multiplies_only_its_window() {
    use tacoma_net::workload::FlashCrowd;
    let quiet = workload(9, 4, 20.0, vec![1.0]);
    let mut crowded = quiet.clone();
    crowded.crowds = vec![FlashCrowd {
        first_site: SiteId(1),
        sites: 2,
        start: SimTime(1_000_000),
        duration: Duration::from_secs(1),
        multiplier: 10.0,
    }];
    let base = quiet.generate();
    let with_crowd = crowded.generate();
    let count = |arrivals: &[tacoma_net::workload::Arrival], site: u32, lo: u64, hi: u64| {
        arrivals
            .iter()
            .filter(|a| a.site.0 == site && a.at.0 >= lo && a.at.0 < hi)
            .count()
    };
    // Inside the window at a crowd site: roughly 10x the arrivals.
    let burst = count(&with_crowd, 1, 1_000_000, 2_000_000);
    let calm = count(&base, 1, 1_000_000, 2_000_000);
    assert!(
        burst > calm * 4,
        "crowd window must spike ({burst} vs {calm})"
    );
    // Outside the crowd's sites the stream realises the same rate process
    // (thinning at a higher peak resamples, so compare counts, not traces).
    let out_crowd = count(&with_crowd, 0, 0, 5_000_000) as f64;
    let out_base = count(&base, 0, 0, 5_000_000) as f64;
    assert!(
        (out_crowd - out_base).abs() <= 6.0 * out_base.sqrt() + 12.0,
        "non-crowd site rate must be unchanged ({out_crowd} vs {out_base})"
    );
}
