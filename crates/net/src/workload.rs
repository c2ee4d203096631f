//! Open-arrival workload generation: users as rate processes.
//!
//! The closed workloads of E1–E17 inject a fixed batch and drain to zero;
//! an open system never drains.  This module generates deterministic
//! per-site arrival streams — "millions of users" modeled as rates, never as
//! resident objects — with three realistic ingredients:
//!
//! * **heavy-tailed sizes**: job/mail payloads drawn from a bounded Pareto
//!   ([`tacoma_util::DetRng::bounded_pareto`]), so most arrivals are small
//!   but the tail carries most of the bytes;
//! * **diurnal rate curves**: a piecewise-constant multiplier over a
//!   configurable "day", exact to integrate (no transcendental functions, so
//!   traces are bit-stable everywhere);
//! * **regional flash crowds**: a multiplicative burst over a site range for
//!   a window — the overload E18/E19 drive against the backpressure layer.
//!
//! Generation is a *pure function* of the [`OpenWorkload`] spec: every site's
//! stream comes from its own [`tacoma_util::DetRng::derive`]d sub-stream, so
//! the merged trace is byte-identical regardless of how many harness workers
//! (`--jobs`) later consume it.  Arrivals of a
//! non-homogeneous Poisson process are produced by thinning a homogeneous
//! process at the peak rate.

use crate::time::{Duration, SimTime};
use tacoma_util::{DetRng, SiteId};

/// A piecewise-constant diurnal rate multiplier.
///
/// The "day" of length `day` is split into `weights.len()` equal slots; the
/// instantaneous arrival rate at time `t` is `base_hz *
/// weights[slot(t mod day)]`.  Piecewise-constant slots keep the curve's
/// integral exact, which the rate-curve property test exploits.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCurve {
    /// Baseline arrival rate per site, in arrivals per simulated second.
    pub base_hz: f64,
    /// Per-slot multipliers over one day (all must be ≥ 0; empty means a
    /// flat multiplier of 1).
    pub weights: Vec<f64>,
    /// Length of one diurnal cycle.
    pub day: Duration,
}

impl RateCurve {
    /// A flat curve: `base_hz` arrivals per second, no diurnal shape.
    pub fn flat(base_hz: f64) -> Self {
        RateCurve {
            base_hz,
            weights: Vec::new(),
            day: Duration::from_secs(1),
        }
    }

    /// A curve with explicit slot weights over a day of the given length.
    pub fn diurnal(base_hz: f64, weights: Vec<f64>, day: Duration) -> Self {
        assert!(!weights.is_empty(), "diurnal curve needs at least one slot");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "diurnal weights must be finite and non-negative"
        );
        assert!(day.micros() > 0, "diurnal day must be positive");
        RateCurve {
            base_hz,
            weights,
            day,
        }
    }

    /// The multiplier in effect at `t` (1.0 for a flat curve).
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        if self.weights.is_empty() {
            return 1.0;
        }
        let day_us = self.day.micros();
        let into_day = t.micros() % day_us;
        let slot = (into_day as u128 * self.weights.len() as u128 / day_us as u128) as usize;
        self.weights[slot.min(self.weights.len() - 1)]
    }

    /// The instantaneous rate (arrivals/sec) at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.base_hz * self.multiplier_at(t)
    }

    /// The largest multiplier anywhere on the curve.
    pub fn peak_multiplier(&self) -> f64 {
        if self.weights.is_empty() {
            1.0
        } else {
            self.weights.iter().copied().fold(0.0, f64::max)
        }
    }

    /// Exact integral of the rate over `[0, horizon)`: the expected number of
    /// arrivals for one site (before any flash-crowd boost).
    pub fn expected_arrivals(&self, horizon: Duration) -> f64 {
        if self.weights.is_empty() {
            return self.base_hz * horizon.micros() as f64 / 1e6;
        }
        let day_us = self.day.micros() as f64;
        let slot_us = day_us / self.weights.len() as f64;
        let mut total_us = 0.0;
        let horizon_us = horizon.micros() as f64;
        let full_days = (horizon.micros() / self.day.micros()) as f64;
        let day_weight_us: f64 = self.weights.iter().map(|w| w * slot_us).sum();
        total_us += full_days * day_weight_us;
        // The trailing partial day, slot by slot.
        let mut rem = horizon_us - full_days * day_us;
        for w in &self.weights {
            if rem <= 0.0 {
                break;
            }
            let span = rem.min(slot_us);
            total_us += w * span;
            rem -= span;
        }
        self.base_hz * total_us / 1e6
    }
}

/// A regional flash crowd: a multiplicative rate boost over a contiguous
/// site range for a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// First site of the crowded region.
    pub first_site: SiteId,
    /// Number of sites in the region.
    pub sites: u32,
    /// When the crowd starts.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: Duration,
    /// Rate multiplier while active (≥ 1 for a burst; < 1 models brown-outs).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Whether the crowd covers `site` at time `t`.
    pub fn covers(&self, site: SiteId, t: SimTime) -> bool {
        site >= self.first_site
            && site.0 < self.first_site.0 + self.sites
            && t >= self.start
            && t < self.start + self.duration
    }
}

/// Heavy-tailed payload size distribution: bounded Pareto over
/// `[min_bytes, max_bytes]` with shape `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDist {
    /// Pareto shape (1.1–1.5 is the classic heavy-tail regime).
    pub alpha: f64,
    /// Smallest payload, bytes.
    pub min_bytes: u64,
    /// Largest payload, bytes.
    pub max_bytes: u64,
}

impl SizeDist {
    /// Draws one payload size.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        rng.bounded_pareto(self.alpha, self.min_bytes as f64, self.max_bytes as f64) as u64
    }
}

impl Default for SizeDist {
    fn default() -> Self {
        SizeDist {
            alpha: 1.3,
            min_bytes: 256,
            max_bytes: 64 * 1024,
        }
    }
}

/// One generated arrival: when, where, and how big.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time.
    pub at: SimTime,
    /// Site the arrival lands on.
    pub site: SiteId,
    /// Heavy-tailed payload size, bytes.
    pub bytes: u64,
    /// Deterministic per-arrival user id (a rate-process stand-in for "one
    /// of millions of users", never a resident object).
    pub user: u64,
}

/// Specification of an open-arrival workload.
#[derive(Debug, Clone)]
pub struct OpenWorkload {
    /// Sites receiving arrivals (`SiteId(0)..SiteId(sites)`).
    pub sites: u32,
    /// Generation horizon: arrivals are produced on `[0, horizon)`.
    pub horizon: Duration,
    /// Diurnal rate curve, per site.
    pub curve: RateCurve,
    /// Regional flash crowds, applied multiplicatively on top of the curve.
    pub crowds: Vec<FlashCrowd>,
    /// Payload size distribution.
    pub sizes: SizeDist,
    /// Size of the modeled user population (user ids are drawn uniformly
    /// from this space; the population itself is never materialized).
    pub users: u64,
    /// Master seed; each site derives an independent sub-stream.
    pub seed: u64,
}

impl OpenWorkload {
    /// The peak instantaneous rate any site can see (curve peak times the
    /// largest crowd multiplier), used as the thinning envelope.
    fn peak_rate(&self) -> f64 {
        let crowd_peak = self
            .crowds
            .iter()
            .map(|c| c.multiplier)
            .fold(1.0_f64, f64::max);
        self.curve.base_hz * self.curve.peak_multiplier() * crowd_peak
    }

    /// The instantaneous rate at `site` and `t`, crowds included.
    pub fn rate_at(&self, site: SiteId, t: SimTime) -> f64 {
        let mut rate = self.curve.rate_at(t);
        for crowd in &self.crowds {
            if crowd.covers(site, t) {
                rate *= crowd.multiplier;
            }
        }
        rate
    }

    /// Generates the merged arrival stream, sorted by `(time, site)`.
    ///
    /// Each site's stream is produced independently from
    /// `DetRng::new(seed).derive(site)` by thinning a homogeneous Poisson
    /// process at the peak rate, so the result is a pure function of the spec
    /// — harness workers and event shards cannot perturb it.
    pub fn generate(&self) -> Vec<Arrival> {
        let master = DetRng::new(self.seed);
        let peak = self.peak_rate();
        let mut all: Vec<Arrival> = Vec::new();
        if peak <= 0.0 {
            return all;
        }
        let mean_gap_us = 1e6 / peak;
        let horizon_us = self.horizon.micros();
        for s in 0..self.sites {
            let site = SiteId(s);
            let mut rng = master.derive(0x4F50_0000 + s as u64);
            let mut t_us = 0.0_f64;
            loop {
                t_us += rng.exponential(mean_gap_us);
                if !t_us.is_finite() || t_us >= horizon_us as f64 {
                    break;
                }
                let at = SimTime(t_us as u64);
                // Thinning: accept with probability rate(t)/peak.
                let accept = self.rate_at(site, at) / peak;
                if rng.chance(accept) {
                    let bytes = self.sizes.sample(&mut rng);
                    let user = rng.next_below(self.users.max(1));
                    all.push(Arrival {
                        at,
                        site,
                        bytes,
                        user,
                    });
                }
            }
        }
        all.sort_by_key(|a| (a.at, a.site));
        all
    }

    /// Renders an arrival stream as one line per arrival
    /// (`micros:site:bytes:user`) — the byte-identity surface the workload
    /// property tests diff across configurations.
    pub fn render_trace(arrivals: &[Arrival]) -> String {
        let mut out = String::new();
        for a in arrivals {
            out.push_str(&format!(
                "{}:{}:{}:{}\n",
                a.at.micros(),
                a.site.0,
                a.bytes,
                a.user
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpenWorkload {
        OpenWorkload {
            sites: 4,
            horizon: Duration::from_secs(20),
            curve: RateCurve::diurnal(10.0, vec![0.5, 1.0, 2.0, 1.0], Duration::from_secs(4)),
            crowds: vec![FlashCrowd {
                first_site: SiteId(2),
                sites: 2,
                start: SimTime(5_000_000),
                duration: Duration::from_secs(5),
                multiplier: 4.0,
            }],
            sizes: SizeDist::default(),
            users: 1_000_000,
            seed: 99,
        }
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let a = spec().generate();
        let b = spec().generate();
        assert_eq!(
            OpenWorkload::render_trace(&a),
            OpenWorkload::render_trace(&b)
        );
        assert!(a
            .windows(2)
            .all(|w| (w[0].at, w[0].site) <= (w[1].at, w[1].site)));
        assert!(!a.is_empty());
    }

    #[test]
    fn flash_crowd_boosts_only_its_region_and_window() {
        let arrivals = spec().generate();
        let window = |site: u32, lo_s: u64, hi_s: u64| {
            arrivals
                .iter()
                .filter(|a| {
                    a.site.0 == site
                        && a.at.micros() >= lo_s * 1_000_000
                        && a.at.micros() < hi_s * 1_000_000
                })
                .count()
        };
        // Site 3 is crowded on [5s, 10s); site 0 never is.  Compare the crowd
        // window against the same-length quiet window on each site.
        let crowded = window(3, 5, 10);
        let quiet_same_site = window(3, 12, 17);
        let uncrowded_site = window(0, 5, 10);
        assert!(
            crowded > 2 * quiet_same_site,
            "crowd window ({crowded}) should dwarf the quiet window ({quiet_same_site})"
        );
        assert!(
            crowded > 2 * uncrowded_site,
            "crowded site ({crowded}) should dwarf an uncrowded one ({uncrowded_site})"
        );
    }

    #[test]
    fn expected_arrivals_integrates_partial_days_exactly() {
        // 1 Hz base, weights [2, 0] over a 2 s day: rate is 2 Hz on the first
        // second of each day, 0 on the second.  Over 5 s: 2+0+2+0+2 = 6.
        let curve = RateCurve::diurnal(1.0, vec![2.0, 0.0], Duration::from_secs(2));
        let expected = curve.expected_arrivals(Duration::from_secs(5));
        assert!((expected - 6.0).abs() < 1e-9, "got {expected}");
        // Flat curve: rate * horizon.
        let flat = RateCurve::flat(3.0);
        assert!((flat.expected_arrivals(Duration::from_secs(7)) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn empty_peak_produces_no_arrivals() {
        let mut s = spec();
        s.curve = RateCurve::flat(0.0);
        s.crowds.clear();
        assert!(s.generate().is_empty());
    }
}
