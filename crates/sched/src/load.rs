//! Load reports: what monitors tell brokers about provider sites, and the
//! staleness-aware report database brokers keep them in.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tacoma_core::Briefcase;
use tacoma_net::Duration;
use tacoma_util::SiteId;

/// One monitoring sample for a provider site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// The provider site this report describes.
    pub site: SiteId,
    /// Jobs currently queued (including the one in service).
    pub queue_len: u64,
    /// Expected outstanding *work* in kilosteps (sum of the statically
    /// proven step bounds of queued jobs, ÷1000).  Zero means "unknown /
    /// cost-blind", in which case placement falls back to the job count —
    /// so legacy reports and cost-aware reports share one ordering.
    pub queue_cost: f64,
    /// Relative processing capacity (jobs per simulated second at nominal size).
    pub capacity: f64,
    /// Simulated time (microseconds) the sample was taken.
    pub at_micros: u64,
}

impl LoadReport {
    /// The queue measure placement compares: expected cost when known
    /// (`queue_cost > 0`), job count otherwise.
    pub fn effective_queue(&self) -> f64 {
        if self.queue_cost > 0.0 {
            self.queue_cost
        } else {
            self.queue_len as f64
        }
    }

    /// Expected wait for a newly arriving job, in seconds: effective queue
    /// (cost-weighted when known) divided by capacity.  Lower is better;
    /// brokers pick the minimum.
    ///
    /// A non-positive or NaN capacity describes a provider that cannot make
    /// progress, so its wait is infinite — never NaN, which would corrupt any
    /// ordering built on it.
    pub fn expected_wait(&self) -> f64 {
        if self.capacity.is_nan() || self.capacity <= 0.0 {
            f64::INFINITY
        } else {
            self.effective_queue() / self.capacity
        }
    }

    /// Age of this report at `now_micros` (0 when the clock reads earlier
    /// than the sample, which can happen across a briefcase round-trip).
    pub fn age_micros(&self, now_micros: u64) -> u64 {
        now_micros.saturating_sub(self.at_micros)
    }

    /// Whether this report is still fresh at `now_micros` under a TTL.
    pub fn is_fresh(&self, now_micros: u64, ttl_micros: u64) -> bool {
        self.age_micros(now_micros) <= ttl_micros
    }

    /// Staleness-decayed expected wait: the reported queue estimate loses
    /// confidence as the report ages, doubling (plus one phantom job) once
    /// per `half_life_micros`.  Effective queue = `(q + 1)·2^(age/hl) − 1`,
    /// so an idle-but-stale report ranks below an idle-and-fresh one, and a
    /// dead provider's last report decays out of contention instead of being
    /// trusted forever.  `half_life_micros == 0` disables decay.
    pub fn decayed_wait(&self, now_micros: u64, half_life_micros: u64) -> f64 {
        let raw = self.expected_wait();
        if half_life_micros == 0 || !raw.is_finite() {
            return raw;
        }
        let age = self.age_micros(now_micros) as f64 / half_life_micros as f64;
        // Cap the exponent: beyond ~2^32 half-lives the report is hopeless
        // anyway and overflow to infinity would defeat the finite filter.
        let m = 2f64.powf(age.min(32.0));
        ((self.effective_queue() + 1.0) * m - 1.0) / self.capacity
    }

    /// Serializes the report into briefcase folders (strings, so TacoScript
    /// agents can also read them).  The cost field is written only when
    /// non-zero, so cost-blind reports keep their historical wire shape.
    pub fn to_briefcase(&self) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string("LOAD_SITE", self.site.0.to_string());
        bc.put_string("LOAD_QUEUE", self.queue_len.to_string());
        if self.queue_cost != 0.0 {
            bc.put_string("LOAD_COST", format!("{}", self.queue_cost));
        }
        bc.put_string("LOAD_CAPACITY", format!("{}", self.capacity));
        bc.put_string("LOAD_AT", self.at_micros.to_string());
        bc
    }

    /// Parses a report out of briefcase folders, if all fields are present.
    /// A missing `LOAD_COST` folder reads as 0 (cost-blind).
    pub fn from_briefcase(bc: &Briefcase) -> Option<LoadReport> {
        Some(LoadReport {
            site: SiteId(peek_parse(bc, "LOAD_SITE")?),
            queue_len: peek_parse(bc, "LOAD_QUEUE")?,
            queue_cost: peek_parse(bc, "LOAD_COST").unwrap_or(0.0),
            capacity: peek_parse(bc, "LOAD_CAPACITY")?,
            at_micros: peek_parse(bc, "LOAD_AT")?,
        })
    }
}

/// Parses the top element of folder `name` as text, where it lies.
pub(crate) fn peek_parse<T: std::str::FromStr>(bc: &Briefcase, name: &str) -> Option<T> {
    std::str::from_utf8(bc.peek(name)?).ok()?.parse().ok()
}

/// A broker's load-report database: the latest report per provider, with
/// TTL-based staleness handling.
///
/// Placement always reads through [`ReportDb::fresh`], so expired reports
/// never attract jobs regardless of when they are physically purged; the
/// purge itself is amortized (it runs when the map doubles past a watermark,
/// not on every ingest) so report ingest stays O(log P) amortized instead of
/// the O(P) per report a retain-per-ingest costs at 1024 sites.
#[derive(Debug, Clone)]
pub struct ReportDb {
    reports: BTreeMap<SiteId, LoadReport>,
    report_ttl: Duration,
    purge_watermark: usize,
}

impl ReportDb {
    /// Floor for the purge watermark, so small fleets never purge.
    const MIN_PURGE_WATERMARK: usize = 16;

    /// Creates an empty database trusting reports for `report_ttl`.
    pub fn new(report_ttl: Duration) -> Self {
        ReportDb {
            reports: BTreeMap::new(),
            report_ttl,
            purge_watermark: Self::MIN_PURGE_WATERMARK,
        }
    }

    /// The TTL this database trusts reports for.
    pub fn report_ttl(&self) -> Duration {
        self.report_ttl
    }

    /// Number of reports currently held (fresh or not yet purged).
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the database holds no reports at all.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Stores a report, keeping only the per-site latest, and expires dead
    /// providers' stale reports once the map doubles past the watermark so
    /// the database stays bounded without a full scan per ingest.
    pub fn ingest(&mut self, report: LoadReport, now_micros: u64) {
        self.reports.insert(report.site, report);
        if self.reports.len() >= self.purge_watermark {
            let ttl = self.report_ttl.micros();
            self.reports.retain(|_, r| r.is_fresh(now_micros, ttl));
            self.purge_watermark = (self.reports.len() * 2).max(Self::MIN_PURGE_WATERMARK);
        }
    }

    /// The reports placement may trust: fresh within the TTL and from a
    /// provider the caller's liveness view considers up.
    pub fn fresh(&self, now_micros: u64, is_up: impl Fn(SiteId) -> bool) -> Vec<LoadReport> {
        let ttl = self.report_ttl.micros();
        self.reports
            .values()
            .copied()
            .filter(|r| is_up(r.site) && r.is_fresh(now_micros, ttl))
            .collect()
    }

    /// Every still-up provider's latest report, however old — the
    /// best-effort fallback a broker with *no* fresh information uses
    /// rather than dropping a job.
    pub fn live(&self, is_up: impl Fn(SiteId) -> bool) -> Vec<LoadReport> {
        self.reports
            .values()
            .copied()
            .filter(|r| is_up(r.site))
            .collect()
    }

    /// Optimistically bumps a provider's queue after placing a job on it,
    /// so a burst spreads even before the next report arrives.
    pub fn bump(&mut self, site: SiteId) {
        if let Some(r) = self.reports.get_mut(&site) {
            r.queue_len += 1;
        }
    }

    /// Cost-aware variant of [`ReportDb::bump`]: additionally charges the
    /// placed job's expected cost (kilosteps) to the provider's outstanding
    /// work, so heavy jobs repel the next placement harder than light ones.
    pub fn bump_cost(&mut self, site: SiteId, cost: f64) {
        if let Some(r) = self.reports.get_mut(&site) {
            r.queue_len += 1;
            if cost > 0.0 {
                r.queue_cost += cost;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_wait_orders_sites_sensibly() {
        let idle_fast = LoadReport {
            site: SiteId(0),
            queue_len: 0,
            queue_cost: 0.0,
            capacity: 4.0,
            at_micros: 0,
        };
        let busy_fast = LoadReport {
            site: SiteId(1),
            queue_len: 8,
            queue_cost: 0.0,
            capacity: 4.0,
            at_micros: 0,
        };
        let idle_slow = LoadReport {
            site: SiteId(2),
            queue_len: 0,
            queue_cost: 0.0,
            capacity: 1.0,
            at_micros: 0,
        };
        let busy_slow = LoadReport {
            site: SiteId(3),
            queue_len: 8,
            queue_cost: 0.0,
            capacity: 1.0,
            at_micros: 0,
        };
        assert!(idle_fast.expected_wait() <= idle_slow.expected_wait());
        assert!(busy_fast.expected_wait() < busy_slow.expected_wait());
        assert!(
            idle_slow.expected_wait() < busy_fast.expected_wait()
                || idle_slow.expected_wait() == 0.0
        );
        let broken = LoadReport {
            site: SiteId(4),
            queue_len: 1,
            queue_cost: 0.0,
            capacity: 0.0,
            at_micros: 0,
        };
        assert!(broken.expected_wait().is_infinite());
    }

    #[test]
    fn nan_capacity_never_produces_a_nan_wait() {
        let broken = LoadReport {
            site: SiteId(9),
            queue_len: 3,
            queue_cost: 0.0,
            capacity: f64::NAN,
            at_micros: 0,
        };
        assert!(broken.expected_wait().is_infinite());
        assert!(broken.decayed_wait(1_000, 500).is_infinite());
    }

    #[test]
    fn decay_penalises_age_and_spares_fresh_reports() {
        let r = LoadReport {
            site: SiteId(1),
            queue_len: 4,
            queue_cost: 0.0,
            capacity: 2.0,
            at_micros: 1_000,
        };
        // Fresh: decayed equals raw.
        assert_eq!(r.decayed_wait(1_000, 10_000), r.expected_wait());
        // One half-life: (4+1)*2-1 = 9 effective jobs.
        assert_eq!(r.decayed_wait(11_000, 10_000), 9.0 / 2.0);
        // Disabled decay leaves the raw wait even for ancient reports.
        assert_eq!(r.decayed_wait(u64::MAX, 0), r.expected_wait());
        // An idle-but-stale report ranks behind an idle-and-fresh one.
        let idle = LoadReport {
            site: SiteId(2),
            queue_len: 0,
            queue_cost: 0.0,
            capacity: 2.0,
            at_micros: 0,
        };
        assert!(idle.decayed_wait(20_000, 10_000) > 0.0);
        // Extreme ages stay finite so the policy's finite filter keeps them.
        assert!(r.decayed_wait(u64::MAX, 1).is_finite());
    }

    #[test]
    fn freshness_window_is_inclusive_and_clock_skew_safe() {
        let r = LoadReport {
            site: SiteId(0),
            queue_len: 0,
            queue_cost: 0.0,
            capacity: 1.0,
            at_micros: 5_000,
        };
        assert_eq!(r.age_micros(4_000), 0, "sample from the future has age 0");
        assert!(r.is_fresh(5_000, 0));
        assert!(r.is_fresh(6_000, 1_000));
        assert!(!r.is_fresh(6_001, 1_000));
    }

    #[test]
    fn report_db_filters_staleness_at_read_time_and_purges_amortized() {
        let mut db = ReportDb::new(Duration::from_millis(1));
        let report = |site: u32, at: u64| LoadReport {
            site: SiteId(site),
            queue_len: 1,
            queue_cost: 0.0,
            capacity: 1.0,
            at_micros: at,
        };
        db.ingest(report(0, 0), 0);
        db.ingest(report(0, 5), 5);
        assert_eq!(db.len(), 1, "latest report per site only");
        // At t=2000 the t=5 report has aged past the 1 ms TTL: reads filter
        // it even though nothing has been purged yet.
        assert!(db.fresh(2_000, |_| true).is_empty());
        assert_eq!(db.live(|_| true).len(), 1, "stale fallback still sees it");
        assert!(db.live(|_| false).is_empty(), "liveness always applies");
        // Pour in enough distinct stale sites to cross the watermark: the
        // amortized purge drops all of them.
        for s in 1..40 {
            db.ingest(report(s, 0), 50_000);
        }
        assert!(
            db.len() < 40,
            "the watermark purge must have run (len {})",
            db.len()
        );
        // Bumping a known site raises its queue; unknown sites are ignored.
        let mut db = ReportDb::new(Duration::from_secs(1));
        db.ingest(report(7, 0), 0);
        db.bump(SiteId(7));
        db.bump(SiteId(99));
        assert_eq!(db.fresh(0, |_| true)[0].queue_len, 2);
        assert!(!db.is_empty());
        assert_eq!(db.report_ttl(), Duration::from_secs(1));
    }

    #[test]
    fn cost_weighted_queue_orders_ahead_of_job_count() {
        // Same job count, very different outstanding work: the cost-aware
        // comparison must prefer the site holding light jobs.
        let heavy = LoadReport {
            site: SiteId(0),
            queue_len: 2,
            queue_cost: 40.0,
            capacity: 1.0,
            at_micros: 0,
        };
        let light = LoadReport {
            site: SiteId(1),
            queue_len: 2,
            queue_cost: 2.0,
            capacity: 1.0,
            at_micros: 0,
        };
        assert!(light.expected_wait() < heavy.expected_wait());
        assert!(light.decayed_wait(10_000, 10_000) < heavy.decayed_wait(10_000, 10_000));
        // Cost-blind reports fall back to the job count, so mixing old and
        // new reports keeps a single comparable ordering.
        let blind = LoadReport {
            site: SiteId(2),
            queue_len: 3,
            queue_cost: 0.0,
            capacity: 1.0,
            at_micros: 0,
        };
        assert_eq!(blind.effective_queue(), 3.0);
        assert_eq!(blind.expected_wait(), 3.0);
        // The cost folder round-trips, and is omitted when zero so legacy
        // wire shapes stay byte-identical.
        let parsed = LoadReport::from_briefcase(&heavy.to_briefcase()).unwrap();
        assert_eq!(parsed, heavy);
        assert!(!blind.to_briefcase().contains("LOAD_COST"));
        // bump_cost charges both the job count and the outstanding work.
        let mut db = ReportDb::new(Duration::from_secs(1));
        db.ingest(light, 0);
        db.bump_cost(SiteId(1), 5.0);
        let r = db.fresh(0, |_| true)[0];
        assert_eq!(r.queue_len, 3);
        assert_eq!(r.queue_cost, 7.0);
    }

    #[test]
    fn briefcase_round_trip() {
        let r = LoadReport {
            site: SiteId(7),
            queue_len: 3,
            queue_cost: 0.0,
            capacity: 2.5,
            at_micros: 42,
        };
        let parsed = LoadReport::from_briefcase(&r.to_briefcase()).unwrap();
        assert_eq!(parsed, r);
        assert!(LoadReport::from_briefcase(&Briefcase::new()).is_none());
    }
}
