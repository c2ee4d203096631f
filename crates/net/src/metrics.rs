//! Network accounting: bytes and messages moved, in total.
//!
//! These counters are the primary measured quantity of experiment E1
//! (bandwidth conservation, §1 of the paper) and contribute the overhead
//! columns of E2 (diffusion), E6 (exchange protocol), E7 (scheduling) and E9
//! (rear guards).

use serde::{Deserialize, Serialize};
use tacoma_util::{ByteCount, Summary};

/// Byte and message counters for a whole simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetMetrics {
    total_bytes: ByteCount,
    total_messages: u64,
    total_hops: u64,
    dropped_messages: u64,
    delivered_messages: u64,
    custody_parked: u64,
    custody_delivered: u64,
    custody_expired: u64,
    custody_rejected: u64,
    custody_stored_bytes: u64,
    custody_peak_bytes: u64,
    admitted_meets: u64,
    shed_meets: u64,
    janitor_sweeps: u64,
    janitor_shed: u64,
    admission_queue_peak: u64,
    admission_waits: Summary,
}

impl NetMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `bytes` bytes traversing `hops` hops.
    pub fn record_hops(&mut self, hops: u32, bytes: u64) {
        self.total_bytes
            .add_bytes(bytes.saturating_mul(u64::from(hops)));
        self.total_hops += u64::from(hops);
    }

    /// Records a message accepted for sending.
    pub fn record_send(&mut self) {
        self.total_messages += 1;
    }

    /// Records a message delivered at its destination.
    pub fn record_delivery(&mut self) {
        self.delivered_messages += 1;
    }

    /// Records a message dropped in flight (dead destination, partition, ...).
    pub fn record_drop(&mut self) {
        self.dropped_messages += 1;
    }

    /// Records a message parked in custody, charging `bytes` of storage
    /// occupancy at the custodian.
    pub fn record_custody_park(&mut self, bytes: u64) {
        self.custody_parked += 1;
        self.custody_stored_bytes += bytes;
        self.custody_peak_bytes = self.custody_peak_bytes.max(self.custody_stored_bytes);
    }

    /// Releases `bytes` of custody storage (re-delivery attempt or expiry
    /// removed a parked message).
    pub fn record_custody_unpark(&mut self, bytes: u64) {
        self.custody_stored_bytes = self.custody_stored_bytes.saturating_sub(bytes);
    }

    /// Records a custodied message finally delivered to its destination.
    pub fn record_custody_delivery(&mut self) {
        self.custody_delivered += 1;
    }

    /// Records a custodied message expiring undelivered (TTL elapsed or the
    /// custody queue overflowed on a re-park).
    pub fn record_custody_expiry(&mut self) {
        self.custody_expired += 1;
    }

    /// Records a send that asked for custody but was rejected because the
    /// custodian's queue was full.
    pub fn record_custody_rejection(&mut self) {
        self.custody_rejected += 1;
    }

    /// Records a meet admitted through a bounded admission queue, with the
    /// time it waited in the queue before service started (milliseconds).
    pub fn record_admission(&mut self, wait_ms: f64, queue_depth: u64) {
        self.admitted_meets += 1;
        self.admission_waits.add(wait_ms);
        self.admission_queue_peak = self.admission_queue_peak.max(queue_depth);
    }

    /// Records a meet shed at admission: the queue was full (or the site
    /// died with the meet still queued), so the meet terminated in the
    /// `Shed` bucket instead of ever being dispatched.
    pub fn record_shed(&mut self) {
        self.shed_meets += 1;
    }

    /// Records one janitor sweep that shed `swept` queue entries past their
    /// admission deadline.  Swept entries are shed, so they also count in
    /// [`NetMetrics::shed_meets`].
    pub fn record_janitor_sweep(&mut self, swept: u64) {
        self.janitor_sweeps += 1;
        self.janitor_shed += swept;
        self.shed_meets += swept;
    }

    /// Meets admitted through a bounded admission queue.
    pub fn admitted_meets(&self) -> u64 {
        self.admitted_meets
    }

    /// Meets shed at admission (queue overflow, janitor deadline, or a crash
    /// that destroyed a non-empty queue).
    pub fn shed_meets(&self) -> u64 {
        self.shed_meets
    }

    /// Janitor sweeps performed.
    pub fn janitor_sweeps(&self) -> u64 {
        self.janitor_sweeps
    }

    /// Queue entries the janitor shed for overstaying the admission deadline.
    pub fn janitor_shed(&self) -> u64 {
        self.janitor_shed
    }

    /// Deepest admission queue observed at any site.
    pub fn admission_queue_peak(&self) -> u64 {
        self.admission_queue_peak
    }

    /// The admission-wait distribution (milliseconds queued before service).
    pub fn admission_waits(&self) -> &Summary {
        &self.admission_waits
    }

    /// Shed fraction of everything that reached an admission queue:
    /// `shed / (admitted + shed)`, 0 when no admission traffic was recorded.
    pub fn shed_rate(&self) -> f64 {
        let total = self.admitted_meets + self.shed_meets;
        if total == 0 {
            0.0
        } else {
            self.shed_meets as f64 / total as f64
        }
    }

    /// Total bytes moved across all links (counted per hop).
    pub fn total_bytes(&self) -> ByteCount {
        self.total_bytes
    }

    /// Total messages accepted for sending.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total link hops traversed.
    pub fn total_hops(&self) -> u64 {
        self.total_hops
    }

    /// Messages dropped before delivery.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Messages delivered at their destination (all sites).
    pub fn delivered_messages(&self) -> u64 {
        self.delivered_messages
    }

    /// Messages ever parked in a custody queue (re-parks after an in-flight
    /// crash count again).
    pub fn custody_parked(&self) -> u64 {
        self.custody_parked
    }

    /// Custodied messages that eventually reached their destination.
    pub fn custody_delivered(&self) -> u64 {
        self.custody_delivered
    }

    /// Custodied messages that expired undelivered.
    pub fn custody_expired(&self) -> u64 {
        self.custody_expired
    }

    /// Custody requests rejected because the custodian's queue was full.
    pub fn custody_rejected(&self) -> u64 {
        self.custody_rejected
    }

    /// Bytes currently occupying custody storage across all sites.
    pub fn custody_stored_bytes(&self) -> u64 {
        self.custody_stored_bytes
    }

    /// Peak custody storage occupancy observed during the run.
    pub fn custody_peak_bytes(&self) -> u64 {
        self.custody_peak_bytes
    }

    /// Resets all counters to zero (used between experiment phases).
    pub fn reset(&mut self) {
        *self = NetMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = NetMetrics::new();
        m.record_send();
        m.record_hops(2, 100);
        m.record_delivery();
        assert_eq!(m.total_messages(), 1);
        assert_eq!(m.total_hops(), 2);
        assert_eq!(m.total_bytes().get(), 200);
        assert_eq!(m.delivered_messages(), 1);
    }

    #[test]
    fn hop_bytes_add_up() {
        let mut m = NetMetrics::new();
        m.record_hops(1, 50);
        m.record_hops(1, 25);
        m.record_hops(3, 10);
        m.record_hops(0, 1_000);
        assert_eq!(m.total_bytes().get(), 105);
        assert_eq!(m.total_hops(), 5);
        // Saturating, like every other byte counter.
        m.record_hops(2, u64::MAX);
        assert_eq!(m.total_bytes().get(), u64::MAX);
    }

    #[test]
    fn reset_zeroes_every_counter() {
        let mut m = NetMetrics::new();
        m.record_hops(1, 10);
        m.record_hops(1, 99);
        assert_eq!(m.total_bytes().get(), 109);
        m.record_drop();
        assert_eq!(m.dropped_messages(), 1);
        m.reset();
        assert_eq!(m.total_bytes().get(), 0);
        assert_eq!(m.dropped_messages(), 0);
    }

    #[test]
    fn admission_counters_track_sheds_waits_and_rate() {
        let mut m = NetMetrics::new();
        assert_eq!(m.shed_rate(), 0.0, "no traffic, no rate");
        m.record_admission(1.0, 3);
        m.record_admission(9.0, 7);
        m.record_shed();
        assert_eq!(m.admitted_meets(), 2);
        assert_eq!(m.shed_meets(), 1);
        assert_eq!(m.admission_queue_peak(), 7);
        assert!((m.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.admission_waits().count(), 2);
        m.record_janitor_sweep(4);
        assert_eq!(m.janitor_sweeps(), 1);
        assert_eq!(m.janitor_shed(), 4);
        assert_eq!(m.shed_meets(), 5, "janitor sheds count as sheds");
        m.reset();
        assert_eq!(m.admitted_meets(), 0);
        assert_eq!(m.admission_waits().count(), 0);
    }

    #[test]
    fn custody_counters_track_occupancy_and_peak() {
        let mut m = NetMetrics::new();
        m.record_custody_park(100);
        m.record_custody_park(50);
        assert_eq!(m.custody_parked(), 2);
        assert_eq!(m.custody_stored_bytes(), 150);
        assert_eq!(m.custody_peak_bytes(), 150);
        m.record_custody_unpark(100);
        m.record_custody_delivery();
        assert_eq!(m.custody_stored_bytes(), 50);
        assert_eq!(m.custody_peak_bytes(), 150, "peak is sticky");
        m.record_custody_unpark(50);
        m.record_custody_expiry();
        m.record_custody_rejection();
        assert_eq!(m.custody_delivered(), 1);
        assert_eq!(m.custody_expired(), 1);
        assert_eq!(m.custody_rejected(), 1);
        assert_eq!(m.custody_stored_bytes(), 0);
        m.reset();
        assert_eq!(m.custody_peak_bytes(), 0);
    }
}
