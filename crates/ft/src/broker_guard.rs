//! Failover guards for federated brokers.
//!
//! The rear guards of §5 protect a *travelling* computation; a
//! [`BrokerGuardAgent`] applies the same idea to a *resident* one.  It lives
//! at a peer broker's site, watches the primary broker's site through the
//! kernel's membership view, and — once the primary has stayed dead for a
//! patience window — performs the takeover the scheduling layer needs so the
//! crashed broker's provider shard is **re-adopted instead of orphaned**:
//!
//! 1. a local [`wellknown::ADOPT`] meet tells the co-located broker it now
//!    answers for the orphaned shard;
//! 2. a [`wellknown::REHOME`] meet to every orphaned provider site re-points
//!    that site's monitor at the adopting broker, so load reports (and with
//!    them, placements) resume flowing within one monitor period.
//!
//! Like a rear guard, the broker guard is conservative: a primary that is up
//! resets the patience counter, and a recovered primary re-arms the guard so
//! a *second* crash is caught too.  The guard never hands the shard back —
//! a recovered broker simply starts empty and forwards jobs via digests
//! until (if ever) operators rehome the monitors again.

use tacoma_core::prelude::*;

/// The name under which the guard watching `site` registers.
pub fn broker_guard_name(watched: SiteId) -> AgentName {
    AgentName::new(format!("{}-{}", wellknown::BROKER_GUARD, watched.0))
}

/// A failover guard for one federated broker.
pub struct BrokerGuardAgent {
    watched: SiteId,
    shard: u32,
    providers: Vec<SiteId>,
    period: Duration,
    patience: u64,
    checks_down: u64,
    adopted: bool,
    /// Providers that were down or unreachable when the takeover fired;
    /// their REHOME is retried on later checks so a provider that was
    /// briefly out at the takeover instant is not stranded on the dead
    /// primary forever.
    pending_rehomes: Vec<SiteId>,
}

impl BrokerGuardAgent {
    /// Creates a guard (to be installed at the adopting broker's site)
    /// watching the broker at `watched`, which owns `shard` and its
    /// `providers`.  The takeover fires after the watched site has been seen
    /// down on `patience` consecutive checks, `period` apart.
    pub fn new(
        watched: SiteId,
        shard: u32,
        providers: Vec<SiteId>,
        period: Duration,
        patience: u64,
    ) -> Self {
        BrokerGuardAgent {
            watched,
            shard,
            providers,
            period,
            patience: patience.max(1),
            checks_down: 0,
            adopted: false,
            pending_rehomes: Vec::new(),
        }
    }

    fn schedule_check(&self, ctx: &mut MeetCtx<'_>) {
        ctx.schedule(
            broker_guard_name(self.watched),
            self.period,
            Briefcase::new(),
        );
    }

    fn take_over(&mut self, ctx: &mut MeetCtx<'_>) {
        self.adopted = true;
        ctx.log(format!(
            "broker guard at {} adopting shard {} from dead {}",
            ctx.site(),
            self.shard,
            self.watched
        ));
        // Tell the co-located broker it answers for the orphaned shard now.
        let mut adopt = Briefcase::new();
        adopt.put_string(wellknown::ADOPT, self.shard.to_string());
        if ctx
            .meet_local(&AgentName::new(wellknown::BROKER), adopt)
            .is_err()
        {
            ctx.log(format!(
                "broker guard at {}: no local broker to adopt shard {}",
                ctx.site(),
                self.shard
            ));
        }
        // Re-point every orphaned provider's monitor at this site.  A
        // provider that is itself down (or unreachable without custody) at
        // this instant would silently miss a fire-and-forget REHOME, so it
        // goes on the retry list instead.
        let providers = self.providers.clone();
        for provider in providers {
            if ctx.site_is_up(provider) && ctx.site_is_reachable(provider) {
                Self::send_rehome(ctx, provider);
            } else {
                self.pending_rehomes.push(provider);
            }
        }
    }

    fn send_rehome(ctx: &mut MeetCtx<'_>, provider: SiteId) {
        let mut rehome = Briefcase::new();
        rehome.put_string(wellknown::REHOME, ctx.site().0.to_string());
        ctx.remote_meet(
            provider,
            AgentName::new(wellknown::MONITOR),
            rehome,
            TransportKind::Tcp,
        );
    }

    /// Retries REHOMEs that could not be delivered at takeover time, once
    /// their provider is back.
    fn retry_pending_rehomes(&mut self, ctx: &mut MeetCtx<'_>) {
        let mut still_pending = Vec::new();
        for provider in std::mem::take(&mut self.pending_rehomes) {
            if ctx.site_is_up(provider) && ctx.site_is_reachable(provider) {
                Self::send_rehome(ctx, provider);
            } else {
                still_pending.push(provider);
            }
        }
        self.pending_rehomes = still_pending;
    }
}

impl Agent for BrokerGuardAgent {
    fn name(&self) -> AgentName {
        broker_guard_name(self.watched)
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        self.schedule_check(ctx);
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        if !bc.contains(wellknown::TIMER) {
            return Ok(Briefcase::new());
        }
        if ctx.site_is_up(self.watched) {
            // Alive (or back): reset the window and re-arm for a next crash.
            // Providers never rehomed report to the recovered primary again,
            // so the retry list is moot.
            self.checks_down = 0;
            self.adopted = false;
            self.pending_rehomes.clear();
        } else {
            self.checks_down += 1;
            if self.checks_down >= self.patience && !self.adopted {
                self.take_over(ctx);
            } else if self.adopted {
                self.retry_pending_rehomes(ctx);
            }
        }
        self.schedule_check(ctx);
        Ok(Briefcase::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_core::TacomaSystem;
    use tacoma_net::{FailurePlan, LinkSpec, SimTime, Topology};

    /// Minimal stand-ins for the scheduling layer: a broker that records
    /// adoptions and a monitor that records rehomes, both into cabinets the
    /// test can read back.
    struct RecordingBroker;
    impl Agent for RecordingBroker {
        fn name(&self) -> AgentName {
            AgentName::new(wellknown::BROKER)
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            if let Some(shard) = bc.peek_string(wellknown::ADOPT) {
                ctx.cabinet("takeovers").append_str("ADOPTED", &shard);
            }
            Ok(Briefcase::new())
        }
    }
    struct RecordingMonitor;
    impl Agent for RecordingMonitor {
        fn name(&self) -> AgentName {
            AgentName::new(wellknown::MONITOR)
        }
        fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
            if let Some(to) = bc.peek_string(wellknown::REHOME) {
                ctx.cabinet("rehomes").append_str("TO", &to);
            }
            Ok(Briefcase::new())
        }
    }

    /// Site 0: primary (watched).  Site 1: backup hosting the guard and the
    /// recording broker.  Sites 2, 3: providers with recording monitors.
    /// The recorders install through a factory so a crashed-and-recovered
    /// provider comes back able to receive its REHOME, as real monitors
    /// deployed via `SystemBuilder` factories would.
    fn guarded_system() -> TacomaSystem {
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(4, LinkSpec::default()))
            .seed(21)
            .with_agents(|site| match site.0 {
                1 => vec![Box::new(RecordingBroker) as Box<dyn Agent>],
                2 | 3 => vec![Box::new(RecordingMonitor) as Box<dyn Agent>],
                _ => Vec::new(),
            })
            .build();
        sys.register_agent(
            SiteId(1),
            Box::new(BrokerGuardAgent::new(
                SiteId(0),
                0,
                vec![SiteId(2), SiteId(3)],
                Duration::from_millis(100),
                3,
            )),
        );
        sys
    }

    fn adoptions(sys: &TacomaSystem) -> usize {
        sys.place(SiteId(1))
            .cabinets()
            .get("takeovers")
            .and_then(|c| c.folder_ref("ADOPTED").map(|f| f.len()))
            .unwrap_or(0)
    }

    fn rehomes(sys: &TacomaSystem, site: u32) -> Vec<String> {
        sys.place(SiteId(site))
            .cabinets()
            .get("rehomes")
            .and_then(|c| c.folder_ref("TO").map(|f| f.strings()))
            .unwrap_or_default()
    }

    #[test]
    fn no_takeover_while_the_primary_lives() {
        let mut sys = guarded_system();
        sys.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(adoptions(&sys), 0);
        assert!(rehomes(&sys, 2).is_empty());
    }

    #[test]
    fn sustained_death_triggers_exactly_one_takeover() {
        let mut sys = guarded_system();
        sys.net_mut().crash_now(SiteId(0));
        sys.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(adoptions(&sys), 1, "one adoption, not one per check");
        // Every provider was rehomed to the guard's site.
        assert_eq!(rehomes(&sys, 2), vec!["1".to_string()]);
        assert_eq!(rehomes(&sys, 3), vec!["1".to_string()]);
    }

    #[test]
    fn a_blip_shorter_than_the_patience_window_is_tolerated() {
        let mut sys = guarded_system();
        // Down for ~2 checks, then back: no takeover.
        let plan = FailurePlan::none().outage(
            SiteId(0),
            SimTime::ZERO + Duration::from_millis(50),
            Duration::from_millis(220),
        );
        sys.apply_failure_plan(&plan);
        sys.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(adoptions(&sys), 0);
    }

    #[test]
    fn a_provider_down_at_takeover_is_rehomed_when_it_returns() {
        let mut sys = guarded_system();
        // Provider 3 is down across the takeover window and comes back later.
        let plan = FailurePlan::none().outage(
            SiteId(3),
            SimTime::ZERO + Duration::from_millis(10),
            Duration::from_millis(900),
        );
        sys.apply_failure_plan(&plan);
        sys.net_mut().crash_now(SiteId(0));
        // Takeover fires at ~300 ms while provider 3 is still down.
        sys.run_until(SimTime::ZERO + Duration::from_millis(700));
        assert_eq!(adoptions(&sys), 1);
        assert_eq!(rehomes(&sys, 2), vec!["1".to_string()]);
        assert!(
            rehomes(&sys, 3).is_empty(),
            "no REHOME can land while the provider is down"
        );
        // Once provider 3 recovers the guard retries and the REHOME lands.
        sys.run_until(SimTime::ZERO + Duration::from_secs(2));
        assert_eq!(
            rehomes(&sys, 3),
            vec!["1".to_string()],
            "the pending REHOME must be delivered exactly once after recovery"
        );
    }

    #[test]
    fn a_recovered_then_recrashed_primary_is_adopted_again() {
        let mut sys = guarded_system();
        let plan = FailurePlan::none()
            .outage(
                SiteId(0),
                SimTime::ZERO + Duration::from_millis(50),
                Duration::from_millis(800),
            )
            .outage(
                SiteId(0),
                SimTime::ZERO + Duration::from_millis(2_000),
                Duration::from_millis(800),
            );
        sys.apply_failure_plan(&plan);
        sys.run_until(SimTime::ZERO + Duration::from_secs(4));
        assert_eq!(adoptions(&sys), 2, "the guard re-arms after a recovery");
    }
}
