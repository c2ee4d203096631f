//! The install-time gates: the phase before a meet is *requested*.
//!
//! A briefcase carrying a `CODE` folder is statically checked before its
//! meet request is queued, so a defective script is refused up front instead
//! of failing halfway through a migration.  Three stages, in order, each a
//! function of the one [`Script`] record [`Gates::gate`] parses from `CODE`:
//!
//! 1. **vet** — the script in isolation (always on);
//! 2. **audit** — the script composed against the declared fleet
//!    ([`super::SystemBuilder::audit_fleet`]);
//! 3. **cost** — its static worst-case bound against a budget
//!    ([`super::SystemBuilder::cost_gate`]).
//!
//! Only the last `CODE` element is checked — that is the one `ag_tac` pops
//! and executes; earlier elements are continuations produced by
//! already-checked code.  And only *entry points* gate
//! ([`super::TacomaSystem::inject_meet_at`],
//! [`super::TacomaSystem::try_direct_meet`], and the cost stage alone in
//! [`super::TacomaSystem::schedule_meet`]): once an agent is admitted its
//! nested and remote meets carry code that was already checked, and
//! re-checking every migration leg would charge the analysis per hop.

use super::SystemStats;
use crate::briefcase::Briefcase;
use crate::error::TacomaError;
use crate::place::Place;
use crate::wellknown;
use tacoma_script::Script;
use tacoma_util::{AgentName, SiteId};

/// One stage's counter and wording: who refused, as the trace and as an
/// error put it, and what separates that from the report (diagnostics start
/// on their own line; a cost reason is one line).
struct Stage {
    counter: fn(&mut SystemStats) -> &mut u64,
    in_trace: &'static str,
    in_error: &'static str,
    sep: &'static str,
}

const VET: Stage = Stage {
    counter: |stats| &mut stats.scripts_rejected,
    in_trace: "rejected",
    in_error: "script rejected",
    sep: ":\n",
};
const AUDIT: Stage = Stage {
    counter: |stats| &mut stats.audits_rejected,
    in_trace: "fleet audit rejected",
    in_error: "script rejected by fleet audit",
    sep: ":\n",
};
const COST: Stage = Stage {
    counter: |stats| &mut stats.costs_rejected,
    in_trace: "cost gate rejected",
    in_error: "script rejected by cost gate",
    sep: ": ",
};

/// A refusal: which stage, and its rendered diagnostics or reason.
pub(super) struct Rejection {
    stage: &'static Stage,
    report: String,
}

impl Rejection {
    /// The kernel trace line for refusing `what` (a "CODE folder", or a
    /// "scheduled CODE folder") on its way to `contact` at `site`.
    pub(super) fn trace_line(&self, what: &str, contact: &AgentName, site: SiteId) -> String {
        let Stage { in_trace, sep, .. } = self.stage;
        format!(
            "{in_trace} {what} bound for {contact} at {site}{sep}{}",
            self.report
        )
    }

    /// The error the synchronous entry point hands back instead.
    pub(super) fn into_error(self) -> TacomaError {
        let Stage { in_error, sep, .. } = self.stage;
        TacomaError::Script(format!("{in_error}{sep}{}", self.report))
    }
}

/// The configured stages.
pub(super) struct Gates {
    /// Fleet-level audit applied to entry-point CODE folders, when enabled.
    pub(super) audit_fleet: Option<tacoma_script::AuditConfig>,
    /// Static cost budget applied to entry-point CODE folders, when enabled.
    pub(super) cost_gate: Option<tacoma_script::CostGate>,
}

impl Gates {
    /// Runs vet → audit → cost over the briefcase's `CODE` folder (nothing
    /// to check without one) before a meet with `contact` at `place`.  An
    /// admitted script with a proven finite bound leaves with it stamped in
    /// its [`wellknown::COST`] folder; a refusal is counted in `stats` — it
    /// happens before the meet is requested, so outside the conservation
    /// invariant.
    pub(super) fn gate(
        &self,
        place: &Place,
        contact: &AgentName,
        briefcase: &mut Briefcase,
        stats: &mut SystemStats,
    ) -> Result<(), Rejection> {
        let Some(script) = Self::script(briefcase) else {
            return Ok(());
        };
        Self::vet(place, &script)
            .and_then(|()| self.audit(contact, &script, briefcase))
            .and_then(|()| self.cost(&script, briefcase))
            .inspect_err(|rejection| *(rejection.stage.counter)(stats) += 1)
    }

    /// The cost stage alone, for briefcases that enter through a timer.
    pub(super) fn gate_cost(
        &self,
        briefcase: &mut Briefcase,
        stats: &mut SystemStats,
    ) -> Result<(), Rejection> {
        if self.cost_gate.is_none() {
            return Ok(());
        }
        let Some(script) = Self::script(briefcase) else {
            return Ok(());
        };
        self.cost(&script, briefcase)
            .inspect_err(|rejection| *(rejection.stage.counter)(stats) += 1)
    }

    /// The briefcase's `CODE` folder parsed into the one record every stage
    /// reads, or `None` without one.
    fn script(briefcase: &Briefcase) -> Option<Script> {
        let code = briefcase.peek_string(wellknown::CODE)?;
        Some(Script::parse(&code))
    }

    /// Statically vets `script` against the agents it could meet at `place`.
    fn vet(place: &Place, script: &Script) -> Result<(), Rejection> {
        let mut known: Vec<String> = wellknown::AGENTS.iter().map(|a| a.to_string()).collect();
        known.extend(
            place
                .agent_names()
                .into_iter()
                .map(|n| n.as_str().to_string()),
        );
        let config = tacoma_script::AnalysisConfig::new()
            .known_agents(known)
            .source_name("CODE");
        script.vet(&config).map_err(|report| Rejection {
            stage: &VET,
            report,
        })
    }

    /// Audits `script` against the configured fleet.  The script is declared
    /// under the contact's name and every folder the briefcase actually
    /// carries is added to the injected set, so the audit sees exactly the
    /// environment the agent will run in.
    fn audit(
        &self,
        contact: &AgentName,
        script: &Script,
        briefcase: &Briefcase,
    ) -> Result<(), Rejection> {
        let Some(fleet) = &self.audit_fleet else {
            return Ok(());
        };
        let injected = briefcase.names();
        let findings =
            tacoma_script::audit_script(fleet, contact.as_str(), "CODE", script, injected);
        if tacoma_script::audit_has_errors(&findings) {
            return Err(Rejection {
                stage: &AUDIT,
                report: tacoma_script::render_audit(&findings),
            });
        }
        Ok(())
    }

    /// Checks `script`'s static bound against the configured budget and
    /// stamps the proven finite worst-case step count, if there is one, into
    /// the briefcase's [`wellknown::COST`] folder.
    fn cost(&self, script: &Script, briefcase: &mut Briefcase) -> Result<(), Rejection> {
        let Some(gate) = self.cost_gate else {
            return Ok(());
        };
        let refuse = |report| Rejection {
            stage: &COST,
            report,
        };
        let bound = script.cost().map_err(|e| {
            refuse(format!(
                "cost: CODE folder does not parse: {}",
                e.render("CODE")
            ))
        })?;
        gate.check(&bound).map_err(refuse)?;
        if let Some(hi) = bound.steps.hi {
            briefcase.put_u64(wellknown::COST, hi);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::briefcase::Briefcase;
    use crate::folder::Folder;
    use crate::system::TacomaSystem;
    use crate::wellknown;
    use tacoma_net::{Duration, LinkSpec, Topology};
    use tacoma_util::{AgentName, SiteId};

    #[test]
    fn defective_code_folders_are_rejected_at_install_time() {
        // `$x` is read before anything assigns it: taco-vet flags this as an
        // error, so the briefcase must be refused before the meet request is
        // even queued — not fail later, mid-migration.
        let mut bc = Briefcase::new();
        bc.put(wellknown::CODE, Folder::of_str("set y $x"));

        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 7);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 1);
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert_eq!(s.remote_meets, 0, "nothing was shipped anywhere");
        assert!(sys.trace().iter().any(|l| l.contains("use-before-set")));

        // The synchronous entry point surfaces the full report as an error.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc.clone())
            .unwrap_err();
        assert!(err.to_string().contains("use-before-set"));
        assert_eq!(sys.stats().scripts_rejected, 2);

        // A script the vet passes is admitted, and with no interpreter
        // installed here it fails where an unvetted one would have: at
        // dispatch time.
        let mut clean = Briefcase::new();
        clean.put(wellknown::CODE, Folder::of_str("set x 1\nreturn done"));
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), clean);
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 2);
        assert_eq!(s.meets_requested, 1);
        assert_eq!(
            s.meets_failed, 1,
            "no interpreter installed: runtime failure"
        );
    }

    #[test]
    fn clean_code_folders_pass_the_vet_gate() {
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("set x 1\nbc_put NOTE $x\nreturn done"),
        );
        let mut sys = TacomaSystem::new(Topology::full_mesh(2, LinkSpec::default()), 7);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 0);
        assert_eq!(s.meets_requested, 1);
    }

    #[test]
    fn fleet_audit_rejects_what_the_per_script_vet_cannot_see() {
        // `move_to 99` is perfectly well-formed in isolation — the per-script
        // vet passes it — but the fleet has only 4 sites, which only the
        // fleet audit knows.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("bc_push LOG [my_site]\nmove_to 99\nreturn moving"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(4, LinkSpec::default()))
            .audit_fleet(tacoma_script::AuditConfig::new().deliver("LOG"))
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.scripts_rejected, 0, "the per-script vet saw nothing");
        assert_eq!(s.audits_rejected, 1);
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert!(sys
            .trace()
            .iter()
            .any(|l| l.contains("itinerary-out-of-range")));

        // The synchronous entry point surfaces the findings too.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc.clone())
            .unwrap_err();
        assert!(err.to_string().contains("itinerary-out-of-range"));
        assert_eq!(sys.stats().audits_rejected, 2);
        assert_eq!(sys.stats().meets_requested, 0);

        // Without an audit config (the default) the same briefcase is
        // admitted: the fleet audit is strictly opt-in.
        let mut raw = TacomaSystem::builder()
            .topology(Topology::full_mesh(4, LinkSpec::default()))
            .build();
        raw.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        raw.run_until_quiescent(100);
        assert_eq!(raw.stats().audits_rejected, 0);
        assert_eq!(raw.stats().meets_requested, 1);
    }

    #[test]
    fn fleet_audit_admits_clean_scripts_and_tolerates_warnings() {
        // Reads HOPS (present in the briefcase, so auto-injected) and writes
        // NOTE, which nothing reads — a dead-folder-write *warning*, and
        // warnings do not reject.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("set h [bc_pop HOPS]\nbc_put NOTE $h\nreturn ok"),
        );
        bc.put("HOPS", Folder::of_str("3"));
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .audit_fleet(tacoma_script::AuditConfig::new())
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.audits_rejected, 0);
        assert_eq!(s.meets_requested, 1);
    }

    #[test]
    fn cost_gate_rejects_certain_death_and_stamps_bounds() {
        // A loop whose proven *lower* bound (202 steps) exceeds the budget:
        // running it is guaranteed to die on the interpreter's step budget,
        // so even the lenient gate refuses it up front.
        let mut heavy = Briefcase::new();
        heavy.put(
            wellknown::CODE,
            Folder::of_str("set i 0\nwhile {$i < 100} { incr i }\nreturn done"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(50, 8))
            .build();
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), heavy.clone());
        sys.run_until_quiescent(100);
        let s = sys.stats();
        assert_eq!(s.costs_rejected, 1);
        assert_eq!(s.scripts_rejected, 0, "the vet saw nothing wrong");
        assert_eq!(s.meets_requested, 0, "rejected before the request counts");
        assert!(sys.trace().iter().any(|l| l.contains("lower bound")));

        // The synchronous entry point surfaces the reason too.
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), heavy.clone())
            .unwrap_err();
        assert!(err.to_string().contains("cost"));
        assert_eq!(sys.stats().costs_rejected, 2);

        // A light script passes and is annotated with its proven bound.
        let mut light = Briefcase::new();
        light.put(wellknown::CODE, Folder::of_str("set x 1\nreturn ok"));
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), light);
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().costs_rejected, 2);
        assert_eq!(sys.stats().meets_requested, 1);

        // Without a gate (the default) the heavy briefcase is admitted: the
        // cost gate is strictly opt-in.
        let mut raw = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .build();
        raw.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), heavy);
        raw.run_until_quiescent(100);
        assert_eq!(raw.stats().costs_rejected, 0);
        assert_eq!(raw.stats().meets_requested, 1);
    }

    #[test]
    fn strict_cost_gate_requires_proven_finite_bounds() {
        // Input-bound (foreach over a runtime list) has no finite static
        // bound: the lenient gate admits it, the strict gate refuses it.
        let mut bc = Briefcase::new();
        bc.put(
            wellknown::CODE,
            Folder::of_str("foreach x [bc_list ITEMS] { bc_push OUT $x }\nreturn ok"),
        );
        let mut lenient = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(1000, 8))
            .build();
        lenient.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc.clone());
        lenient.run_until_quiescent(100);
        assert_eq!(lenient.stats().costs_rejected, 0);
        assert_eq!(lenient.stats().meets_requested, 1);

        let mut strict = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::strict(1000, 8))
            .build();
        strict.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        strict.run_until_quiescent(100);
        assert_eq!(strict.stats().costs_rejected, 1);
        assert_eq!(strict.stats().meets_requested, 0);
    }

    #[test]
    fn scheduled_meets_are_cost_gated_at_schedule_time() {
        let mut heavy = Briefcase::new();
        heavy.put(
            wellknown::CODE,
            Folder::of_str("set i 0\nwhile {$i < 100} { incr i }\nreturn done"),
        );
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(2, LinkSpec::default()))
            .cost_gate(tacoma_script::CostGate::lenient(50, 8))
            .build();
        sys.schedule_meet(
            SiteId(0),
            AgentName::new(wellknown::AG_TAC),
            heavy,
            Duration::from_millis(1),
        );
        // Rejected synchronously: no timer armed, nothing fires.
        assert_eq!(sys.stats().costs_rejected, 1);
        sys.run_until_quiescent(100);
        assert_eq!(sys.stats().timer_meets, 0);
        assert_eq!(sys.stats().meets_requested, 0);
    }

    #[test]
    fn wellknown_agents_are_modelled_by_the_audit() {
        // Every wellknown agent the kernel installs must be known to the
        // audit's implicit-agent model, or literal meets against it would
        // dangle out of the meet graph.
        for agent in wellknown::AGENTS {
            assert!(
                tacoma_script::audit::WELLKNOWN_AGENTS.contains(agent),
                "wellknown agent '{agent}' missing from the audit model"
            );
        }
    }
}
