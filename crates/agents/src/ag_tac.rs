//! The `ag_tac` agent: the TacoScript interpreter as an agent.
//!
//! This is the reproduction's equivalent of the prototype's `ag_tcl` (§6):
//! "the most basic of these is ag_tcl, which pops a Tcl procedure from the
//! CODE folder and executes that procedure."  Mobile script agents are
//! therefore nothing more than a briefcase whose `CODE` folder holds
//! TacoScript; any site with an `ag_tac` agent can execute them, which is what
//! lets an agent "move to a destination site having a completely different
//! machine language."
//!
//! The bridge between the script and the kernel is the private `CtxHost`, which
//! implements the interpreter's [`ScriptHost`] trait on top of the running
//! meet's [`MeetCtx`] and briefcase:
//!
//! * `bc_*` commands read and write the agent's briefcase;
//! * `cab_*` commands read and write the site's file cabinets;
//! * `meet X` performs a nested local meet, passing the current briefcase and
//!   merging the folders the callee returns;
//! * `move_to S ?contact?` queues a migration of the briefcase (with the CODE
//!   folder restored) to site `S`;
//! * `send_remote S contact folders...` ships copies of the named folders to
//!   an agent at another site (the courier pattern).

use tacoma_core::prelude::*;
use tacoma_core::Folder;
use tacoma_script::{Interp, InterpConfig, ScriptError, ScriptHost};
use tacoma_util::SiteId as USiteId;

/// Default step budget for one script execution.
pub const DEFAULT_STEP_BUDGET: u64 = 200_000;

/// The interpreter agent.
#[derive(Debug)]
pub struct AgTacAgent {
    config: InterpConfig,
}

impl Default for AgTacAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl AgTacAgent {
    /// Creates the agent with the default step budget.
    pub fn new() -> Self {
        AgTacAgent {
            config: InterpConfig {
                max_steps: DEFAULT_STEP_BUDGET,
                max_depth: 64,
            },
        }
    }

    /// Creates the agent with an explicit step budget (used by the runaway-
    /// agent tests and the electronic-cash motivation of §3).
    pub fn with_step_budget(max_steps: u64) -> Self {
        AgTacAgent {
            config: InterpConfig {
                max_steps,
                max_depth: 64,
            },
        }
    }
}

impl Agent for AgTacAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::AG_TAC)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        // "Pops a procedure from the CODE folder and executes it."
        let code = bc
            .folder_mut(wellknown::CODE)
            .pop_str()
            .ok_or_else(|| TacomaError::missing(wellknown::CODE))?;
        if bc
            .folder(wellknown::CODE)
            .map(|f| f.is_empty())
            .unwrap_or(false)
        {
            bc.take(wellknown::CODE);
        }
        let outcome = {
            let mut host = CtxHost {
                ctx,
                bc: &mut bc,
                code: code.clone(),
            };
            let mut interp = Interp::with_config(&mut host, self.config);
            interp.run(&code)
        };
        match outcome {
            Ok(result) => {
                if !result.result.is_empty() {
                    bc.folder_mut(wellknown::REPLY).push_str(&result.result);
                }
                Ok(bc)
            }
            Err(ScriptError::BudgetExceeded) => Err(TacomaError::BudgetExceeded(format!(
                "script exceeded {} steps",
                self.config.max_steps
            ))),
            Err(e) => Err(TacomaError::Script(e.to_string())),
        }
    }
}

/// Bridges the interpreter's host interface onto a live meet.
struct CtxHost<'c, 'a> {
    ctx: &'c mut MeetCtx<'a>,
    bc: &'c mut Briefcase,
    /// The script text, restored into migrating copies of the briefcase.
    code: String,
}

impl CtxHost<'_, '_> {
    fn travelling_briefcase(&self) -> Briefcase {
        let mut out = self.bc.clone();
        out.folder_mut(wellknown::CODE).push_str(&self.code);
        out
    }
}

impl ScriptHost for CtxHost<'_, '_> {
    fn bc_put(&mut self, folder: &str, value: &str) {
        self.bc.put(folder.to_string(), Folder::of_str(value));
    }
    fn bc_push(&mut self, folder: &str, value: &str) {
        self.bc.folder_mut(folder).push_str(value);
    }
    fn bc_pop(&mut self, folder: &str) -> Option<String> {
        self.bc.folder_mut(folder).pop_str()
    }
    fn bc_dequeue(&mut self, folder: &str) -> Option<String> {
        self.bc.folder_mut(folder).dequeue_str()
    }
    fn bc_peek(&mut self, folder: &str) -> Option<String> {
        self.bc.folder(folder).and_then(|f| f.peek_str())
    }
    fn bc_list(&mut self, folder: &str) -> Vec<String> {
        self.bc
            .folder(folder)
            .map(|f| f.strings())
            .unwrap_or_default()
    }
    fn bc_delete(&mut self, folder: &str) {
        self.bc.take(folder);
    }

    fn cab_append(&mut self, cabinet: &str, folder: &str, value: &str) {
        self.ctx.cabinet(cabinet).append_str(folder, value);
    }
    fn cab_contains(&mut self, cabinet: &str, folder: &str, value: &str) -> bool {
        self.ctx
            .cabinet(cabinet)
            .folder_contains(folder, value.as_bytes())
    }
    fn cab_list(&mut self, cabinet: &str, folder: &str) -> Vec<String> {
        self.ctx
            .cabinet(cabinet)
            .folder_ref(folder)
            .map(|f| f.strings())
            .unwrap_or_default()
    }
    fn cab_pop(&mut self, cabinet: &str, folder: &str) -> Option<String> {
        self.ctx
            .cabinet(cabinet)
            .pop(folder)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    fn meet(&mut self, agent: &str) -> Result<(), String> {
        let request = self.bc.clone();
        match self.ctx.meet_local(&AgentName::from(agent), request) {
            Ok(reply) => {
                for (name, folder) in reply.iter() {
                    self.bc.put(name.to_string(), folder.clone());
                }
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn move_to(&mut self, site: u64, contact: &str) -> Result<(), String> {
        let target = USiteId(site as u32);
        if site >= self.ctx.site_count() as u64 {
            return Err(format!("site {site} does not exist"));
        }
        if !self.ctx.site_is_up(target) {
            return Err(format!("site {site} is down"));
        }
        let travelling = self.travelling_briefcase();
        self.ctx.remote_meet(
            target,
            AgentName::from(contact),
            travelling,
            TransportKind::Tcp,
        );
        Ok(())
    }

    fn send_remote(&mut self, site: u64, contact: &str, folders: &[String]) -> Result<(), String> {
        let target = USiteId(site as u32);
        if site >= self.ctx.site_count() as u64 {
            return Err(format!("site {site} does not exist"));
        }
        if !self.ctx.site_is_up(target) {
            return Err(format!("site {site} is down"));
        }
        let mut out = Briefcase::new();
        for name in folders {
            if name == wellknown::CODE {
                out.folder_mut(wellknown::CODE).push_str(&self.code);
            } else if let Some(folder) = self.bc.folder(name) {
                out.put(name.clone(), folder.clone());
            }
        }
        self.ctx
            .remote_meet(target, AgentName::from(contact), out, TransportKind::Tcp);
        Ok(())
    }

    fn site(&self) -> u64 {
        self.ctx.site().0 as u64
    }
    fn site_count(&self) -> u64 {
        self.ctx.site_count() as u64
    }
    fn neighbors(&self) -> Vec<u64> {
        self.ctx.neighbors().iter().map(|s| s.0 as u64).collect()
    }
    fn random(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.ctx.rng().next_below(bound)
        }
    }
    fn now_micros(&self) -> u64 {
        self.ctx.now().micros()
    }
    fn log(&mut self, message: &str) {
        self.ctx.log(message.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::{script_briefcase, standard_agents};
    use tacoma_core::TacomaSystem;
    use tacoma_net::{LinkSpec, Topology};

    fn system(sites: u32) -> TacomaSystem {
        TacomaSystem::builder()
            .topology(Topology::full_mesh(sites, LinkSpec::default()))
            .seed(11)
            .with_agents(standard_agents)
            .build()
    }

    #[test]
    fn missing_code_is_an_error() {
        let mut sys = system(1);
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::AG_TAC),
                Briefcase::new(),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::MissingFolder(_)));
    }

    #[test]
    fn script_reads_and_writes_briefcase_and_cabinets() {
        let mut sys = system(1);
        let code = r#"
            set x [bc_peek INPUT]
            bc_push OUTPUT [expr $x * 2]
            cab_append results LOG "computed [expr $x * 2]"
            return ok
        "#;
        let bc = script_briefcase(code, &[("INPUT", "21")]);
        let reply = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc)
            .unwrap();
        assert_eq!(reply.peek_string("OUTPUT").as_deref(), Some("42"));
        assert_eq!(reply.peek_string(wellknown::REPLY).as_deref(), Some("ok"));
        let cab = sys.place(SiteId(0)).cabinets().get("results").unwrap();
        assert!(cab.payload_bytes() > 0);
    }

    #[test]
    fn script_error_is_reported() {
        let mut sys = system(1);
        let bc = script_briefcase("this_is_not_a_command", &[]);
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc)
            .unwrap_err();
        assert!(matches!(err, TacomaError::Script(_)));
    }

    #[test]
    fn runaway_script_is_stopped_by_the_budget() {
        let mut sys = system(1);
        sys.register_agent(SiteId(0), Box::new(AgTacAgent::with_step_budget(1_000)));
        let bc = script_briefcase("while {1} { set x 1 }", &[]);
        let err = sys
            .try_direct_meet(SiteId(0), &AgentName::new(wellknown::AG_TAC), bc)
            .unwrap_err();
        assert!(matches!(err, TacomaError::BudgetExceeded(_)));
    }

    #[test]
    fn script_meets_rexec_to_migrate_the_paper_way() {
        // The paper's migration idiom: the agent sets HOST and CONTACT and
        // meets rexec, whose CODE folder re-executes at the destination.
        let mut sys = system(3);
        let code = r#"
            set hops [bc_peek HOPS]
            cab_append visits LOG "hop $hops at [my_site]"
            if {$hops > 0} {
                bc_put HOPS [expr $hops - 1]
                bc_put HOST [expr ([my_site] + 1) % [site_count]]
                bc_put CONTACT ag_tac
                bc_push CODE [bc_peek ORIGCODE]
                meet rexec
            }
            return done
        "#;
        // The script carries a copy of itself in ORIGCODE so it can re-arm the
        // CODE folder before meeting rexec (ag_tac pops CODE on execution).
        let mut bc = script_briefcase(code, &[("HOPS", "2")]);
        bc.put_string("ORIGCODE", code);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(10_000);

        // hops 2 at site0, hop 1 at site1, hop 0 at site2.
        for s in 0..3 {
            let cab = sys.place(SiteId(s)).cabinets().get("visits");
            assert!(cab.is_some(), "site {s} should have a visit record");
        }
        assert_eq!(sys.stats().remote_meets, 2);
        assert_eq!(sys.stats().meets_failed, 0);
    }

    #[test]
    fn move_to_ships_code_and_state() {
        let mut sys = system(2);
        let code = r#"
            if {[my_site] == 0} {
                bc_push TRAIL "left site 0"
                move_to 1
                return moving
            } else {
                cab_append inbox TRAIL [bc_peek TRAIL]
                return arrived
            }
        "#;
        let bc = script_briefcase(code, &[]);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(1_000);
        let cab = sys.place(SiteId(1)).cabinets().get("inbox").unwrap();
        assert!(cab.payload_bytes() > 0, "the trail should arrive at site 1");
        assert_eq!(sys.stats().meets_failed, 0);
        assert_eq!(sys.stats().remote_meets, 1);
    }

    #[test]
    fn move_to_dead_or_unknown_site_fails_catchably() {
        let mut sys = system(2);
        sys.net_mut().crash_now(SiteId(1));
        let code = r#"
            set failed_dead [catch {move_to 1}]
            set failed_missing [catch {move_to 99}]
            bc_push CHECK "$failed_dead$failed_missing"
            return checked
        "#;
        let reply = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::AG_TAC),
                script_briefcase(code, &[]),
            )
            .unwrap();
        assert_eq!(reply.peek_string("CHECK").as_deref(), Some("11"));
    }

    #[test]
    fn nested_meet_merges_reply_folders() {
        // A native helper agent that the script meets locally.
        struct Doubler;
        impl Agent for Doubler {
            fn name(&self) -> AgentName {
                AgentName::new("doubler")
            }
            fn meet(&mut self, _ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
                let x = bc
                    .peek_string("REQUEST")
                    .and_then(|s| s.parse::<i64>().ok())
                    .unwrap_or(0);
                bc.put_string("REPLY_VALUE", (x * 2).to_string());
                Ok(bc)
            }
        }
        let mut sys = system(1);
        sys.register_agent(SiteId(0), Box::new(Doubler));
        let code = r#"
            bc_put REQUEST 8
            meet doubler
            return [bc_peek REPLY_VALUE]
        "#;
        let reply = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::AG_TAC),
                script_briefcase(code, &[]),
            )
            .unwrap();
        assert_eq!(reply.peek_string(wellknown::REPLY).as_deref(), Some("16"));
    }
}
