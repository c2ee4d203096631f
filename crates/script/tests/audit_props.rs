//! Property tests for the fleet audit.
//!
//! The audit runs inside the kernel's install gate on a `CODE` folder from
//! anyone, composed with whatever fleet the system was built with, so it
//! must be total: any fleet of scripts and natives, any site count and any
//! injected or delivered folders give findings, never a panic, in the
//! documented order, and the same fleet always gives the same findings.

use proptest::prelude::*;
use proptest::TestRng;
use std::cmp::Reverse;
use tacoma_script::{audit, audit_script, AuditConfig, AuditFinding, Script};

#[path = "common/grammar.rs"]
mod grammar;

const FOLDERS: &[&str] = &["CODE", "HOPS", "DATA", "Q", "OUT", "LOG", "TRACE", "ERROR"];
const NATIVES: &[&str] = &["rexec", "courier", "helper", "ag_tac"];
const SITES: &[Option<u32>] = &[None, Some(0), Some(1), Some(7), Some(u32::MAX)];

/// One agent's code: a bounded grammar script, sometimes with a literal
/// itinerary stop, or Tcl soup.
fn code(rng: &mut TestRng) -> String {
    match rng.below(3) {
        0 => grammar::build_script(rng.next_u64()),
        1 => {
            let site = rng.below(9) as i64 - 1;
            format!("{}move_to {site}\n", grammar::build_script(rng.next_u64()))
        }
        _ => "[{}$\\[\\]\"; \nsetwhileafobcx0-9]{0,160}".generate(rng),
    }
}

/// A fleet of 1–4 agents, some native, with a random site count and random
/// injected and delivered folders.
fn fleet(seed: u64) -> AuditConfig {
    let mut rng = TestRng::deterministic(seed);
    let mut config = AuditConfig::new();
    if let Some(n) = SITES[rng.below(SITES.len() as u64) as usize] {
        config.set_site_count(n);
    }
    for i in 0..1 + rng.below(4) {
        if rng.below(4) == 0 {
            config.add_native(NATIVES[rng.below(NATIVES.len() as u64) as usize]);
        } else {
            config.add_agent(format!("a{i}"), format!("a{i}.taco"), code(&mut rng));
        }
    }
    for &folder in FOLDERS {
        match rng.below(4) {
            0 => config.add_injected(folder),
            1 => config.add_delivered(folder),
            _ => {}
        }
    }
    config
}

fn rendered(findings: &[AuditFinding]) -> Vec<String> {
    findings.iter().map(|f| format!("{f:?}")).collect()
}

proptest! {
    /// Never a panic, findings sorted by source, position, severity (errors
    /// first) and code, and the same fleet gives the same findings.
    #[test]
    fn audit_is_total_sorted_and_deterministic(seed in any::<u64>()) {
        let config = fleet(seed);
        let findings = audit(&config);
        let key = |f: &AuditFinding| (f.source.clone(), f.diag.span, Reverse(f.diag.severity), f.diag.code);
        for pair in findings.windows(2) {
            prop_assert!(key(&pair[0]) <= key(&pair[1]), "{:?}", rendered(&findings));
        }
        prop_assert_eq!(rendered(&findings), rendered(&audit(&config.clone())));
    }

    /// The install gate's entry point, which takes the parsed record and
    /// the briefcase's folders, agrees with declaring the script.
    #[test]
    fn a_parsed_script_audits_like_a_declared_one(seed in any::<u64>(), name in 0u64..3) {
        let config = fleet(seed);
        let mut rng = TestRng::deterministic(!seed);
        let src = code(&mut rng);
        let name = format!("a{name}");
        let mut declared = config.clone();
        declared.add_agent(name.as_str(), "CODE", src.as_str());
        declared.add_injected("CODE");
        declared.add_injected("HOPS");
        let via = audit_script(&config, &name, "CODE", &Script::parse(&src), ["CODE", "HOPS"]);
        prop_assert_eq!(rendered(&via), rendered(&audit(&declared)));
    }
}
