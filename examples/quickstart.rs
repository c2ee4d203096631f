//! Quickstart: a mobile agent that tours the network and reports back.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example builds a five-site simulated network with the standard TACOMA
//! system agents, then launches a TacoScript agent from site 0 that visits
//! every other site using the paper's migration idiom (set `HOST`/`CONTACT`,
//! meet `rexec`), leaves a guest-book entry at each, and couriers a summary
//! folder home.

use tacoma::agents::{script_briefcase, standard_agents};
use tacoma::prelude::*;

fn main() {
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(5, LinkSpec::default()))
        .seed(2026)
        .with_agents(standard_agents)
        .build();

    // The touring agent lives in its own .taco file so `taco-vet` (and the CI
    // lint job) can check it without compiling this example.
    let code = include_str!("scripts/quickstart_tour.taco");

    let mut bc = script_briefcase(code, &[]);
    bc.put_string("ORIGCODE", code);
    for site in ["1", "2", "3", "4"] {
        bc.folder_mut("ITINERARY").enqueue(site);
    }
    sys.inject_meet(SiteId(0), AgentName::new("ag_tac"), bc);

    let events = sys.run_until_quiescent(100_000);
    println!("simulation processed {events} events in {}", sys.now());
    println!("network moved {}", sys.net_metrics().total_bytes());
    println!();

    for s in 0..sys.site_count() {
        let visitors = sys
            .place(SiteId(s))
            .cabinets()
            .get("guestbook")
            .and_then(|c| c.folder_ref("VISITORS").map(|f| f.strings()))
            .unwrap_or_default();
        println!(
            "site {s}: guest book has {} entr(y/ies): {:?}",
            visitors.len(),
            visitors
        );
    }

    let stats = sys.stats();
    println!();
    println!(
        "meets completed: {}, migrations: {}, failures: {}",
        stats.meets_completed, stats.remote_meets, stats.meets_failed
    );
    assert_eq!(stats.meets_failed, 0, "the tour should complete cleanly");
}
