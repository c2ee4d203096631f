//! StormCast: the paper's storm-prediction application, agent vs client-server.
//!
//! Run with `cargo run --example stormcast_forecast`.
//!
//! Synthetic Arctic weather sensors accumulate readings at their own sites; a
//! mobile collector agent filters them where they live and carries only a
//! per-site summary to the expert system, while the client-server variant
//! ships every raw reading.  The example prints the bandwidth the two plans
//! consumed and the warnings issued — the paper's §1 claim in one screen.

use tacoma::apps::{run_stormcast, StormcastConfig, StormcastPlan};

fn main() {
    println!("StormCast forecast run: 12 sensor sites, 500 readings each, storm over 1/4 of them");
    println!();
    println!(
        "{:<28} {:>14} {:>12} {:>10}",
        "plan", "bytes on wire", "latency(ms)", "warnings"
    );
    let mut results = Vec::new();
    for plan in [StormcastPlan::Agent, StormcastPlan::ClientServer] {
        let result = run_stormcast(&StormcastConfig {
            sensors: 12,
            readings_per_sensor: 500,
            storm_fraction: 0.25,
            plan,
            seed: 1995,
        });
        println!(
            "{:<28} {:>14} {:>12.2} {:>10}",
            result.plan.label(),
            result.network_bytes,
            result.latency_ms,
            result.warnings
        );
        results.push(result);
    }
    let factor = results[1].network_bytes as f64 / results[0].network_bytes.max(1) as f64;
    println!();
    println!(
        "the agent plan conserved {factor:.1}x bandwidth while issuing the same {} warning(s)",
        results[0].warnings
    );
    assert_eq!(results[0].warnings, results[1].warnings);
}
