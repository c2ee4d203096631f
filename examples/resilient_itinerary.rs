//! Resilient itinerary: rear guards carrying a computation past site failures.
//!
//! Run with `cargo run --example resilient_itinerary`.
//!
//! Two identical fleets of itinerary-following agents run over the same
//! failure schedule; one fleet leaves rear guards behind (§5 of the paper),
//! the other does not.  The example prints completion rates and the guards'
//! overhead.

use tacoma_bench::{run_itinerary_experiment, FtConfig};

fn main() {
    let base = FtConfig {
        sites: 10,
        itinerary_len: 7,
        travellers: 30,
        crash_prob: 0.4,
        crash_window_ms: 15,
        downtime_ms: (500, 3_000),
        seed: 31,
        ..Default::default()
    };

    println!("30 travellers, 7-site itineraries, ~40% of sites suffer an outage mid-journey");
    println!();
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "configuration", "completed", "rate", "dup. visits", "bytes moved"
    );
    let mut rates = Vec::new();
    for guarded in [false, true] {
        let result = run_itinerary_experiment(&FtConfig {
            guarded,
            ..base.clone()
        });
        println!(
            "{:<16} {:>12} {:>11.0}% {:>12} {:>14}",
            if guarded { "rear guards" } else { "unguarded" },
            result.completed,
            result.completion_rate * 100.0,
            result.duplicate_visits,
            result.network_bytes
        );
        rates.push(result.completion_rate);
    }
    println!();
    println!(
        "rear guards lifted completion from {:.0}% to {:.0}%",
        rates[0] * 100.0,
        rates[1] * 100.0
    );
    assert!(rates[1] >= rates[0]);
}
