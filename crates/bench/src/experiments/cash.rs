//! Electronic cash and audits (§3): E5 double spending and E6 audited
//! exchange.

use crate::runner::RunOpts;
use crate::table::Table;
use tacoma_cash::{AuditCourt, ExchangeConfig, ExchangeProtocol, Mint, PartyBehavior};
use tacoma_util::DetRng;

// ---------------------------------------------------------------------------
// E5 — electronic cash and double spending
// ---------------------------------------------------------------------------

/// E5: double-spend acceptance with and without the validation agent.
pub fn e5_cash(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E5 — the validation agent foils double spending",
        "§3: \"an attempt by an agent to spend retired or copied ECUs will be foiled if a validation agent is always consulted\"",
        &["wallet ECUs", "transfers", "replay rate", "accepted double-spends (no validation)", "accepted (with validation)", "mint state"],
    );
    let sweeps: &[(usize, usize, f64)] = if quick {
        &[(100, 200, 0.25)]
    } else {
        &[
            (10, 100, 0.10),
            (100, 500, 0.10),
            (100, 500, 0.50),
            (1_000, 2_000, 0.25),
        ]
    };
    for &(ecus, transfers, replay_rate) in sweeps {
        let mut mint = Mint::new(5);
        let mut wallet = mint.issue_wallet(ecus, 10);
        let mut rng = DetRng::new(55);
        let mut spent: Vec<tacoma_cash::Ecu> = Vec::new();
        let mut naive_accepted = 0u64;
        let mut validated_accepted = 0u64;
        for _ in 0..transfers {
            let replay = !spent.is_empty() && rng.chance(replay_rate);
            let bills = if replay {
                vec![spent[rng.index(spent.len())]]
            } else {
                match wallet.withdraw_at_least(10) {
                    Some(b) => b,
                    None => break,
                }
            };
            // A recipient that skips validation accepts anything well-formed.
            naive_accepted += u64::from(replay);
            // A recipient that consults the validation agent first:
            match mint.validate_and_reissue(&bills) {
                Ok(fresh) => {
                    if replay {
                        validated_accepted += 1;
                    } else {
                        spent.extend(bills);
                        // The recipient banks the fresh bills; conserve value by
                        // returning them to the circulating wallet.
                        wallet.deposit_all(fresh);
                    }
                }
                Err(_) => {
                    if !replay {
                        // A fresh bill should never be rejected.
                        wallet.deposit_all(bills);
                    }
                }
            }
        }
        table.row(vec![
            ecus.to_string(),
            transfers.to_string(),
            format!("{:.0}%", replay_rate * 100.0),
            naive_accepted.to_string(),
            validated_accepted.to_string(),
            format!("{} serials", mint.outstanding()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E6 — audited exchange
// ---------------------------------------------------------------------------

/// E6: cheat detection by audits, and message overhead vs a transaction baseline.
pub fn e6_exchange(opts: RunOpts) -> Table {
    let quick = opts.quick;
    let mut table = Table::new(
        "E6 — audits instead of transactions",
        "§3: participants document actions; \"a third party … can perform an audit to find violations of a contract\"",
        &["exchanges", "cheat rate", "cheaters detected", "missed", "false accusations", "msgs/exchange (audit)", "msgs/exchange (2PC baseline)"],
    );
    let sweeps: &[(u64, f64)] = if quick {
        &[(100, 0.2)]
    } else {
        &[(200, 0.1), (200, 0.3), (500, 0.2)]
    };
    for &(exchanges, cheat_rate) in sweeps {
        let mut mint = Mint::new(6);
        let mut wallet = mint.issue_wallet(exchanges as usize * 2, 10);
        let mut rng = DetRng::new(66);
        let mut court = AuditCourt::new();
        let mut cheaters = 0u64;
        let mut messages = 0u64;
        for id in 0..exchanges {
            let customer = if rng.chance(cheat_rate) {
                PartyBehavior::Cheats
            } else {
                PartyBehavior::Honest
            };
            let provider = if rng.chance(cheat_rate) {
                PartyBehavior::Cheats
            } else {
                PartyBehavior::Honest
            };
            if customer == PartyBehavior::Cheats || provider == PartyBehavior::Cheats {
                cheaters += 1;
            }
            let config = ExchangeConfig {
                exchange_id: id,
                price: 10,
                customer_key: 0xAA00 + id,
                provider_key: 0xBB00 + id,
                customer,
                provider,
            };
            let outcome = ExchangeProtocol::run(&mut mint, config, &mut wallet);
            messages += outcome.messages as u64;
            court.audit_outcome(
                &outcome,
                config.customer_key,
                config.provider_key,
                customer == PartyBehavior::Honest,
                provider == PartyBehavior::Honest,
            );
        }
        let stats = court.stats();
        table.row(vec![
            exchanges.to_string(),
            format!("{:.0}%", cheat_rate * 100.0),
            format!("{}/{}", cheaters - stats.missed, cheaters),
            stats.missed.to_string(),
            stats.false_accusations.to_string(),
            format!("{:.1}", messages as f64 / exchanges as f64),
            // Two-phase commit with a coordinator: prepare+vote for both
            // parties plus commit+ack — and it requires a trusted coordinator.
            "6.0 (+trusted coordinator)".to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_validation_blocks_all_double_spends() {
        let table = e5_cash(RunOpts::new(true));
        assert!(!table.rows[0][5].is_empty());
        let with_validation: u64 = table.rows[0][4].parse().unwrap();
        let without: u64 = table.rows[0][3].parse().unwrap();
        assert_eq!(with_validation, 0);
        assert!(without > 0);
    }
}
