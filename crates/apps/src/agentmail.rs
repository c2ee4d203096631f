//! AgentMail: the paper's "interactive mail system where messages are
//! implemented by agents" (§6).
//!
//! A mail message is a TacoScript agent: its CODE folder travels to the
//! recipient's home site, consults the site-local `mail_forwarding` cabinet
//! (users move; their old home site knows where they went), and either
//! deposits its body into the recipient's `mailbox` cabinet or hops onward.
//! Because the message is an agent, forwarding needs no central server and no
//! cooperation from the sender — exactly the argument the paper is making.

use tacoma_agents::{script_briefcase, standard_agents};
use tacoma_core::prelude::*;
use tacoma_core::TacomaSystem;
use tacoma_net::{LinkSpec, Topology};
use tacoma_util::DetRng;

/// Cabinet holding delivered mail, one folder per user.
pub const MAILBOX_CABINET: &str = "mailbox";
/// Cabinet holding forwarding addresses: folder per user, top element = new site.
pub const FORWARDING_CABINET: &str = "mail_forwarding";

/// Repository-relative path of the mail-message agent's source, so tooling
/// (vet reports, the fleet audit) can point diagnostics at the real file
/// instead of an embedded-string placeholder.
pub const MAIL_AGENT_SOURCE: &str = "crates/apps/src/mail_agent.taco";

/// The TacoScript source of a mail-message agent, shipped as a real `.taco`
/// file (see [`MAIL_AGENT_SOURCE`]).
///
/// Expects briefcase folders `TO` (user name), `BODY` (message text), and
/// `HOPS` (forwarding hops used so far).
pub fn mail_agent_code() -> &'static str {
    include_str!("mail_agent.taco")
}

/// Deterministic directory of an AgentMail *population*: millions of users
/// modeled as rate processes, not resident objects.
///
/// The open-arrival experiments (E18/E19) drive mail traffic for user counts
/// far beyond anything that could be materialised per-user.  The directory
/// answers the only questions a workload generator needs — where does user
/// `u` live, and how many users live at site `s` — in `O(1)` from closed
/// forms, so a six-million-user federation costs sixteen bytes.  Users are
/// homed round-robin (`u % sites`), which keeps per-site populations exactly
/// balanced and the arithmetic exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserDirectory {
    users: u64,
    sites: u32,
}

impl UserDirectory {
    /// A directory of `users` users homed round-robin across `sites` sites.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    pub fn new(users: u64, sites: u32) -> Self {
        assert!(sites > 0, "a user directory needs at least one site");
        UserDirectory { users, sites }
    }

    /// Total users in the population.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Sites the population is spread over.
    pub fn sites(&self) -> u32 {
        self.sites
    }

    /// Home site of user `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn home(&self, user: u64) -> SiteId {
        assert!(user < self.users, "user {user} outside population");
        SiteId((user % self.sites as u64) as u32)
    }

    /// Exact number of users homed at `site` — closed form, no enumeration.
    pub fn population(&self, site: SiteId) -> u64 {
        if site.0 >= self.sites {
            return 0;
        }
        let base = self.users / self.sites as u64;
        base + u64::from((site.0 as u64) < self.users % self.sites as u64)
    }

    /// This site's share of the total population, for splitting an aggregate
    /// arrival rate into per-site rates.
    pub fn share(&self, site: SiteId) -> f64 {
        if self.users == 0 {
            0.0
        } else {
            self.population(site) as f64 / self.users as f64
        }
    }

    /// Mailbox folder name for `user` (the per-user folder inside
    /// [`MAILBOX_CABINET`]).
    pub fn mailbox_folder(user: u64) -> String {
        format!("u{user}")
    }
}

/// Parameters of the mail experiment.
#[derive(Debug, Clone)]
pub struct MailConfig {
    /// Number of sites.
    pub sites: u32,
    /// Number of users (user `u<i>` starts at site `i % sites`).
    pub users: u32,
    /// Number of messages to send between random users.
    pub messages: u32,
    /// Fraction of users that have moved (and left a forwarding address).
    pub moved_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for MailConfig {
    fn default() -> Self {
        MailConfig {
            sites: 6,
            users: 12,
            messages: 40,
            moved_fraction: 0.25,
            seed: 3,
        }
    }
}

/// What the mail experiment measured.
#[derive(Debug, Clone)]
pub struct MailResult {
    /// Messages sent.
    pub sent: u32,
    /// Messages found in some mailbox afterwards.
    pub delivered: u32,
    /// Messages delivered to users who had moved (i.e. needed forwarding).
    pub forwarded_deliveries: u32,
    /// Messages that gave up (dead letters).
    pub dead_letters: u32,
    /// Bytes moved over the network.
    pub network_bytes: u64,
}

/// Builds the system, places users, moves some of them, sends messages, and
/// counts deliveries.
pub fn run_mail_experiment(config: &MailConfig) -> MailResult {
    let mut sys = TacomaSystem::builder()
        .topology(Topology::full_mesh(config.sites, LinkSpec::default()))
        .seed(config.seed)
        .with_agents(standard_agents)
        .build();
    let mut rng = DetRng::new(config.seed ^ 0xA11);

    // Place users and move a fraction of them, leaving forwarding addresses.
    let mut home: Vec<SiteId> = (0..config.users)
        .map(|u| SiteId(u % config.sites))
        .collect();
    let mut moved = vec![false; config.users as usize];
    for u in 0..config.users as usize {
        if rng.chance(config.moved_fraction) {
            let old = home[u];
            let mut new = old;
            while new == old {
                new = SiteId(rng.next_below(config.sites as u64) as u32);
            }
            // Forwarding address at the old home site.
            sys.place_mut(old)
                .cabinets_mut()
                .cabinet(FORWARDING_CABINET)
                .append_str(format!("u{u}").as_str(), new.0.to_string());
            home[u] = new;
            moved[u] = true;
        }
    }

    // Send messages: each goes to the recipient's *original* home site (the
    // sender does not know about moves) and forwards itself if needed.
    let mut sent = 0;
    let mut to_moved = 0u32;
    for m in 0..config.messages {
        let from = rng.next_below(config.users as u64) as usize;
        let to = rng.next_below(config.users as u64) as usize;
        let original_home = SiteId(to as u32 % config.sites);
        if moved[to] {
            to_moved += 1;
        }
        let code = mail_agent_code();
        let mut bc = script_briefcase(
            code,
            &[
                ("TO", &format!("u{to}")),
                ("FROM", &format!("u{from}")),
                ("BODY", &format!("message {m} hello from u{from}")),
                ("HOPS", "0"),
            ],
        );
        bc.put_string("ORIGCODE", code);
        sys.inject_meet(original_home, AgentName::new(wellknown::AG_TAC), bc);
        sent += 1;
    }
    sys.run_until_quiescent(1_000_000);

    // Count deliveries in the mailboxes at each user's *current* home site.
    let mut delivered = 0u32;
    let mut forwarded_deliveries = 0u32;
    let mut dead_letters = 0u32;
    for u in 0..config.users as usize {
        let user = format!("u{u}");
        let count = sys
            .place(home[u])
            .cabinets()
            .get(MAILBOX_CABINET)
            .and_then(|c| c.folder_ref(&user).map(|f| f.len() as u32))
            .unwrap_or(0);
        delivered += count;
        if moved[u] {
            forwarded_deliveries += count;
        }
    }
    for s in 0..config.sites {
        dead_letters += sys
            .place(SiteId(s))
            .cabinets()
            .get(MAILBOX_CABINET)
            .and_then(|c| c.folder_ref("dead_letter").map(|f| f.len() as u32))
            .unwrap_or(0);
    }
    let _ = to_moved;

    MailResult {
        sent,
        delivered,
        forwarded_deliveries,
        dead_letters,
        network_bytes: sys.net_metrics().total_bytes().get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_is_delivered_even_to_moved_users() {
        let result = run_mail_experiment(&MailConfig::default());
        assert_eq!(result.sent, 40);
        assert_eq!(result.delivered, 40, "no message may be lost");
        assert_eq!(result.dead_letters, 0);
        assert!(result.network_bytes > 0);
        assert!(
            result.forwarded_deliveries > 0,
            "with 25% moved users some deliveries must have required forwarding"
        );
    }

    #[test]
    fn no_moves_means_no_forwarded_deliveries() {
        let result = run_mail_experiment(&MailConfig {
            moved_fraction: 0.0,
            messages: 20,
            ..Default::default()
        });
        assert_eq!(result.delivered, 20);
        assert_eq!(result.forwarded_deliveries, 0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = run_mail_experiment(&MailConfig::default());
        let b = run_mail_experiment(&MailConfig::default());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    #[test]
    fn chained_forwarding_follows_the_user() {
        // One user, moved twice: home site 0 -> 1 -> 2.  The message starts at
        // site 0 and must follow both forwarding addresses.
        let mut sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(3, LinkSpec::default()))
            .seed(9)
            .with_agents(standard_agents)
            .build();
        sys.place_mut(SiteId(0))
            .cabinets_mut()
            .cabinet(FORWARDING_CABINET)
            .append_str("u0", "1");
        sys.place_mut(SiteId(1))
            .cabinets_mut()
            .cabinet(FORWARDING_CABINET)
            .append_str("u0", "2");
        let code = mail_agent_code();
        let mut bc = script_briefcase(
            code,
            &[
                ("TO", "u0"),
                ("FROM", "u1"),
                ("BODY", "find me"),
                ("HOPS", "0"),
            ],
        );
        bc.put_string("ORIGCODE", code);
        sys.inject_meet(SiteId(0), AgentName::new(wellknown::AG_TAC), bc);
        sys.run_until_quiescent(10_000);
        let mailbox = sys
            .place(SiteId(2))
            .cabinets()
            .get(MAILBOX_CABINET)
            .and_then(|c| c.folder_ref("u0").map(|f| f.strings()))
            .unwrap_or_default();
        assert_eq!(mailbox.len(), 1);
        assert!(mailbox[0].contains("find me"));
        assert_eq!(sys.stats().meets_failed, 0);
    }

    #[test]
    fn user_directory_populations_sum_exactly() {
        // Six million users over 7 sites: populations come from arithmetic,
        // not enumeration, and must cover the base exactly.
        let dir = UserDirectory::new(6_000_001, 7);
        let total: u64 = (0..7).map(|s| dir.population(SiteId(s))).sum();
        assert_eq!(total, dir.users());
        assert_eq!(dir.population(SiteId(7)), 0, "out-of-range site is empty");
        // Round-robin homing agrees with the closed-form populations.
        for u in 0..21 {
            let home = dir.home(u);
            assert!(dir.population(home) > 0);
            assert_eq!(home.0, (u % 7) as u32);
        }
        let shares: f64 = (0..7).map(|s| dir.share(SiteId(s))).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        assert_eq!(UserDirectory::mailbox_folder(42), "u42");
    }
}
