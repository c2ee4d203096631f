//! The `diffusion` agent — flooding bounded by site-local folders — and its
//! unbounded baseline.
//!
//! The paper (§2) uses flooding to motivate site-local folders: "consider a
//! flooding algorithm to deliver a message at all sites in a network.  One
//! implementation would have each agent deliver the message and then create a
//! clone of itself at every adjacent site.  Unfortunately, here the number of
//! agents increases without bound.  If, instead, an agent also records its
//! visit in a site-local folder, then an agent can simply terminate — rather
//! than clone — when it finds itself at a site that has already been visited."
//!
//! [`DiffusionAgent`] implements the bounded version: it delivers the message,
//! records the visit in the site-local `diffusion` cabinet, and clones itself
//! only to neighbours that appear in neither the site-local visited set nor
//! the briefcase's `SITES` folder (the paper's set difference).
//! [`NaiveFloodAgent`] is the baseline that clones to every neighbour with
//! only a hop-count safety valve; experiment E2 compares the two.

use tacoma_core::prelude::*;

/// Cabinet used by the bounded diffusion agent for its visited set and the
/// delivered messages.
pub const DIFFUSION_CABINET: &str = "diffusion";
/// Folder (in the cabinet) recording message ids already seen at this site.
pub const VISITED: &str = "VISITED";
/// Folder (in the cabinet) collecting delivered message payloads.
pub const BULLETIN: &str = "BULLETIN";
/// Briefcase folder carrying the message id.
pub const MSG_ID: &str = "MSG_ID";
/// Briefcase folder carrying the message payload.
pub const MESSAGE: &str = "MESSAGE";
/// Briefcase folder carrying the remaining hop budget (naive agent only).
pub const HOPS: &str = "HOPS";

/// The bounded flooding agent of the paper.
#[derive(Debug, Default)]
pub struct DiffusionAgent;

impl DiffusionAgent {
    /// Creates the agent.
    pub fn new() -> Self {
        DiffusionAgent
    }
}

/// The top element of a folder the protocol requires, as the bytes it is.
fn required<'a>(bc: &'a Briefcase, name: &str) -> Result<&'a [u8], TacomaError> {
    bc.peek(name).ok_or_else(|| TacomaError::missing(name))
}

/// Files `msg_id:payload` in the site's bulletin, joined in the folder
/// itself: a repeated delivery allocates only for the folder's growth.
fn deliver(ctx: &mut MeetCtx<'_>, msg_id: &[u8], payload: &[u8]) {
    ctx.cabinet(DIFFUSION_CABINET)
        .append_parts(BULLETIN, &[msg_id, b":", payload]);
}

impl Agent for DiffusionAgent {
    fn name(&self) -> AgentName {
        AgentName::new(wellknown::DIFFUSION)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let msg_id = required(&bc, MSG_ID)?;
        let payload = required(&bc, MESSAGE)?;

        // Terminate instead of cloning when the site has already been visited.
        if ctx
            .cabinet(DIFFUSION_CABINET)
            .folder_contains(VISITED, msg_id)
        {
            let mut out = Briefcase::new();
            out.put_string("STATUS", "duplicate");
            return Ok(out);
        }
        ctx.cabinet(DIFFUSION_CABINET).append(VISITED, msg_id);
        deliver(ctx, msg_id, payload);

        // The set the agent has already covered travels in the SITES folder,
        // one decimal site id per element.
        let mut covered = bc.folder(wellknown::SITES).cloned().unwrap_or_default();
        let here = ctx.site().0.to_string();
        if !covered.contains_elem(here.as_bytes()) {
            covered.push_str(&here);
        }

        // Clone to every neighbour not in the covered set (the paper's set
        // difference between site-local knowledge and the briefcase SITES).
        let mut clones = 0u64;
        for i in 0..ctx.neighbors().len() {
            let n = ctx.neighbors()[i];
            let id = n.0.to_string();
            if covered.contains_elem(id.as_bytes()) || !ctx.site_is_up(n) {
                continue;
            }
            let mut clone_bc = Briefcase::new();
            clone_bc.put(MSG_ID, Folder::single(msg_id));
            clone_bc.put(MESSAGE, Folder::single(payload));
            let mut sites = covered.clone();
            sites.push_str(&id);
            clone_bc.put(wellknown::SITES, sites);
            ctx.remote_meet(
                n,
                AgentName::new(wellknown::DIFFUSION),
                clone_bc,
                TransportKind::Tcp,
            );
            clones += 1;
        }

        let mut out = Briefcase::new();
        out.put_string("STATUS", "delivered");
        out.put_u64("CLONES", clones);
        Ok(out)
    }
}

/// The unbounded baseline: clones to every neighbour, stopping only when a
/// hop budget runs out.  Without the budget the agent population grows
/// without bound on any cyclic topology — which is exactly the paper's point.
#[derive(Debug, Default)]
pub struct NaiveFloodAgent;

impl NaiveFloodAgent {
    /// Name of the naive flooding agent.
    pub const NAME: &'static str = "naive_flood";

    /// Creates the agent.
    pub fn new() -> Self {
        NaiveFloodAgent
    }
}

impl Agent for NaiveFloodAgent {
    fn name(&self) -> AgentName {
        AgentName::new(Self::NAME)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let msg_id = required(&bc, MSG_ID)?;
        let payload = required(&bc, MESSAGE)?;
        let hops = bc.peek_u64(HOPS).unwrap_or(0);

        // Deliver unconditionally (possibly again and again).
        deliver(ctx, msg_id, payload);

        let mut clones = 0u64;
        if hops > 0 {
            for i in 0..ctx.neighbors().len() {
                let n = ctx.neighbors()[i];
                if !ctx.site_is_up(n) {
                    continue;
                }
                let mut clone_bc = Briefcase::new();
                clone_bc.put(MSG_ID, Folder::single(msg_id));
                clone_bc.put(MESSAGE, Folder::single(payload));
                clone_bc.put_u64(HOPS, hops - 1);
                ctx.remote_meet(n, AgentName::new(Self::NAME), clone_bc, TransportKind::Tcp);
                clones += 1;
            }
        }
        let mut out = Briefcase::new();
        out.put_u64("CLONES", clones);
        Ok(out)
    }
}

/// Builds the briefcase that starts a bounded diffusion of `payload`.
pub fn diffusion_briefcase(msg_id: &str, payload: &str) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.put_string(MSG_ID, msg_id);
    bc.put_string(MESSAGE, payload);
    bc
}

/// Builds the briefcase that starts a naive flood with the given hop budget.
pub fn naive_flood_briefcase(msg_id: &str, payload: &str, hops: u64) -> Briefcase {
    let mut bc = diffusion_briefcase(msg_id, payload);
    bc.put_u64(HOPS, hops);
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::standard_agents;
    use tacoma_core::TacomaSystem;
    use tacoma_net::{LinkSpec, Topology};
    use tacoma_util::DetRng;

    fn system(topology: Topology) -> TacomaSystem {
        let mut sys = TacomaSystem::builder()
            .topology(topology)
            .seed(7)
            .with_agents(standard_agents)
            .build();
        for s in 0..sys.site_count() {
            sys.register_agent(SiteId(s), Box::new(NaiveFloodAgent::new()));
        }
        sys
    }

    fn delivered_sites(sys: &TacomaSystem) -> usize {
        (0..sys.site_count())
            .filter(|s| {
                sys.place(SiteId(*s))
                    .cabinets()
                    .get(DIFFUSION_CABINET)
                    .map(|c| c.payload_bytes() > 0)
                    .unwrap_or(false)
            })
            .count()
    }

    #[test]
    fn diffusion_covers_a_ring_and_terminates() {
        let mut sys = system(Topology::ring(8, LinkSpec::default()));
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m1", "hello everyone"),
        );
        let events = sys.run_until_quiescent(100_000);
        assert!(events < 100_000, "diffusion must terminate");
        assert_eq!(delivered_sites(&sys), 8, "all sites receive the message");
        // Bounded: the number of meets is O(edges), far below the naive blow-up.
        assert!(sys.stats().meets_requested <= 2 * 8 + 2);
    }

    #[test]
    fn diffusion_covers_a_random_connected_graph() {
        let mut rng = DetRng::new(99);
        let topo = Topology::random_connected(20, 10, LinkSpec::default(), &mut rng);
        let mut sys = system(topo);
        sys.inject_meet(
            SiteId(3),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m2", "payload"),
        );
        sys.run_until_quiescent(100_000);
        assert_eq!(delivered_sites(&sys), 20);
    }

    #[test]
    fn duplicate_arrivals_terminate_without_cloning() {
        let mut sys = system(Topology::full_mesh(4, LinkSpec::default()));
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m3", "x"),
        );
        sys.run_until_quiescent(100_000);
        // Each site delivers exactly once even though clones race in a mesh.
        for s in 0..4 {
            let cab = sys
                .place(SiteId(s))
                .cabinets()
                .get(DIFFUSION_CABINET)
                .unwrap();
            let bulletin = cab.folder_ref(BULLETIN).map(|f| f.len()).unwrap_or(0);
            assert_eq!(bulletin, 1, "site {s} must deliver exactly once");
        }
    }

    #[test]
    fn two_messages_diffuse_independently() {
        let mut sys = system(Topology::ring(5, LinkSpec::default()));
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("a", "first"),
        );
        sys.inject_meet(
            SiteId(2),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("b", "second"),
        );
        sys.run_until_quiescent(100_000);
        for s in 0..5 {
            let cab = sys
                .place(SiteId(s))
                .cabinets()
                .get(DIFFUSION_CABINET)
                .unwrap();
            let bulletin = cab.folder_ref(BULLETIN).map(|f| f.len()).unwrap_or(0);
            assert_eq!(bulletin, 2, "site {s} must receive both messages once each");
        }
    }

    #[test]
    fn missing_message_fields_are_rejected() {
        let mut sys = system(Topology::ring(3, LinkSpec::default()));
        let err = sys
            .try_direct_meet(
                SiteId(0),
                &AgentName::new(wellknown::DIFFUSION),
                Briefcase::new(),
            )
            .unwrap_err();
        assert!(matches!(err, TacomaError::MissingFolder(_)));
    }

    #[test]
    fn naive_flood_delivers_duplicates_and_spawns_many_more_agents() {
        let ring = Topology::ring(6, LinkSpec::default());
        let mut bounded = system(ring.clone());
        bounded.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m", "x"),
        );
        bounded.run_until_quiescent(1_000_000);
        let bounded_meets = bounded.stats().meets_requested;

        let mut naive = system(ring);
        naive.inject_meet(
            SiteId(0),
            AgentName::new(NaiveFloodAgent::NAME),
            naive_flood_briefcase("m", "x", 6),
        );
        naive.run_until_quiescent(1_000_000);
        let naive_meets = naive.stats().meets_requested;

        assert!(
            naive_meets > 3 * bounded_meets,
            "naive flooding ({naive_meets} meets) should dwarf bounded diffusion ({bounded_meets})"
        );
        // And some site received the message more than once.
        let duplicated = (0..6).any(|s| {
            naive
                .place(SiteId(s))
                .cabinets()
                .get(DIFFUSION_CABINET)
                .and_then(|c| c.folder_ref(BULLETIN).map(|f| f.len()))
                .unwrap_or(0)
                > 1
        });
        assert!(duplicated, "naive flooding delivers duplicates");
    }

    #[test]
    fn diffusion_skips_dead_neighbours_but_still_covers_reachable_sites() {
        let mut sys = system(Topology::ring(6, LinkSpec::default()));
        sys.net_mut().crash_now(SiteId(3));
        sys.inject_meet(
            SiteId(0),
            AgentName::new(wellknown::DIFFUSION),
            diffusion_briefcase("m", "x"),
        );
        sys.run_until_quiescent(100_000);
        // Site 3 is down; everyone else is reachable around the ring.
        assert_eq!(delivered_sites(&sys), 5);
        assert_eq!(
            sys.stats().send_failures,
            0,
            "dead neighbour is skipped, not tried"
        );
    }
}
