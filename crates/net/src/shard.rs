//! Shard planning: carving a topology's sites into per-shard event queues.
//!
//! [`crate::sim::SimNet`] runs one event loop.  Sharding is only the
//! *storage layout* of its pending events: every event fires *at* a site (a
//! delivery at its destination, a timer/failure/custody alarm at its site),
//! so a site→shard map splits the one big queue into several smaller ones,
//! and the loop pops the argmin of `(time, seq)` across their fronts.
//! Because sequence numbers are global, **any** site→shard map pops the same
//! events in the same order; the plan can only change how deep each queue
//! is, never a simulation result.
//!
//! On the ring-of-cliques shape the plan aligns shard boundaries with clique
//! boundaries (cliques are contiguous site ranges), so clique-local traffic
//! stays in one queue.  Any other shape gets contiguous site blocks.

use crate::topology::Topology;
use tacoma_util::SiteId;

/// A partition of a topology's sites into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shard_of: Vec<u16>,
    shards: u32,
}

impl ShardPlan {
    /// Plans `shards` shards over `topology`.  The count is clamped to
    /// `1..=site_count` (and to `u16` range); clique-shaped topologies get
    /// clique-aligned shards, everything else contiguous site blocks.
    pub fn new(topology: &Topology, shards: u32) -> Self {
        let sites = topology.site_count();
        let shards = shards.clamp(1, sites.max(1)).min(u16::MAX as u32);
        let shard_of: Vec<u16> = match topology.clique_size() {
            Some(cs) if cs > 0 => {
                let cliques = sites.div_ceil(cs).max(1);
                let shards = shards.min(cliques);
                (0..sites)
                    .map(|s| {
                        let clique = (s / cs).min(cliques - 1);
                        ((clique as u64 * shards as u64) / cliques as u64) as u16
                    })
                    .collect()
            }
            _ => (0..sites)
                .map(|s| ((s as u64 * shards as u64) / sites.max(1) as u64) as u16)
                .collect(),
        };
        let shards = shard_of.last().map_or(1, |&last| last as u32 + 1);
        ShardPlan { shard_of, shards }
    }

    /// Number of shards actually planned (≤ the requested count).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `site`.  Out-of-range sites map to shard 0, so the
    /// plan is total over any `SiteId` the simulator can be handed.
    pub fn shard_of(&self, site: SiteId) -> u16 {
        self.shard_of.get(site.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    #[test]
    fn clique_aligned_plan_keeps_cliques_whole() {
        let t = Topology::ring_of_cliques(8, 4, LinkSpec::lan(), LinkSpec::wan());
        let plan = ShardPlan::new(&t, 4);
        assert_eq!(plan.shards(), 4);
        // Two whole cliques per shard: sites 0..8 in shard 0, 8..16 in 1, ...
        for s in 0..32u32 {
            assert_eq!(plan.shard_of(SiteId(s)), (s / 8) as u16, "site {s}");
        }
    }

    #[test]
    fn more_shards_than_cliques_clamps_to_cliques() {
        let t = Topology::ring_of_cliques(2, 16, LinkSpec::lan(), LinkSpec::wan());
        let plan = ShardPlan::new(&t, 8);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.shard_of(SiteId(15)), 0);
        assert_eq!(plan.shard_of(SiteId(16)), 1);
    }

    #[test]
    fn generic_topology_falls_back_to_contiguous_blocks() {
        let t = Topology::ring(10, LinkSpec::default());
        let plan = ShardPlan::new(&t, 2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.shard_of(SiteId(4)), 0);
        assert_eq!(plan.shard_of(SiteId(5)), 1);
    }

    #[test]
    fn single_shard_plan_is_total() {
        let t = Topology::full_mesh(5, LinkSpec::lan());
        let plan = ShardPlan::new(&t, 1);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.shard_of(SiteId(3)), 0);
        assert_eq!(plan.shard_of(SiteId(999)), 0, "total over any id");
    }

    #[test]
    fn shards_are_contiguous_site_ranges_and_none_is_empty() {
        let t = Topology::ring_of_cliques(6, 3, LinkSpec::lan(), LinkSpec::wan());
        let plan = ShardPlan::new(&t, 4);
        let ids: Vec<u16> = (0..18).map(|s| plan.shard_of(SiteId(s))).collect();
        assert!(ids.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!(ids[0], 0);
        assert_eq!(ids[17] as u32 + 1, plan.shards());
    }
}
