//! A minimal directed-graph helper for the fleet audit.
//!
//! The audit composes per-script effect summaries into a *meet graph* (one
//! node per declared agent, one edge per literal `meet` target) and asks a
//! single structural question: which strongly connected components exist?
//! A component in which every member unconditionally meets back into the
//! component is a protocol livelock — the `meet-cycle-no-exit` diagnostic.
//!
//! The implementation is Kosaraju's algorithm with explicit stacks (no
//! recursion, so adversarially deep graphs cannot overflow the stack) and
//! fully deterministic output: components are returned with their members
//! sorted ascending and the components themselves ordered by smallest member.

/// A directed graph over nodes `0..n`.
#[derive(Debug, Clone)]
pub struct Digraph {
    adj: Vec<Vec<usize>>,
}

impl Digraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the edge `from -> to`.  Parallel edges are tolerated (the SCC
    /// computation is insensitive to them).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "edge endpoint out of range"
        );
        self.adj[from].push(to);
    }

    /// Whether the edge `from -> to` exists.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.adj.get(from).is_some_and(|v| v.contains(&to))
    }

    /// Strongly connected components, each sorted ascending, ordered by their
    /// smallest member.  Every node appears in exactly one component;
    /// singleton components are included (check [`Digraph::has_edge`] for a
    /// self-loop to distinguish a trivial singleton from a 1-cycle).
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let mut components = self.sccs_callees_first();
        components.sort_by_key(|c| c[0]);
        components
    }

    /// The same components, each before every component with an edge into
    /// it: a component comes after all it reaches.
    pub fn sccs_callees_first(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        // Pass 1: iterative DFS post-order on the forward graph.
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        for start in 0..n {
            if visited[start] {
                continue;
            }
            // Stack of (node, next-child index).
            let mut stack = vec![(start, 0usize)];
            visited[start] = true;
            while let Some(&(node, next)) = stack.last() {
                if next < self.adj[node].len() {
                    stack.last_mut().expect("nonempty").1 += 1;
                    let child = self.adj[node][next];
                    if !visited[child] {
                        visited[child] = true;
                        stack.push((child, 0));
                    }
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
        }
        // Pass 2: DFS on the transposed graph in reverse post-order.
        let mut radj = vec![Vec::new(); n];
        for (from, outs) in self.adj.iter().enumerate() {
            for &to in outs {
                radj[to].push(from);
            }
        }
        let mut component = vec![usize::MAX; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for &start in order.iter().rev() {
            if component[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            component[start] = id;
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                for &prev in &radj[node] {
                    if component[prev] == usize::MAX {
                        component[prev] = id;
                        members.push(prev);
                        stack.push(prev);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        // Pass 2 finds them in topological order, sources first.
        components.reverse();
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_without_edges() {
        let g = Digraph::new(3);
        assert_eq!(g.sccs(), vec![vec![0], vec![1], vec![2]]);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert!(Digraph::new(0).is_empty());
    }

    #[test]
    fn a_simple_cycle_is_one_component() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3); // tail out of the cycle
        assert_eq!(g.sccs(), vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn self_loops_are_visible_via_has_edge() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 0);
        assert_eq!(g.sccs(), vec![vec![0], vec![1]]);
        assert!(g.has_edge(0, 0));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn two_disjoint_cycles() {
        let mut g = Digraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 2);
        assert_eq!(g.sccs(), vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn a_dag_has_only_singletons() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn callees_first_puts_each_component_after_all_it_reaches() {
        let mut g = Digraph::new(6);
        for (from, to) in [(3, 0), (0, 1), (1, 2), (2, 1), (2, 4), (5, 3), (5, 4)] {
            g.add_edge(from, to);
        }
        let order = g.sccs_callees_first();
        assert_eq!(order.len(), 5);
        let at = |node| order.iter().position(|c| c.contains(&node)).unwrap();
        for (from, outs) in g.adj.iter().enumerate() {
            for &to in outs {
                assert!(at(to) <= at(from), "{from} -> {to} in {order:?}");
            }
        }
        let chain = (0..1000).fold(Digraph::new(1000), |mut g, i| {
            if i > 0 {
                g.add_edge(i, i - 1);
            }
            g
        });
        let order: Vec<usize> = chain.sccs_callees_first().concat();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn deep_chains_do_not_overflow() {
        // 10k-node path plus a closing edge: one big cycle, no recursion.
        let n = 10_000;
        let mut g = Digraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(n - 1, 0);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }
}
