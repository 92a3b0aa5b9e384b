//! CHASE: pointer-chasing over randomized linked structures, the access
//! pattern the paper's stride and sequential prefetchers are blind to.
//!
//! Each processor owns a randomized singly-linked ring over its slice of
//! a node pool and repeatedly walks it: every load's address comes from
//! the previous load, so consecutive misses land on unrelated blocks and
//! no fixed stride ever forms (the motivating case of pointer-chase
//! prefetching work, see `PAPERS.md`). A shared randomized binary tree is
//! probed by every processor between walks; occasional leaf-counter
//! updates move ownership around and generate coherence traffic. The
//! topology is drawn from the in-tree [`SplitMix64`], so the same
//! parameters always produce byte-identical traces.

use pfsim_mem::SplitMix64;

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Size of one linked node record in bytes (one cache block).
pub const NODE_BYTES: u64 = 32;

/// Problem-size parameters for CHASE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseParams {
    /// Linked-list nodes per processor (each processor rings its own
    /// slice of the pool).
    pub list_nodes_per_cpu: u64,
    /// Nodes in the shared probe tree (heap-shaped, 1-indexed).
    pub tree_nodes: u64,
    /// Walk rounds, separated by barriers.
    pub walks: u64,
    /// Pointer dereferences per walk per processor.
    pub steps_per_walk: u64,
    /// Root-to-leaf tree probes per walk per processor.
    pub probes_per_walk: u64,
    /// Number of processors.
    pub cpus: usize,
    /// Seed for the randomized list permutation and probe paths.
    pub seed: u64,
}

impl Default for ChaseParams {
    /// A scaled-down size for tests and quick runs.
    fn default() -> Self {
        ChaseParams {
            list_nodes_per_cpu: 256,
            tree_nodes: 511,
            walks: 6,
            steps_per_walk: 400,
            probes_per_walk: 24,
            cpus: 16,
            seed: 0xc4a5e,
        }
    }
}

impl ChaseParams {
    /// A full-size configuration comparable to the paper's inputs.
    pub fn paper() -> Self {
        ChaseParams {
            list_nodes_per_cpu: 1024,
            tree_nodes: 2047,
            walks: 12,
            steps_per_walk: 1200,
            probes_per_walk: 64,
            cpus: 16,
            seed: 0xc4a5e,
        }
    }

    /// The enlarged data set for trend studies.
    pub fn large() -> Self {
        ChaseParams {
            list_nodes_per_cpu: 4096,
            tree_nodes: 8191,
            walks: 12,
            steps_per_walk: 2400,
            probes_per_walk: 96,
            cpus: 16,
            seed: 0xc4a5e,
        }
    }
}

/// Builds the CHASE workload.
///
/// # Panics
///
/// Panics if any parameter is zero.
pub fn build(params: ChaseParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: ChaseParams) -> PackedTrace {
    generate(params)
}

/// A random permutation of `0..n` (Fisher–Yates over the seeded stream):
/// interpreting `perm[i]` as the successor of `i` yields disjoint cycles,
/// i.e. a pointer-chase order with no address-arithmetic structure.
fn permutation(rng: &mut SplitMix64, n: u64) -> Vec<u64> {
    let mut perm: Vec<u64> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        perm.swap(i, j);
    }
    perm
}

impl Generator for ChaseParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let ChaseParams {
            list_nodes_per_cpu,
            tree_nodes,
            walks,
            steps_per_walk,
            probes_per_walk,
            cpus,
            seed,
        } = self;
        assert!(
            list_nodes_per_cpu > 0 && tree_nodes > 0 && walks > 0 && steps_per_walk > 0 && cpus > 0,
            "CHASE needs nodes, walks and processors"
        );

        let mut b = TraceBuilder::with_lanes(format!("CHASE-{list_nodes_per_cpu}n"), lanes);
        let pool = b.alloc("ListPool", list_nodes_per_cpu * cpus as u64, NODE_BYTES);
        let tree = b.alloc("ProbeTree", tree_nodes, NODE_BYTES);

        let pc_next = b.pc_site(); // load of node.next (the chase)
        let pc_payload = b.pc_site(); // load of node.payload
        let pc_mark_w = b.pc_site(); // store of node.visited
        let pc_tree = b.pc_site(); // load of a tree node during descent
        let pc_leaf_w = b.pc_site(); // store of a leaf counter

        let mut rng = SplitMix64::seed_from_u64(seed);
        // Each cpu's slice of the pool is ordered by its own random
        // permutation; following it is the pointer chase.
        let orders: Vec<Vec<u64>> = (0..cpus)
            .map(|_| permutation(&mut rng, list_nodes_per_cpu))
            .collect();

        let mut cursors = vec![0u64; cpus];
        for _walk in 0..walks {
            for p in 0..cpus {
                let slice_base = p as u64 * list_nodes_per_cpu;
                for step in 0..steps_per_walk {
                    let at = cursors[p] as usize;
                    let node = slice_base + orders[p][at];
                    // Load the next pointer — the address of the following
                    // load depends on this one, the defining property of
                    // linked-data-structure traversal.
                    b.read(p, b.element(pool, NODE_BYTES, node), pc_next);
                    b.compute(p, 3);
                    // Touch the payload (same block: records are one block).
                    b.read(p, b.field(pool, NODE_BYTES, node, 8), pc_payload);
                    // Mark every 16th node visited (private write).
                    if step % 16 == 0 {
                        b.write(p, b.field(pool, NODE_BYTES, node, 16), pc_mark_w);
                    }
                    cursors[p] = (cursors[p] + 1) % list_nodes_per_cpu;
                }

                // Probe the shared tree: root-to-leaf descents with random
                // comparison outcomes; a ninth of the probes update the leaf
                // counter, moving the block between processors.
                for _probe in 0..probes_per_walk {
                    let mut at = 1u64; // heap-shaped: children of i are 2i, 2i+1
                    while at <= tree_nodes {
                        b.read(p, b.element(tree, NODE_BYTES, at - 1), pc_tree);
                        b.compute(p, 2);
                        at = 2 * at + u64::from(rng.random_bool());
                    }
                    let leaf = at / 2;
                    if rng.random_range(0..9u32) == 0 {
                        b.write(p, b.field(tree, NODE_BYTES, leaf - 1, 24), pc_leaf_w);
                    }
                }
            }
            b.barrier_all();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    fn tiny() -> ChaseParams {
        ChaseParams {
            list_nodes_per_cpu: 64,
            tree_nodes: 31,
            walks: 2,
            steps_per_walk: 64,
            probes_per_walk: 8,
            cpus: 4,
            seed: 1,
        }
    }

    #[test]
    fn chase_loads_have_no_dominant_stride() {
        let wl = build(tiny());
        let chases: Vec<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0000 => Some(addr.as_u64()),
                _ => None,
            })
            .collect();
        let deltas: std::collections::BTreeSet<i64> = chases
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        assert!(
            deltas.len() > chases.len() / 4,
            "{} distinct deltas over {} loads",
            deltas.len(),
            chases.len()
        );
    }

    #[test]
    fn tree_probes_share_the_root() {
        let wl = build(tiny());
        let tree_root: Vec<usize> = (0..4)
            .filter(|&cpu| {
                wl.trace(cpu)
                    .iter()
                    .any(|op| matches!(op, Op::Read { pc, .. } if pc.as_u32() == 0x0010_000c))
            })
            .collect();
        assert_eq!(tree_root.len(), 4, "every cpu probes the tree");
    }

    #[test]
    fn distinct_seeds_change_the_topology() {
        let a = build(tiny());
        let b = build(ChaseParams { seed: 2, ..tiny() });
        assert_ne!(a.trace(0), b.trace(0));
    }

    #[test]
    fn deterministic() {
        let a = build_packed(tiny());
        let b = build_packed(tiny());
        assert_eq!(a, b);
    }
}
