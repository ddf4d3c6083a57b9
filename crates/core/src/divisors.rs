//! Divisor-set selection (Algorithm 1 of the paper).
//!
//! For a node `V`, candidate divisor sets are produced by two edits of its
//! fanin set:
//!
//! 1. **remove** a fanin `n` — the set `fanins(V) \ {n}`;
//! 2. **replace** a fanin `n` with another node `u` from `V`'s TFI cone —
//!    the set `fanins(V) \ {n} ∪ {u}`.
//!
//! Only TFI-cone nodes are considered because `V`'s function most likely
//! depends on them. TFI nodes are visited in ascending logic level, as in
//! the paper's pseudocode.
//!
//! The sets are *streamed*: `divisor_sets` prepares a reused
//! replacement-pool buffer once per node and then yields sets one at a
//! time, so LAC generation stops paying as soon as it has its `lac_limit`
//! candidates. Two facts keep the stream exactly equal to the full list:
//!
//! * The pool is ordered by `(level, index)`, a total order, so its order
//!   does not depend on how the candidates were collected (whole TFI or a
//!   bounded window), and any partial sort that yields the same first `m`
//!   entries yields the same sets.
//! * Only the first `max_sets - 1` pool entries can ever be used: the first
//!   removal plus its replacements fill the cap whenever the pool is that
//!   large. So the pool is cut to those entries with `select_nth_unstable`
//!   and only they are sorted.
//!
//! With two distinct fanins, and a pool that excludes the node, both
//! fanins and the constant, no two sets are equal: the sets of one removal
//! all hold the kept fanin, those of the other do not, and pool entries are
//! distinct. The stream needs no deduplication.

use std::ops::Deref;

use alsrac_aig::{Aig, Node, NodeId, WindowExtractor};

/// Configuration for divisor-set selection.
#[derive(Clone, Debug)]
pub struct DivisorConfig {
    /// Upper bound on the number of candidate sets returned per node (keeps
    /// huge TFI cones tractable).
    pub max_sets: usize,
    /// Also offer the *fanin set itself* extended by one TFI node
    /// (a mild generalization of the paper; disabled by default to match
    /// Algorithm 1 exactly).
    pub include_extensions: bool,
}

impl Default for DivisorConfig {
    fn default() -> DivisorConfig {
        DivisorConfig {
            max_sets: 64,
            include_extensions: false,
        }
    }
}

/// One divisor set: one to three distinct nodes, ascending. Dereferences
/// to the node slice.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DivisorSet {
    /// The nodes, ascending, in the first `len` slots.
    nodes: [NodeId; 3],
    len: usize,
}

impl DivisorSet {
    fn sorted(members: &[NodeId]) -> DivisorSet {
        let mut nodes = [NodeId::CONST; 3];
        nodes[..members.len()].copy_from_slice(members);
        nodes[..members.len()].sort_unstable();
        DivisorSet {
            nodes,
            len: members.len(),
        }
    }
}

impl Deref for DivisorSet {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.nodes[..self.len]
    }
}

/// Streams the candidate divisor sets of `node` in Algorithm 1's order: per
/// removed fanin, first the bare removal, then each replacement in
/// ascending `(level, index)` order; then, with
/// [`DivisorConfig::include_extensions`], the fanin pair plus each pool
/// node. At most [`DivisorConfig::max_sets`] sets are yielded.
///
/// `pool` is a reused buffer. `levels` is the per-node logic-level slice
/// (e.g. [`alsrac_aig::FanoutMap::levels`]) and `candidates` the
/// replacement candidates in any order — the node's TFI, whole or bounded
/// (see [`WindowExtractor::tfi_members`]). The node, its fanins and the
/// constant are dropped from them. Inputs, the constant, and AND nodes
/// whose two fanins share a node have no sets.
pub(crate) fn divisor_sets<'a>(
    pool: &'a mut Vec<NodeId>,
    aig: &Aig,
    node: NodeId,
    levels: &[u32],
    candidates: &[NodeId],
    config: &DivisorConfig,
) -> impl Iterator<Item = DivisorSet> + 'a {
    pool.clear();
    let (fanins, end) = match *aig.node(node) {
        Node::And { f0, f1 } if f0.node() != f1.node() => {
            let fanins = [f0.node(), f1.node()];
            pool.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&n| n != node && n != NodeId::CONST && !fanins.contains(&n)),
            );
            let key = |n: &NodeId| (levels[n.index()], n.index());
            let usable = config.max_sets.saturating_sub(1);
            if pool.len() > usable {
                if usable > 0 {
                    pool.select_nth_unstable_by_key(usable - 1, key);
                }
                pool.truncate(usable);
            }
            pool.sort_unstable_by_key(key);
            let extensions = if config.include_extensions {
                pool.len()
            } else {
                0
            };
            (
                fanins,
                (2 * (1 + pool.len()) + extensions).min(config.max_sets),
            )
        }
        _ => ([NodeId::CONST; 2], 0),
    };
    let pool: &'a [NodeId] = pool;
    let [f0, f1] = fanins;
    let per_removal = 1 + pool.len();
    (0..end).map(move |i| {
        if i < 2 * per_removal {
            // Removing f0 keeps f1 (first block); removing f1 keeps f0.
            let kept = if i < per_removal { f1 } else { f0 };
            match i % per_removal {
                0 => DivisorSet::sorted(&[kept]),
                j => DivisorSet::sorted(&[kept, pool[j - 1]]),
            }
        } else {
            DivisorSet::sorted(&[f0, f1, pool[i - 2 * per_removal]])
        }
    })
}

/// Computes all candidate divisor sets for `node` from its whole TFI cone,
/// in Algorithm 1's order: per removed fanin, first the bare removal, then
/// each replacement in ascending `(level, index)` order; then, with
/// [`DivisorConfig::include_extensions`], the fanin pair plus each TFI
/// node. At most [`DivisorConfig::max_sets`] sets are returned; inputs,
/// the constant, and AND nodes whose two fanins share a node have none.
///
/// Collects the same stream LAC generation reads lazily, recomputing
/// levels; for one-off callers.
pub fn select_divisor_sets(aig: &Aig, node: NodeId, config: &DivisorConfig) -> Vec<Vec<NodeId>> {
    let levels = aig.levels();
    let mut extractor = WindowExtractor::new();
    let candidates = extractor.tfi_members(aig, node, 0);
    divisor_sets(&mut Vec::new(), aig, node, &levels, candidates, config)
        .map(|set| set.to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// v = (a & b) & (c | d) with some depth below.
    fn sample() -> (Aig, NodeId, Vec<NodeId>) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.or(c, d);
        let v = aig.and(ab, cd);
        aig.add_output("v", v);
        (
            aig,
            v.node(),
            vec![a.node(), b.node(), c.node(), d.node(), ab.node(), cd.node()],
        )
    }

    /// Algorithm 1 spelled out: fully sorted pool, explicit loops.
    fn reference(aig: &Aig, node: NodeId, config: &DivisorConfig) -> Vec<Vec<NodeId>> {
        let Node::And { f0, f1 } = *aig.node(node) else {
            return Vec::new();
        };
        let fanins = [f0.node(), f1.node()];
        if fanins[0] == fanins[1] {
            return Vec::new();
        }
        let levels = aig.levels();
        let mut pool: Vec<NodeId> = aig
            .tfi_cone(node)
            .members()
            .iter()
            .copied()
            .filter(|&n| n != node && n != NodeId::CONST && !fanins.contains(&n))
            .collect();
        pool.sort_by_key(|n| (levels[n.index()], n.index()));
        let mut sets = Vec::new();
        for kept in [fanins[1], fanins[0]] {
            sets.push(vec![kept]);
            for &u in &pool {
                let mut set = vec![kept, u];
                set.sort_unstable();
                sets.push(set);
            }
        }
        if config.include_extensions {
            for &u in &pool {
                let mut set = vec![fanins[0], fanins[1], u];
                set.sort_unstable();
                sets.push(set);
            }
        }
        sets.truncate(config.max_sets);
        sets
    }

    #[test]
    fn stream_matches_the_fully_sorted_reference() {
        use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
        for seed in 1..4 {
            let aig = random_network(&RandomNetworkConfig {
                num_inputs: 8,
                num_outputs: 4,
                num_gates: 120,
                locality: 16,
                seed,
            });
            for max_sets in [0, 1, 2, 3, 10, 64, 10_000] {
                for include_extensions in [false, true] {
                    let config = DivisorConfig {
                        max_sets,
                        include_extensions,
                    };
                    for id in aig.iter_nodes() {
                        assert_eq!(
                            select_divisor_sets(&aig, id, &config),
                            reference(&aig, id, &config),
                            "seed {seed}, node {id}, {config:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn removal_sets_come_first() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        // First set: one of the fanins alone.
        assert_eq!(sets[0].len(), 1);
        let [f0, f1] = aig.and_fanins(v);
        assert!(sets[0][0] == f0.node() || sets[0][0] == f1.node());
    }

    #[test]
    fn replacement_sets_draw_from_tfi() {
        let (aig, v, tfi_members) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        for set in &sets {
            assert!(!set.contains(&v), "node must not be its own divisor");
            for n in set {
                assert!(tfi_members.contains(n), "{n} outside TFI");
            }
        }
        // Pairs {fanin, replacement} must appear.
        assert!(sets.iter().any(|s| s.len() == 2));
    }

    #[test]
    fn no_duplicate_sets() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        for (i, s) in sets.iter().enumerate() {
            for t in &sets[i + 1..] {
                assert_ne!(s, t, "duplicate divisor set");
            }
        }
    }

    #[test]
    fn max_sets_is_respected() {
        let (aig, v, _) = sample();
        let config = DivisorConfig {
            max_sets: 3,
            ..DivisorConfig::default()
        };
        let sets = select_divisor_sets(&aig, v, &config);
        assert!(sets.len() <= 3);
    }

    #[test]
    fn inputs_have_no_divisor_sets() {
        let (aig, _, tfi) = sample();
        assert!(select_divisor_sets(&aig, tfi[0], &DivisorConfig::default()).is_empty());
        assert!(select_divisor_sets(&aig, NodeId::CONST, &DivisorConfig::default()).is_empty());
    }

    #[test]
    fn extension_sets_add_a_third_divisor() {
        let (aig, v, _) = sample();
        let config = DivisorConfig {
            include_extensions: true,
            max_sets: 1000,
        };
        let sets = select_divisor_sets(&aig, v, &config);
        assert!(sets.iter().any(|s| s.len() == 3));
    }

    #[test]
    fn full_window_pool_matches_whole_circuit_pool() {
        use alsrac_aig::WindowParams;
        let (aig, v, _) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let mut pool = Vec::new();
        let config = DivisorConfig::default();
        for id in aig.iter_ands() {
            let w = ex.extract(&aig, &fanouts, id, &WindowParams::default());
            let windowed: Vec<Vec<NodeId>> = divisor_sets(
                &mut pool,
                &aig,
                id,
                fanouts.levels(),
                w.tfi_nodes(),
                &config,
            )
            .map(|s| s.to_vec())
            .collect();
            let plain = select_divisor_sets(&aig, id, &config);
            assert_eq!(windowed, plain, "node {id}");
        }
        // A truncated window shrinks the pool but stays well-formed.
        let w = ex.extract(
            &aig,
            &fanouts,
            v,
            &WindowParams {
                max_tfi: 3,
                tfo_depth: 0,
            },
        );
        for set in divisor_sets(&mut pool, &aig, v, fanouts.levels(), w.tfi_nodes(), &config) {
            for n in set.iter() {
                assert!(w.contains(*n) || aig.and_fanins(v).iter().any(|f| f.node() == *n));
            }
        }
    }

    #[test]
    fn replacement_pool_is_level_ordered() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        let levels = aig.levels();
        // Among the 2-element sets sharing the same kept fanin, the added
        // divisor's level must be non-decreasing.
        let [f0, _f1] = aig.and_fanins(v);
        let added: Vec<u32> = sets
            .iter()
            .filter(|s| s.len() == 2 && s.contains(&f0.node()))
            .map(|s| {
                let other = s.iter().find(|&&n| n != f0.node()).expect("pair");
                levels[other.index()]
            })
            .collect();
        for w in added.windows(2) {
            assert!(w[0] <= w[1], "levels not ascending: {added:?}");
        }
    }
}
