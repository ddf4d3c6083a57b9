//! Transitive fanin/fanout cones, fanout maps, and MFFC computation.

use crate::{Aig, Lit, Node, NodeId};

/// A set of nodes forming a cone, stored as a sorted list of node ids plus a
/// membership bitmap for O(1) queries.
///
/// Produced by [`Aig::tfi_cone`] and [`Aig::tfo_cone`].
#[derive(Clone, Debug)]
pub struct Cone {
    members: Vec<NodeId>,
    bitmap: Vec<bool>,
}

impl Cone {
    fn from_bitmap(bitmap: Vec<bool>) -> Cone {
        let members = bitmap
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        Cone { members, bitmap }
    }

    /// Nodes in the cone in ascending (= topological) order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Returns `true` if `id` belongs to the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.bitmap.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of nodes in the cone.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cone is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Fanout information for every node of an [`Aig`], plus the per-node
/// logic levels computed in the same pass.
///
/// The AIG itself only stores fanins; algorithms that walk "downstream"
/// (observability, TFO re-simulation, MFFC) build this map once per graph
/// snapshot via [`Aig::fanout_map`]. Levels ride along so per-node
/// consumers (divisor selection, level-bucketed worklists) never have to
/// re-derive `Aig::levels` — an `O(n)` sweep — inside their own loops.
#[derive(Clone, Debug)]
pub struct FanoutMap {
    /// `fanouts[n]` lists the AND nodes that reference node `n` as a fanin.
    fanouts: Vec<Vec<NodeId>>,
    /// Number of references to each node, counting primary outputs.
    ref_counts: Vec<u32>,
    /// Logic level per node (identical to [`Aig::levels`]).
    levels: Vec<u32>,
    /// `max(levels) + 1`: the number of distinct level buckets.
    num_levels: u32,
}

impl FanoutMap {
    /// Returns the fanout nodes of `id` (AND nodes only; primary-output
    /// references are reflected in [`FanoutMap::ref_count`] instead).
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Returns the total reference count of `id` (fanin references plus
    /// primary-output references).
    pub fn ref_count(&self, id: NodeId) -> u32 {
        self.ref_counts[id.index()]
    }

    /// Returns `true` if the node drives nothing (no fanouts, no outputs).
    pub fn is_dangling(&self, id: NodeId) -> bool {
        self.ref_counts[id.index()] == 0
    }

    /// Logic level of `id` (0 for inputs and the constant).
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Per-node logic levels, identical to [`Aig::levels`] of the same
    /// snapshot but computed once inside [`Aig::fanout_map`].
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Number of distinct levels (`max level + 1`); sizes level-bucketed
    /// worklists.
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }
}

/// Per-node values that belong to one query. An epoch stamp marks the
/// entries the current query wrote, so starting a query costs `O(1)`
/// instead of clearing `n` entries; only when the `u32` epoch wraps are
/// the stamps cleared. Shared by [`MffcScratch`] and [`ConeScratch`].
#[derive(Clone, Debug, Default)]
struct Stamped<T> {
    /// Values written in the current query; valid only where
    /// `stamp[i] == epoch`.
    values: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts a query on a graph of `num_nodes` nodes: every entry reads
    /// as unset afterwards.
    fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.values.clear();
            self.values.resize(num_nodes, T::default());
            self.stamp.clear();
            self.stamp.resize(num_nodes, 0);
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn get(&self, id: NodeId) -> Option<T> {
        let i = id.index();
        (self.stamp[i] == self.epoch).then(|| self.values[i])
    }

    #[inline]
    fn set(&mut self, id: NodeId, value: T) {
        let i = id.index();
        self.stamp[i] = self.epoch;
        self.values[i] = value;
    }
}

/// Reusable scratch for [`Aig::mffc_with`]: epoch-stamped per-node
/// reference-count deltas, so repeated MFFC computations cost
/// `O(|MFFC|)` per query instead of cloning all `n` reference counts.
///
/// Every query reads the base counts straight from the [`FanoutMap`] it is
/// given and bumps the epoch, so a scratch can be reused across graph
/// snapshots without any reset call.
#[derive(Clone, Debug, Default)]
pub struct MffcScratch {
    /// Decrements applied during the current query.
    deltas: Stamped<u32>,
}

impl MffcScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> MffcScratch {
        MffcScratch::default()
    }

    /// Decrements the effective count of `id` and returns the new value,
    /// given its base reference count.
    #[inline]
    fn decrement(&mut self, id: NodeId, base: u32) -> u32 {
        let delta = self.deltas.get(id).unwrap_or(0) + 1;
        debug_assert!(delta <= base, "fanin reference count underflow");
        self.deltas.set(id, delta);
        base - delta
    }
}

/// Reusable scratch for cone walks over a cut: [`Aig::cone_interior`],
/// [`Aig::cone_mffc`] and [`Aig::cone_leaves`] (and through them
/// `alsrac_truthtable::cone_tt`).
///
/// Like [`MffcScratch`], every per-node entry is epoch-stamped, so one
/// walk costs `O(|cone|)` rather than `O(num_nodes)`: per-node loops
/// (rewriting visits every cut of every AND node) hold one scratch and
/// reuse it across queries and graph snapshots without any reset call.
/// After an [`Aig::cone_interior`] walk that returned `Some`, the scratch
/// holds that cone ([`ConeScratch::interior`], [`ConeScratch::slot`])
/// until the next walk.
#[derive(Clone, Debug, Default)]
pub struct ConeScratch {
    /// Slot of each node of the current walk: `i` for leaf `i`, then
    /// `leaves.len() + j` for the `j`-th interior node.
    slots: Stamped<u32>,
    /// Node set of the current [`Aig::cone_mffc`] / [`Aig::cone_leaves`]
    /// query.
    marks: Stamped<()>,
    interior: Vec<NodeId>,
    freed: Vec<NodeId>,
    stack: Vec<NodeId>,
}

impl ConeScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> ConeScratch {
        ConeScratch::default()
    }

    /// The interior AND nodes of the last [`Aig::cone_interior`] walk, in
    /// topological order (meaningful only if that walk returned `Some`).
    pub fn interior(&self) -> &[NodeId] {
        &self.interior
    }

    /// The slot of `id` in the last [`Aig::cone_interior`] walk, if it
    /// returned `Some`: `Some(i)` for leaf `i`, `Some(leaves.len() + j)` for
    /// `interior()[j]`, and `None` for nodes outside the cone (including
    /// the implicit constant).
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        self.slots.get(id).map(|s| s as usize)
    }
}

impl Aig {
    /// Builds the fanout map for the current graph.
    pub fn fanout_map(&self) -> FanoutMap {
        let n = self.num_nodes();
        let mut fanouts = vec![Vec::new(); n];
        let mut ref_counts = vec![0u32; n];
        let mut levels = vec![0u32; n];
        let mut num_levels = 1u32;
        for id in self.iter_nodes() {
            if let Node::And { f0, f1 } = *self.node(id) {
                fanouts[f0.node().index()].push(id);
                ref_counts[f0.node().index()] += 1;
                if f1.node() != f0.node() {
                    fanouts[f1.node().index()].push(id);
                }
                ref_counts[f1.node().index()] += 1;
                let level = 1 + levels[f0.node().index()].max(levels[f1.node().index()]);
                levels[id.index()] = level;
                num_levels = num_levels.max(level + 1);
            }
        }
        for output in self.outputs() {
            ref_counts[output.lit.node().index()] += 1;
        }
        FanoutMap {
            fanouts,
            ref_counts,
            levels,
            num_levels,
        }
    }

    /// Computes the transitive-fanin cone of `root`, **including** `root`
    /// itself (the paper's §II-A definition).
    pub fn tfi_cone(&self, root: NodeId) -> Cone {
        let mut bitmap = vec![false; self.num_nodes()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut bitmap[id.index()], true) {
                continue;
            }
            if let Node::And { f0, f1 } = *self.node(id) {
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        Cone::from_bitmap(bitmap)
    }

    /// Computes the transitive-fanout cone of `root`, **including** `root`.
    ///
    /// Requires a prebuilt [`FanoutMap`] for the current graph snapshot.
    pub fn tfo_cone(&self, root: NodeId, fanouts: &FanoutMap) -> Cone {
        let mut bitmap = vec![false; self.num_nodes()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut bitmap[id.index()], true) {
                continue;
            }
            stack.extend_from_slice(fanouts.fanouts(id));
        }
        Cone::from_bitmap(bitmap)
    }

    /// Computes the maximum fanout-free cone (MFFC) of `root`: the set of AND
    /// nodes that would become dangling if `root` were removed.
    ///
    /// The returned list contains `root` first (if it is an AND node) and is
    /// the conventional measure of how many nodes a resubstitution of `root`
    /// can save.
    pub fn mffc(&self, root: NodeId, fanouts: &FanoutMap) -> Vec<NodeId> {
        self.mffc_with(root, fanouts, &mut MffcScratch::new())
    }

    /// Like [`Aig::mffc`], but reuses a caller-held [`MffcScratch`] so the
    /// per-call cost is proportional to the MFFC itself, not the graph.
    /// Per-node loops (LAC generation visits every AND node) should hold
    /// one scratch and reuse it; results are identical to [`Aig::mffc`].
    pub fn mffc_with(
        &self,
        root: NodeId,
        fanouts: &FanoutMap,
        scratch: &mut MffcScratch,
    ) -> Vec<NodeId> {
        if !self.node(root).is_and() {
            return Vec::new();
        }
        // Simulate dereferencing root: counts of nodes whose refs all come
        // from inside the dereferenced cone drop to zero. The scratch
        // tracks the decrements of this query only; base counts come from
        // the fanout map every time, so nothing can go stale.
        scratch.deltas.begin(self.num_nodes());
        let mut mffc = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            mffc.push(id);
            if let Node::And { f0, f1 } = *self.node(id) {
                for fanin in [f0.node(), f1.node()] {
                    let remaining = scratch.decrement(fanin, fanouts.ref_count(fanin));
                    if remaining == 0 && self.node(fanin).is_and() {
                        stack.push(fanin);
                    }
                }
            }
        }
        mffc
    }

    /// Walks the cone of `root` bounded by the cut `leaves`: all paths from
    /// `root` towards the inputs stop at nodes in `leaves`. Returns the
    /// interior AND nodes in topological order (empty when `root` is itself
    /// a leaf); `scratch` keeps them, and every node's slot, until its next
    /// walk.
    ///
    /// The constant node is an implicit leaf. Returns `None` if the cone
    /// escapes past an input that is not listed as a leaf (i.e. `leaves` is
    /// not a valid cut of `root`).
    pub fn cone_interior<'s>(
        &self,
        root: NodeId,
        leaves: &[NodeId],
        scratch: &'s mut ConeScratch,
    ) -> Option<&'s [NodeId]> {
        let ConeScratch {
            slots,
            interior,
            stack,
            ..
        } = scratch;
        slots.begin(self.num_nodes());
        for (i, &leaf) in leaves.iter().enumerate() {
            slots.set(leaf, i as u32);
        }
        interior.clear();
        stack.clear();
        stack.push(root);
        while let Some(id) = stack.pop() {
            if slots.get(id).is_some() {
                continue; // a leaf, or an interior node already seen
            }
            match *self.node(id) {
                Node::And { f0, f1 } => {
                    slots.set(id, u32::MAX); // seen; numbered after the sort
                    interior.push(id);
                    stack.push(f0.node());
                    stack.push(f1.node());
                }
                Node::Const => {}
                // Hit an input that is not a leaf: not a cut.
                Node::Input { .. } => return None,
            }
        }
        interior.sort_unstable();
        for (j, &id) in interior.iter().enumerate() {
            slots.set(id, (leaves.len() + j) as u32);
        }
        Some(interior)
    }

    /// The cut-local MFFC of the last [`Aig::cone_interior`] walk from
    /// `root`, which must have returned `Some`: the interior nodes that become dangling when
    /// `root` is replaced, because every reference to them comes from a
    /// freed node (and none from an output). Includes `root`; returned in
    /// topological order.
    pub fn cone_mffc<'s>(
        &self,
        root: NodeId,
        fanouts: &FanoutMap,
        scratch: &'s mut ConeScratch,
    ) -> &'s [NodeId] {
        let ConeScratch {
            marks,
            interior,
            freed,
            ..
        } = scratch;
        marks.begin(self.num_nodes());
        marks.set(root, ());
        // Fanouts have larger ids than their fanins, so one pass in reverse
        // topological order decides every consumer before its fanins.
        for &n in interior.iter().rev().filter(|&&n| n != root) {
            let consumers = fanouts.fanouts(n);
            let fanin_refs: u32 = consumers
                .iter()
                .map(|&f| {
                    let [f0, f1] = self.and_fanins(f);
                    (f0.node() == n) as u32 + (f1.node() == n) as u32
                })
                .sum();
            if fanin_refs == fanouts.ref_count(n)
                && consumers.iter().all(|&f| marks.get(f).is_some())
            {
                marks.set(n, ());
            }
        }
        freed.clear();
        freed.extend(interior.iter().filter(|&&n| marks.get(n).is_some()));
        freed
    }

    /// The leaves of the cone formed by the AND nodes `members` (such as an
    /// MFFC): their fanins that are not members themselves, excluding the
    /// constant, in ascending order without duplicates.
    pub fn cone_leaves(&self, members: &[NodeId], scratch: &mut ConeScratch) -> Vec<NodeId> {
        let marks = &mut scratch.marks;
        marks.begin(self.num_nodes());
        for &n in members {
            marks.set(n, ());
        }
        let mut leaves = Vec::new();
        for &n in members {
            for fanin in self.and_fanins(n).map(Lit::node) {
                if fanin != NodeId::CONST && marks.get(fanin).is_none() {
                    marks.set(fanin, ());
                    leaves.push(fanin);
                }
            }
        }
        leaves.sort_unstable();
        leaves
    }

    /// Returns the literal-level fanins of an AND node as an array, panicking
    /// on non-AND nodes. Convenience for cone walkers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub fn and_fanins(&self, id: NodeId) -> [Lit; 2] {
        match *self.node(id) {
            Node::And { f0, f1 } => [f0, f1],
            ref other => panic!("{id} is not an AND node: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = (a & b) | (b & c); extra dangling node d = a & c.
    fn sample() -> (Aig, Lit, Lit, Lit, Lit, Lit, Lit) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let y = aig.or(ab, bc);
        let dangling = aig.and(a, c);
        aig.add_output("y", y);
        (aig, a, b, c, ab, bc, dangling)
    }

    #[test]
    fn tfi_includes_root_and_supports() {
        let (aig, a, b, _c, ab, _bc, _d) = sample();
        let cone = aig.tfi_cone(ab.node());
        assert!(cone.contains(ab.node()));
        assert!(cone.contains(a.node()));
        assert!(cone.contains(b.node()));
        assert_eq!(cone.len(), 3);
    }

    #[test]
    fn tfo_reaches_outputs() {
        let (aig, a, _b, _c, ab, _bc, d) = sample();
        let fanouts = aig.fanout_map();
        let tfo = aig.tfo_cone(a.node(), &fanouts);
        assert!(tfo.contains(ab.node()));
        assert!(tfo.contains(d.node()));
        // The OR node (output driver) is in a's TFO.
        let y_node = aig.outputs()[0].lit.node();
        assert!(tfo.contains(y_node));
    }

    #[test]
    fn dangling_detection() {
        let (aig, _a, _b, _c, ab, _bc, d) = sample();
        let fanouts = aig.fanout_map();
        assert!(fanouts.is_dangling(d.node()));
        assert!(!fanouts.is_dangling(ab.node()));
    }

    #[test]
    fn mffc_of_output_or_includes_single_use_cone() {
        let (aig, _a, _b, _c, ab, bc, _d) = sample();
        let fanouts = aig.fanout_map();
        let y_node = aig.outputs()[0].lit.node();
        let mffc = aig.mffc(y_node, &fanouts);
        // OR node plus both single-use AND fanins.
        assert_eq!(mffc.len(), 3);
        assert!(mffc.contains(&ab.node()));
        assert!(mffc.contains(&bc.node()));
    }

    #[test]
    fn mffc_stops_at_shared_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let shared = aig.and(a, b);
        let top = aig.and(shared, c);
        aig.add_output("t", top);
        aig.add_output("s", shared); // second reference keeps `shared` alive
        let fanouts = aig.fanout_map();
        let mffc = aig.mffc(top.node(), &fanouts);
        assert_eq!(mffc, vec![top.node()]);
    }

    #[test]
    fn mffc_of_input_is_empty() {
        let (aig, a, ..) = sample();
        let fanouts = aig.fanout_map();
        assert!(aig.mffc(a.node(), &fanouts).is_empty());
    }

    #[test]
    fn cone_interior_accepts_valid_cut() {
        let (aig, a, b, c, ab, bc, _d) = sample();
        let y = aig.outputs()[0].lit.node();
        let mut scratch = ConeScratch::new();
        let interior = aig
            .cone_interior(y, &[a.node(), b.node(), c.node()], &mut scratch)
            .expect("valid cut");
        assert_eq!(interior, [ab.node(), bc.node(), y]);
        assert_eq!(scratch.slot(b.node()), Some(1));
        assert_eq!(scratch.slot(bc.node()), Some(4));
        assert_eq!(scratch.slot(NodeId::CONST), None);
    }

    #[test]
    fn cone_interior_rejects_non_cut() {
        let (aig, a, _b, _c, _ab, _bc, _d) = sample();
        let y = aig.outputs()[0].lit.node();
        // Leaving out b and c means the walk escapes to inputs not in the cut.
        assert!(aig
            .cone_interior(y, &[a.node()], &mut ConeScratch::new())
            .is_none());
    }

    #[test]
    fn fanout_map_levels_match_graph_levels() {
        let (aig, ..) = sample();
        let fanouts = aig.fanout_map();
        assert_eq!(fanouts.levels(), &aig.levels()[..]);
        let max = aig.levels().iter().copied().max().unwrap_or(0);
        assert_eq!(fanouts.num_levels(), max + 1);
        for id in aig.iter_nodes() {
            assert_eq!(fanouts.level(id), aig.levels()[id.index()]);
        }
    }

    #[test]
    fn mffc_with_shared_scratch_matches_fresh_queries() {
        let (aig, ..) = sample();
        let fanouts = aig.fanout_map();
        let mut scratch = MffcScratch::new();
        // Interleave queries so the scratch carries decrements between
        // calls; every result must match a fresh O(n) query.
        for _ in 0..3 {
            for id in aig.iter_nodes() {
                let reused = aig.mffc_with(id, &fanouts, &mut scratch);
                let fresh = aig.mffc(id, &fanouts);
                assert_eq!(reused, fresh, "node {id}");
            }
        }
    }

    #[test]
    fn mffc_scratch_survives_graph_swaps() {
        // The same scratch must be correct across different graphs of the
        // same node count (base counts come from the map, not the scratch).
        let (a, ..) = sample();
        let mut b = Aig::new("t2");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let z = b.add_input("z");
        let xy = b.and(x, y);
        let yz = b.and(y, z);
        let top = b.and(xy, yz);
        b.add_output("o", top);
        b.add_output("o2", xy); // extra ref changes the MFFC shape
        let fa = a.fanout_map();
        let fb = b.fanout_map();
        let mut scratch = MffcScratch::new();
        for id in a.iter_nodes() {
            assert_eq!(a.mffc_with(id, &fa, &mut scratch), a.mffc(id, &fa));
        }
        for id in b.iter_nodes() {
            assert_eq!(b.mffc_with(id, &fb, &mut scratch), b.mffc(id, &fb));
        }
    }

    #[test]
    fn cone_interior_root_as_leaf_is_empty() {
        let (aig, _a, _b, _c, ab, ..) = sample();
        let mut scratch = ConeScratch::new();
        let interior = aig
            .cone_interior(ab.node(), &[ab.node()], &mut scratch)
            .expect("cut");
        assert!(interior.is_empty());
    }

    #[test]
    fn cone_interior_treats_the_constant_as_a_leaf() {
        let (aig, a, ..) = sample();
        let mut scratch = ConeScratch::new();
        let interior = aig
            .cone_interior(NodeId::CONST, &[a.node()], &mut scratch)
            .expect("the constant is an implicit leaf");
        assert!(interior.is_empty());
    }

    /// The cut-local MFFC, recomputed with fresh bitmaps and iterated to a
    /// fixed point: the reference [`Aig::cone_mffc`] must match.
    fn reference_cone_mffc(aig: &Aig, root: NodeId, interior: &[NodeId]) -> Vec<NodeId> {
        let fanouts = aig.fanout_map();
        let mut freed = vec![false; aig.num_nodes()];
        freed[root.index()] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for &n in interior {
                let refs: u32 = fanouts
                    .fanouts(n)
                    .iter()
                    .map(|&f| {
                        let [f0, f1] = aig.and_fanins(f);
                        (f0.node() == n) as u32 + (f1.node() == n) as u32
                    })
                    .sum();
                if !freed[n.index()]
                    && refs == fanouts.ref_count(n)
                    && fanouts.fanouts(n).iter().all(|f| freed[f.index()])
                {
                    freed[n.index()] = true;
                    changed = true;
                }
            }
        }
        interior
            .iter()
            .copied()
            .filter(|n| freed[n.index()])
            .collect()
    }

    /// y = (a & b) | (b & c) with `ab` also driving a second output.
    fn shared_sample() -> (Aig, [NodeId; 3], [NodeId; 3]) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let y = aig.or(ab, bc);
        aig.add_output("y", y);
        aig.add_output("ab", ab);
        (
            aig,
            [a.node(), b.node(), c.node()],
            [ab.node(), bc.node(), y.node()],
        )
    }

    #[test]
    fn cone_mffc_excludes_nodes_referenced_outside_the_cone() {
        let (aig, inputs, [ab, bc, y]) = shared_sample();
        let fanouts = aig.fanout_map();
        let mut scratch = ConeScratch::new();
        let interior = aig
            .cone_interior(y, &inputs, &mut scratch)
            .expect("cut")
            .to_vec();
        let mffc = aig.cone_mffc(y, &fanouts, &mut scratch).to_vec();
        assert_eq!(mffc, [bc, y]);
        assert_eq!(mffc, reference_cone_mffc(&aig, y, &interior));
        assert!(!mffc.contains(&ab));
    }

    #[test]
    fn cone_leaves_bound_the_members() {
        let (aig, [_a, b, c], [ab, bc, y]) = shared_sample();
        let mut scratch = ConeScratch::new();
        // The MFFC of y is {bc, y}: its leaves are ab (shared), b and c.
        let leaves = aig.cone_leaves(&[y, bc], &mut scratch);
        assert_eq!(leaves, [b, c, ab]);
    }

    #[test]
    fn scratches_survive_epoch_wrap() {
        let aig = {
            let mut aig = Aig::new("wrap");
            let xs = aig.add_inputs("x", 6);
            let l = aig.and(xs[0], xs[1]);
            let r = aig.xor(xs[2], xs[3]);
            let m = aig.or(l, r);
            let t = aig.and(m, xs[4]);
            let u = aig.and(l, xs[5]);
            aig.add_output("t", t);
            aig.add_output("u", u);
            aig
        };
        let fanouts = aig.fanout_map();
        let leaves: Vec<NodeId> = aig.inputs().to_vec();
        let mut fresh = ConeScratch::new();
        let want: Vec<_> = aig
            .iter_ands()
            .map(|id| {
                let interior = aig
                    .cone_interior(id, &leaves, &mut fresh)
                    .expect("cut")
                    .to_vec();
                let mffc = aig.cone_mffc(id, &fanouts, &mut fresh).to_vec();
                (interior, mffc, aig.mffc(id, &fanouts))
            })
            .collect();
        // Start both scratches a few queries short of the wrap, so the
        // queries below cross it with stale stamps from before.
        let mut cone = ConeScratch::new();
        let mut mffc = MffcScratch::new();
        for id in aig.iter_ands() {
            aig.cone_interior(id, &leaves, &mut cone).expect("cut");
            aig.cone_mffc(id, &fanouts, &mut cone);
            aig.mffc_with(id, &fanouts, &mut mffc);
        }
        cone.slots.epoch = u32::MAX - 2;
        cone.marks.epoch = u32::MAX - 2;
        mffc.deltas.epoch = u32::MAX - 2;
        for _ in 0..3 {
            for (id, (interior, cut_mffc, full_mffc)) in aig.iter_ands().zip(&want) {
                let got = aig.cone_interior(id, &leaves, &mut cone).expect("cut");
                assert_eq!(got, interior.as_slice(), "interior of {id}");
                let got = aig.cone_mffc(id, &fanouts, &mut cone);
                assert_eq!(got, cut_mffc.as_slice(), "cut MFFC of {id}");
                let got = aig.mffc_with(id, &fanouts, &mut mffc);
                assert_eq!(&got, full_mffc, "MFFC of {id}");
            }
        }
        assert!(cone.slots.epoch < 100 && mffc.deltas.epoch < 100, "wrapped");
    }
}
