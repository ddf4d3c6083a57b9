//! Bounded windows around a pivot node for window-local resubstitution.
//!
//! Whole-circuit resubstitution walks the pivot's full transitive fanin
//! per candidate node, which is `O(n)` per pivot and `O(n²)` per flow
//! iteration. A [`Window`] bounds that walk: it collects at most
//! [`WindowParams::max_tfi`] TFI-side nodes (plus, optionally, a few
//! levels of TFO with their side inputs) and presents them behind a
//! stable cut interface:
//!
//! * **leaves** — boundary nodes treated as free inputs of the window;
//! * **interior** — AND nodes whose fanins are all inside the window;
//! * **roots** — interior nodes observable from outside the window
//!   (referenced by outside nodes or primary outputs), always including
//!   the pivot.
//!
//! [`Aig::from_window`] materializes the window as a standalone AIG
//! (inputs = leaves, outputs = roots) and [`Aig::splice_window`] puts a
//! modified window back, composing with
//! [`Aig::rebuilt_with_substitutions_mapped`] so the usual sweep /
//! re-strash / cycle-check guarantees apply. Splicing an *unmodified*
//! window is a no-op: structural hashing maps every materialized node
//! back onto its original, the substitutions degenerate to identities
//! (which are dropped), and the rebuild equals [`Aig::cleaned`].
//!
//! When `max_tfi` is at least the pivot's full TFI size, the collected
//! window is *exactly* the TFI cone — the property the flow's
//! bit-identity gate on small circuits rests on.
//!
//! LAC generation needs only the divisor candidate pool, so it calls
//! [`WindowExtractor::tfi_members`] — the bounded TFI walk alone — and
//! never builds the full [`Window`].

use crate::{Aig, FanoutMap, Lit, Node, NodeId, RebuildError};
use std::collections::HashMap;

/// Size bounds for [`WindowExtractor::extract`].
#[derive(Clone, Debug)]
pub struct WindowParams {
    /// Maximum number of TFI-side nodes collected (pivot, interior, and
    /// leaves together). `0` means unbounded. When the bound is at least
    /// the pivot's TFI size, the window covers the entire TFI cone.
    pub max_tfi: usize,
    /// Fanout levels above the pivot to include (breadth-first over fanout
    /// edges). Side fanins of included TFO nodes become extra leaves. `0`
    /// keeps the window TFI-only, which is what divisor selection needs.
    pub tfo_depth: u32,
}

impl Default for WindowParams {
    fn default() -> WindowParams {
        WindowParams {
            max_tfi: 1000,
            tfo_depth: 0,
        }
    }
}

/// A bounded window around one pivot node. See the [module docs](self)
/// for the leaf/interior/root contract.
#[derive(Clone, Debug)]
pub struct Window {
    pivot: NodeId,
    leaves: Vec<NodeId>,
    interior: Vec<NodeId>,
    roots: Vec<NodeId>,
    tfi_members: Vec<NodeId>,
}

impl Window {
    /// The node the window was extracted around.
    pub fn pivot(&self) -> NodeId {
        self.pivot
    }

    /// Boundary nodes treated as free window inputs, ascending. A leaf is
    /// a primary input, the constant, or an AND node whose fanin cone was
    /// truncated by the size bound.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// AND nodes fully inside the window, ascending (= topological: every
    /// fanin of an interior node is itself interior or a leaf).
    pub fn interior(&self) -> &[NodeId] {
        &self.interior
    }

    /// Interior nodes visible outside the window (referenced by an
    /// outside node or a primary output), ascending; the pivot is always
    /// included.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Window nodes lying in the pivot's (bounded) TFI, ascending —
    /// the divisor candidate pool. With `tfo_depth = 0` this is every
    /// window node; TFO nodes and their side leaves are excluded.
    pub fn tfi_nodes(&self) -> &[NodeId] {
        &self.tfi_members
    }

    /// Total number of window nodes (leaves plus interior).
    pub fn num_nodes(&self) -> usize {
        self.leaves.len() + self.interior.len()
    }

    /// Returns `true` if `id` is a window node (leaf or interior).
    pub fn contains(&self, id: NodeId) -> bool {
        self.leaves.binary_search(&id).is_ok() || self.interior.binary_search(&id).is_ok()
    }
}

/// Reusable extractor arena: epoch-stamped visit marks sized to the graph,
/// so per-pivot extraction costs `O(window)` rather than `O(n)`. Per-node
/// loops should hold one extractor and reuse it across pivots.
#[derive(Clone, Debug, Default)]
pub struct WindowExtractor {
    /// Visit stamp: node is a window member this epoch.
    mark: Vec<u32>,
    /// Expansion stamp: the node's fanins were pushed (interior candidate).
    expanded: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    members: Vec<NodeId>,
}

impl WindowExtractor {
    /// An empty extractor; buffers are sized lazily on first use.
    pub fn new() -> WindowExtractor {
        WindowExtractor::default()
    }

    fn begin(&mut self, num_nodes: usize) {
        if self.mark.len() < num_nodes {
            self.mark.clear();
            self.mark.resize(num_nodes, 0);
            self.expanded.clear();
            self.expanded.resize(num_nodes, 0);
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.expanded.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.members.clear();
    }

    #[inline]
    fn visit(&mut self, id: NodeId) -> bool {
        if self.mark[id.index()] == self.epoch {
            return false;
        }
        self.mark[id.index()] = self.epoch;
        self.members.push(id);
        true
    }

    /// Walks the pivot's bounded TFI — phase 1 of [`extract`] alone — and
    /// returns its members in walk order (unsorted). This is the divisor
    /// candidate pool: the same node set as [`Window::tfi_nodes`] under
    /// the same bound, without the leaf/interior/root classification.
    ///
    /// The walk mirrors [`Aig::tfi_cone`]'s traversal order and stops
    /// *expanding* once `max_tfi` nodes are collected — already-reached
    /// fanins stay in as leaves. `max_tfi = 0` means unbounded: the result
    /// is then exactly the TFI cone, at `O(cone)` cost instead of
    /// `tfi_cone`'s `O(n)` bitmap. The pivot itself is always expanded.
    ///
    /// [`extract`]: WindowExtractor::extract
    pub fn tfi_members(&mut self, aig: &Aig, pivot: NodeId, max_tfi: usize) -> &[NodeId] {
        self.begin(aig.num_nodes());
        let epoch = self.epoch;
        self.visit(pivot);
        if aig.node(pivot).is_and() {
            self.expanded[pivot.index()] = epoch;
            let [f0, f1] = aig.and_fanins(pivot);
            self.stack.push(f0.node());
            self.stack.push(f1.node());
        }
        while let Some(id) = self.stack.pop() {
            if !self.visit(id) {
                continue;
            }
            let within_budget = max_tfi == 0 || self.members.len() < max_tfi;
            if within_budget && aig.node(id).is_and() {
                self.expanded[id.index()] = epoch;
                let [f0, f1] = aig.and_fanins(id);
                self.stack.push(f0.node());
                self.stack.push(f1.node());
            }
        }
        &self.members
    }

    /// Extracts the window around `pivot` under `params`.
    ///
    /// The TFI side is [`WindowExtractor::tfi_members`] under
    /// `params.max_tfi`, so an AND pivot is always interior. `fanouts`
    /// must be the fanout map of `aig` (same snapshot).
    pub fn extract(
        &mut self,
        aig: &Aig,
        fanouts: &FanoutMap,
        pivot: NodeId,
        params: &WindowParams,
    ) -> Window {
        // Phase 1: bounded TFI walk.
        let mut tfi_members = self.tfi_members(aig, pivot, params.max_tfi).to_vec();
        tfi_members.sort_unstable();
        let epoch = self.epoch;

        // Phase 2: depth-limited TFO over fanout edges, then close the
        // window by pulling each TFO node's side fanins in as leaves.
        if params.tfo_depth > 0 {
            let mut frontier = vec![pivot];
            for _ in 0..params.tfo_depth {
                let mut next = Vec::new();
                for &id in &frontier {
                    for &f in fanouts.fanouts(id) {
                        if self.visit(f) {
                            self.expanded[f.index()] = epoch;
                            next.push(f);
                        } else if self.expanded[f.index()] != epoch && aig.node(f).is_and() {
                            // Reached a truncated TFI leaf from below: its
                            // fanins must now be pulled in for closure.
                            self.expanded[f.index()] = epoch;
                            next.push(f);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            // Closure: side fanins of expanded TFO nodes become leaves.
            // `members` can grow while iterating, hence the index loop.
            let mut i = 0;
            while i < self.members.len() {
                let id = self.members[i];
                i += 1;
                if self.expanded[id.index()] == epoch && aig.node(id).is_and() {
                    let [f0, f1] = aig.and_fanins(id);
                    self.visit(f0.node());
                    self.visit(f1.node());
                }
            }
        }

        // Classify members. Interior = expanded AND nodes (their fanins
        // are all members by construction); everything else is a leaf.
        let mut leaves = Vec::new();
        let mut interior = Vec::new();
        for &id in &self.members {
            if self.expanded[id.index()] == epoch && aig.node(id).is_and() {
                interior.push(id);
            } else {
                leaves.push(id);
            }
        }
        leaves.sort_unstable();
        interior.sort_unstable();

        // Roots: interior nodes with references from outside the window
        // (fanin references from non-interior nodes, or primary outputs),
        // plus the pivot unconditionally.
        let mut inside_refs: HashMap<NodeId, u32> = HashMap::new();
        for &id in &interior {
            let [f0, f1] = aig.and_fanins(id);
            *inside_refs.entry(f0.node()).or_insert(0) += 1;
            *inside_refs.entry(f1.node()).or_insert(0) += 1;
        }
        let mut roots: Vec<NodeId> = interior
            .iter()
            .copied()
            .filter(|&id| {
                id == pivot || fanouts.ref_count(id) > inside_refs.get(&id).copied().unwrap_or(0)
            })
            .collect();
        roots.sort_unstable();

        Window {
            pivot,
            leaves,
            interior,
            roots,
            tfi_members,
        }
    }
}

impl Aig {
    /// Materializes a window as a standalone AIG: one input per leaf
    /// (named `w<parent-id>`), one output per root (named `r<parent-id>`),
    /// with the interior logic rebuilt in between. Input order matches
    /// [`Window::leaves`] and output order matches [`Window::roots`] —
    /// the binding contract [`Aig::splice_window`] relies on.
    pub fn from_window(&self, window: &Window) -> Aig {
        let mut sub = Aig::new(format!("{}_w{}", self.name(), window.pivot()));
        let mut map: HashMap<NodeId, Lit> = HashMap::new();
        map.insert(NodeId::CONST, Lit::FALSE);
        for &leaf in window.leaves() {
            let lit = sub.add_input(format!("w{leaf}"));
            map.insert(leaf, lit);
        }
        for &id in window.interior() {
            let [f0, f1] = self.and_fanins(id);
            let a = map[&f0.node()].complement_if(f0.is_complement());
            let b = map[&f1.node()].complement_if(f1.is_complement());
            let lit = sub.and(a, b);
            map.insert(id, lit);
        }
        for &root in window.roots() {
            sub.add_output(format!("r{root}"), map[&root]);
        }
        sub
    }

    /// Splices a (possibly modified) window implementation back into the
    /// parent graph: `replacement`'s inputs bind to the window's leaves
    /// and its outputs substitute the window's roots, then the graph is
    /// rebuilt (swept, re-strashed, cycle-checked) via
    /// [`Aig::rebuilt_with_substitutions_mapped`].
    ///
    /// Substitutions that resolve to a root's own literal (the unmodified
    /// case — structural hashing maps the materialized copy back onto the
    /// original node) are dropped as no-ops, so splicing an unmodified
    /// window equals [`Aig::cleaned`].
    ///
    /// # Errors
    ///
    /// [`RebuildError::Cycle`] if a replacement output depends, through
    /// outside-the-window logic, on a root it substitutes.
    ///
    /// # Panics
    ///
    /// Panics if `replacement`'s input/output arity does not match the
    /// window's leaf/root counts.
    pub fn splice_window(
        &self,
        window: &Window,
        replacement: &Aig,
    ) -> Result<(Aig, Vec<Option<Lit>>), RebuildError> {
        assert_eq!(
            replacement.num_inputs(),
            window.leaves().len(),
            "replacement inputs must match window leaves"
        );
        assert_eq!(
            replacement.num_outputs(),
            window.roots().len(),
            "replacement outputs must match window roots"
        );
        let mut work = self.clone();
        // Rebuild the replacement's logic inside the parent, leaves bound
        // positionally. Structural hashing dedups anything that already
        // exists.
        let mut map: Vec<Lit> = Vec::with_capacity(replacement.num_nodes());
        for id in replacement.iter_nodes() {
            let lit = match *replacement.node(id) {
                Node::Const => Lit::FALSE,
                Node::Input { index } => window.leaves()[index as usize].lit(),
                Node::And { f0, f1 } => {
                    let a = map[f0.node().index()].complement_if(f0.is_complement());
                    let b = map[f1.node().index()].complement_if(f1.is_complement());
                    work.and(a, b)
                }
            };
            map.push(lit);
        }
        let mut subs: HashMap<NodeId, Lit> = HashMap::new();
        for (&root, output) in window.roots().iter().zip(replacement.outputs()) {
            let lit = map[output.lit.node().index()].complement_if(output.lit.is_complement());
            if lit != root.lit() {
                subs.insert(root, lit);
            }
        }
        work.rebuilt_with_substitutions_mapped(&subs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// v = (a & b) & (c | d), plus a second output on (a & b).
    fn sample() -> (Aig, NodeId) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.or(c, d);
        let v = aig.and(ab, cd);
        aig.add_output("v", v);
        aig.add_output("ab", ab);
        (aig, v.node())
    }

    #[test]
    fn unbounded_window_covers_the_tfi() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        let tfi = aig.tfi_cone(pivot);
        assert_eq!(w.num_nodes(), tfi.len());
        for &id in tfi.members() {
            assert!(w.contains(id), "{id} missing from window");
        }
        assert_eq!(w.tfi_nodes(), tfi.members());
        // All four inputs are leaves; the three ANDs are interior.
        assert_eq!(w.leaves().len(), 4);
        assert_eq!(w.interior().len(), 3);
        assert!(w.roots().contains(&pivot));
    }

    #[test]
    fn tfi_members_match_the_window_and_the_cone() {
        let (aig, _) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        for id in aig.iter_nodes() {
            let mut whole = ex.tfi_members(&aig, id, 0).to_vec();
            whole.sort_unstable();
            assert_eq!(whole, aig.tfi_cone(id).members(), "node {id}");
            for max_tfi in [1, 2, 3, 1000] {
                let mut pool = ex.tfi_members(&aig, id, max_tfi).to_vec();
                pool.sort_unstable();
                let params = WindowParams {
                    max_tfi,
                    tfo_depth: 0,
                };
                let w = ex.extract(&aig, &fanouts, id, &params);
                assert_eq!(pool, w.tfi_nodes(), "node {id}, max_tfi {max_tfi}");
            }
        }
    }

    #[test]
    fn truncated_window_respects_the_bound_and_stays_closed() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(
            &aig,
            &fanouts,
            pivot,
            &WindowParams {
                max_tfi: 3,
                tfo_depth: 0,
            },
        );
        assert!(w.num_nodes() <= 5, "window too large: {}", w.num_nodes());
        // Closure: every interior fanin is a window member.
        for &id in w.interior() {
            let [f0, f1] = aig.and_fanins(id);
            assert!(w.contains(f0.node()));
            assert!(w.contains(f1.node()));
        }
        // Pivot is always interior for an AND pivot.
        assert!(w.interior().contains(&pivot));
    }

    #[test]
    fn shared_interior_node_becomes_a_root() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        // `ab` drives a primary output, so it must be a root besides the
        // pivot; `cd` is only referenced by the pivot, so it must not.
        let ab = aig.outputs()[1].lit.node();
        assert!(w.roots().contains(&ab));
        assert_eq!(w.roots().len(), 2);
    }

    #[test]
    fn tfo_windows_pull_in_side_inputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let top = aig.and(ab, c); // c is a side input of the TFO node
        aig.add_output("y", top);
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(
            &aig,
            &fanouts,
            ab.node(),
            &WindowParams {
                max_tfi: 0,
                tfo_depth: 1,
            },
        );
        assert!(w.contains(top.node()));
        assert!(w.leaves().contains(&c.node()), "side input missing");
        assert!(w.interior().contains(&top.node()));
        // The TFI pool excludes TFO nodes and their side inputs.
        assert!(!w.tfi_nodes().contains(&top.node()));
        assert!(!w.tfi_nodes().contains(&c.node()));
    }

    #[test]
    fn from_window_reproduces_the_window_function() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        let sub = aig.from_window(&w);
        assert_eq!(sub.num_inputs(), w.leaves().len());
        assert_eq!(sub.num_outputs(), w.roots().len());
        // Leaves are the 4 PIs here, so evaluating the sub-AIG on an
        // assignment must match the parent's internal node values.
        for bits in 0..16u32 {
            let inputs: Vec<bool> = (0..4).map(|i| bits >> i & 1 != 0).collect();
            let sub_out = sub.evaluate(&inputs);
            let parent_values = aig.evaluate(&inputs);
            // Parent output 0 is v (the pivot), output 1 is ab.
            let want_pivot = parent_values[0];
            let want_ab = parent_values[1];
            let pivot_pos = w.roots().iter().position(|&r| r == pivot).unwrap();
            assert_eq!(sub_out[pivot_pos], want_pivot, "bits {bits:04b}");
            let ab_pos = 1 - pivot_pos;
            assert_eq!(sub_out[ab_pos], want_ab, "bits {bits:04b}");
        }
    }

    #[test]
    fn splice_of_unmodified_window_is_a_no_op() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        for params in [
            WindowParams::default(),
            WindowParams {
                max_tfi: 3,
                tfo_depth: 0,
            },
            WindowParams {
                max_tfi: 0,
                tfo_depth: 2,
            },
        ] {
            let w = ex.extract(&aig, &fanouts, pivot, &params);
            let sub = aig.from_window(&w);
            let (spliced, _) = aig.splice_window(&w, &sub).expect("no cycle");
            let clean = aig.cleaned();
            assert_eq!(spliced.num_ands(), clean.num_ands());
            for bits in 0..16u32 {
                let inputs: Vec<bool> = (0..4).map(|i| bits >> i & 1 != 0).collect();
                assert_eq!(spliced.evaluate(&inputs), clean.evaluate(&inputs));
            }
        }
    }

    #[test]
    fn splice_applies_a_modified_window() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        let mut sub = aig.from_window(&w);
        // Replace the pivot's function with constant 0 in the window copy.
        let pivot_pos = w.roots().iter().position(|&r| r == pivot).unwrap();
        sub.set_output_lit(pivot_pos, Lit::FALSE);
        let (spliced, _) = aig.splice_window(&w, &sub).expect("no cycle");
        for bits in 0..16u32 {
            let inputs: Vec<bool> = (0..4).map(|i| bits >> i & 1 != 0).collect();
            let out = spliced.evaluate(&inputs);
            assert!(!out[0], "pivot output forced to 0, bits {bits:04b}");
            // The ab output is untouched.
            assert_eq!(out[1], aig.evaluate(&inputs)[1]);
        }
    }

    #[test]
    fn extractor_reuse_is_deterministic() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let first = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        for id in aig.iter_ands() {
            let _ = ex.extract(&aig, &fanouts, id, &WindowParams::default());
        }
        let again = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        assert_eq!(first.leaves(), again.leaves());
        assert_eq!(first.interior(), again.interior());
        assert_eq!(first.roots(), again.roots());
        assert_eq!(first.tfi_nodes(), again.tfi_nodes());
    }
}
