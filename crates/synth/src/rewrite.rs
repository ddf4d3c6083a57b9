//! Cut-based rewriting, and the replacement recipes it shares with
//! refactoring.
//!
//! For every AND node, enumerate its 4-feasible cuts, derive each cut's
//! truth table, re-synthesize the function as a minimized factored form,
//! and substitute when the replacement is smaller than the logic it frees
//! (the node's MFFC restricted to the cut cone). Each cut's cone is walked
//! once, in a [`ConeScratch`] reused across cuts, so a pass costs time
//! proportional to the cones it examines rather than to the graph per cut.
//!
//! **The recipe memo.** `recipe` derives a replacement once per truth
//! table and keeps it in a memo that [`rewrite`] and
//! [`refactor`](crate::refactor) share, playing the role of ABC's
//! precomputed library. The memo is thread-local and lives as long as its
//! thread, across passes and `optimize` calls, because the ALSRAC flow
//! runs `optimize` hundreds of times on nearly identical circuits. It holds
//! at most `MEMO_CAP` truth tables and is cleared when full. A recipe is
//! a pure function of its truth table, so a hit returns exactly what a
//! miss would compute: no result depends on the memo's contents, on which
//! thread runs a pass, or on what that thread ran before.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use alsrac_aig::{Aig, ConeScratch, Lit, NodeId};
use alsrac_rt::trace;
use alsrac_truthtable::{cone_tt, factored_aig_cost, isop, minimize, sop_to_aig, Sop, Tt};

/// Options for [`rewrite`].
#[derive(Clone, Debug)]
pub struct RewriteConfig {
    /// Cut size (ABC uses 4).
    pub cut_size: usize,
    /// Cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Accept replacements with zero gain (ABC's `rewrite -z`); useful for
    /// escaping local minima between passes.
    pub zero_gain: bool,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig {
            cut_size: 4,
            max_cuts: 8,
            zero_gain: false,
        }
    }
}

/// A replacement recipe: the chosen cover and polarity for a truth table,
/// plus its standalone node cost.
pub(crate) struct Recipe {
    cover: Sop,
    complemented: bool,
    pub(crate) cost: usize,
}

/// Truth tables the recipe memo holds before it is cleared. Whole ALSRAC
/// runs on the Paper-scale circuits derive about a thousand distinct
/// functions (mostly 4-input cuts, some up-to-10-input refactoring cones),
/// roughly 150 bytes each, so a full memo stays near 300 KB.
const MEMO_CAP: usize = 2048;

thread_local! {
    static MEMO: RefCell<HashMap<Tt, Rc<Recipe>>> = RefCell::new(HashMap::new());
}

/// The cheaper of `isop(f)` / `isop(!f)`, minimized and factored, from
/// this thread's memo (derived and memoized on a miss).
pub(crate) fn recipe(tt: &Tt) -> Rc<Recipe> {
    MEMO.with(|memo| {
        if let Some(recipe) = memo.borrow().get(tt) {
            return Rc::clone(recipe);
        }
        let n = tt.nvars();
        let pos = minimize(&isop(tt, tt), tt, &Tt::zero(n));
        let neg_tt = tt.not();
        let neg = minimize(&isop(&neg_tt, &neg_tt), &neg_tt, &Tt::zero(n));
        let pos_cost = factored_aig_cost(&pos, n);
        let neg_cost = factored_aig_cost(&neg, n);
        let recipe = Rc::new(if neg_cost < pos_cost {
            Recipe {
                cover: neg,
                complemented: true,
                cost: neg_cost,
            }
        } else {
            Recipe {
                cover: pos,
                complemented: false,
                cost: pos_cost,
            }
        });
        let mut memo = memo.borrow_mut();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(tt.clone(), Rc::clone(&recipe));
        recipe
    })
}

/// Materializes the accepted `(root, recipe, leaves)` replacements in
/// `work` and rebuilds it with each root substituted.
pub(crate) fn substitute<L: AsRef<[NodeId]>>(
    mut work: Aig,
    pending: Vec<(NodeId, Rc<Recipe>, L)>,
) -> Aig {
    if pending.is_empty() {
        return work.cleaned();
    }
    let mut substitutions: HashMap<NodeId, Lit> = HashMap::new();
    for (id, recipe, leaves) in pending {
        let leaf_lits: Vec<Lit> = leaves.as_ref().iter().map(|&n| n.lit()).collect();
        let new_lit =
            sop_to_aig(&mut work, &recipe.cover, &leaf_lits).complement_if(recipe.complemented);
        if new_lit.node() != id {
            substitutions.insert(id, new_lit);
        }
    }
    work.rebuilt_with_substitutions(&substitutions)
        .expect("substitutions reference strict TFI cones")
}

/// One rewriting pass over the graph. Returns the rewritten (and swept)
/// graph; the result is functionally equivalent to the input.
pub fn rewrite(aig: &Aig, config: &RewriteConfig) -> Aig {
    let _span = trace::span("rewrite");
    let work = aig.clone();
    let cut_sets = work.enumerate_cuts(config.cut_size, config.max_cuts);
    let fanouts = work.fanout_map();
    let mut scratch = ConeScratch::new();
    // Decisions are collected first and materialized after the scan, so
    // cut/fanout/MFFC queries always see the unmodified graph.
    let mut pending: Vec<(NodeId, Rc<Recipe>, &[NodeId])> = Vec::new();
    // Nodes already freed by an accepted substitution this pass: their
    // savings must not be double-counted by enclosing cones.
    let mut claimed = vec![false; work.num_nodes()];
    let mut cuts_evaluated = 0u64;
    // The nodes the best cut's replacement frees.
    let mut best_mffc: Vec<NodeId> = Vec::new();

    for id in work.iter_ands() {
        if claimed[id.index()] {
            continue;
        }
        let mut best: Option<(isize, &[NodeId], Rc<Recipe>)> = None;
        for cut in cut_sets[id.index()].nontrivial() {
            if cut.len() < 2 {
                continue;
            }
            let Some(tt) = cone_tt(&work, id.lit(), cut.leaves(), &mut scratch) else {
                continue;
            };
            cuts_evaluated += 1;
            // Savings: interior nodes of the cone that are referenced only
            // from inside it (the cut-local MFFC), none already claimed.
            let mffc = work.cone_mffc(id, &fanouts, &mut scratch);
            if mffc.iter().any(|n| claimed[n.index()]) {
                continue;
            }
            let recipe = recipe(&tt);
            let gain = mffc.len() as isize - recipe.cost as isize;
            let acceptable = gain > 0 || (config.zero_gain && gain == 0);
            if acceptable && best.as_ref().is_none_or(|(g, ..)| gain > *g) {
                best = Some((gain, cut.leaves(), recipe));
                best_mffc.clear();
                best_mffc.extend_from_slice(mffc);
            }
        }
        if let Some((_gain, leaves, recipe)) = best {
            // Claim the freed nodes so overlapping cones don't recount them.
            for &n in &best_mffc {
                claimed[n.index()] = true;
            }
            pending.push((id, recipe, leaves));
        }
    }
    trace::add("rewrite_cuts_evaluated", cuts_evaluated);
    substitute(work, pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(a: &Aig, b: &Aig) {
        let n = a.num_inputs();
        assert_eq!(n, b.num_inputs());
        assert!(n <= 12);
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p:b}");
        }
    }

    #[test]
    fn rewrite_shrinks_redundant_xor_ladder() {
        // xor built the wasteful way: (a|b) & !(a&b) twice over.
        let mut aig = Aig::new("waste");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let or1 = aig.or(a, b);
        let nand1 = !aig.and(a, b);
        let x1 = aig.and(or1, nand1);
        let or2 = aig.or(x1, a);
        let nand2 = !aig.and(x1, a);
        let x2 = aig.and(or2, nand2);
        aig.add_output("y", x2);
        let rewritten = rewrite(&aig, &RewriteConfig::default());
        assert!(rewritten.num_ands() <= aig.num_ands());
        assert_equivalent(&aig, &rewritten);
    }

    #[test]
    fn rewrite_preserves_function_on_benchmarks() {
        for aig in [
            alsrac_circuits::arith::ripple_carry_adder(4),
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::arith::wallace_multiplier(3),
            alsrac_circuits::control::voter(7),
        ] {
            let rewritten = rewrite(&aig, &RewriteConfig::default());
            assert!(
                rewritten.num_ands() <= aig.num_ands(),
                "{} grew: {} -> {}",
                aig.name(),
                aig.num_ands(),
                rewritten.num_ands()
            );
            assert_equivalent(&aig, &rewritten);
        }
    }

    #[test]
    fn zero_gain_mode_preserves_function() {
        let aig = alsrac_circuits::arith::kogge_stone_adder(4);
        let config = RewriteConfig {
            zero_gain: true,
            ..RewriteConfig::default()
        };
        let rewritten = rewrite(&aig, &config);
        assert_equivalent(&aig, &rewritten);
        assert!(rewritten.num_ands() <= aig.num_ands());
    }

    #[test]
    fn random_networks_survive_rewriting() {
        for seed in 0..6 {
            let aig = alsrac_circuits::random_logic::random_network(
                &alsrac_circuits::random_logic::RandomNetworkConfig {
                    num_inputs: 8,
                    num_outputs: 4,
                    num_gates: 80,
                    locality: 20,
                    seed,
                },
            );
            let rewritten = rewrite(&aig, &RewriteConfig::default());
            assert_equivalent(&aig, &rewritten);
        }
    }

    #[test]
    fn rewrite_is_stable_at_fixpoint() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(4);
        let once = rewrite(&aig, &RewriteConfig::default());
        let twice = rewrite(&once, &RewriteConfig::default());
        assert!(twice.num_ands() <= once.num_ands());
        assert_equivalent(&once, &twice);
    }
}
