//! Truth tables of AIG cones.
//!
//! Rewriting, refactoring, and standard-cell matching all need the local
//! function a node computes over a chosen cut. This module evaluates a cone
//! symbolically by assigning a projection table to each leaf and sweeping
//! the interior.

use alsrac_aig::{Aig, ConeScratch, Lit, NodeId};

use crate::Tt;

/// Computes the truth table of `root` over the cut `leaves` (leaf `i`
/// becomes variable `i`).
///
/// The cone is walked once with [`Aig::cone_interior`], which leaves it in
/// `scratch`; the constant node is an implicit leaf evaluating to 0.
/// Returns `None` when `leaves` is not a valid cut of `root` (a path
/// escapes to an input outside the leaf set).
///
/// # Panics
///
/// Panics if `leaves` has more than [`MAX_VARS`](crate::MAX_VARS) entries.
///
/// # Example
///
/// ```
/// use alsrac_aig::{Aig, ConeScratch};
/// use alsrac_truthtable::{cone_tt, Tt};
///
/// let mut aig = Aig::new("t");
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let x = aig.xor(a, b);
/// let mut scratch = ConeScratch::new();
/// let tt = cone_tt(&aig, x, &[a.node(), b.node()], &mut scratch).expect("valid cut");
/// assert_eq!(tt, Tt::var(0, 2).xor(&Tt::var(1, 2)));
/// ```
pub fn cone_tt(aig: &Aig, root: Lit, leaves: &[NodeId], scratch: &mut ConeScratch) -> Option<Tt> {
    let nvars = leaves.len();
    aig.cone_interior(root.node(), leaves, scratch)?;
    let scratch = &*scratch;
    // Tables by slot: the leaves' projections, then the interior in order.
    let mut tables: Vec<Tt> = (0..nvars).map(|i| Tt::var(i, nvars)).collect();
    let lit_tt = |tables: &[Tt], lit: Lit| {
        let constant;
        let t = match scratch.slot(lit.node()) {
            Some(slot) => &tables[slot],
            None => {
                constant = Tt::zero(nvars); // the implicit constant leaf
                &constant
            }
        };
        if lit.is_complement() {
            t.not()
        } else {
            t.clone()
        }
    };
    for &id in scratch.interior() {
        let [f0, f1] = aig.and_fanins(id);
        let table = lit_tt(&tables, f0).and(&lit_tt(&tables, f1));
        tables.push(table);
    }
    Some(lit_tt(&tables, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_cone() {
        let mut aig = Aig::new("maj");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let ca = aig.and(c, a);
        let o1 = aig.or(ab, bc);
        let maj = aig.or(o1, ca);
        aig.add_output("m", maj);
        let tt = cone_tt(
            &aig,
            maj,
            &[a.node(), b.node(), c.node()],
            &mut ConeScratch::new(),
        )
        .expect("cut");
        let want = Tt::from_fn(3, |p| (p as u32).count_ones() >= 2);
        assert_eq!(tt, want);
    }

    #[test]
    fn complemented_root() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let tt = cone_tt(&aig, !x, &[a.node(), b.node()], &mut ConeScratch::new()).expect("cut");
        assert_eq!(tt, Tt::var(0, 2).and(&Tt::var(1, 2)).not());
    }

    #[test]
    fn intermediate_leaf() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.and(x, c);
        // Cut {x, c}: y = var0 & var1.
        let tt = cone_tt(&aig, y, &[x.node(), c.node()], &mut ConeScratch::new()).expect("cut");
        assert_eq!(tt, Tt::var(0, 2).and(&Tt::var(1, 2)));
    }

    #[test]
    fn invalid_cut_returns_none() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        assert!(cone_tt(&aig, x, &[a.node()], &mut ConeScratch::new()).is_none());
    }

    #[test]
    fn constant_fanin_is_implicit() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", a);
        // Root literal is the constant itself.
        let tt = cone_tt(
            &aig,
            alsrac_aig::Lit::TRUE,
            &[a.node()],
            &mut ConeScratch::new(),
        )
        .expect("cut");
        assert!(tt.is_const1());
    }

    #[test]
    fn one_scratch_serves_many_cones() {
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 4);
        let p = aig.xor(xs[0], xs[1]);
        let q = aig.and(p, xs[2]);
        let r = aig.or(q, xs[3]);
        let leaves: Vec<NodeId> = xs.iter().map(|x| x.node()).collect();
        let mut shared = ConeScratch::new();
        for _ in 0..2 {
            for root in [p, !q, r, Lit::FALSE] {
                let fresh = cone_tt(&aig, root, &leaves, &mut ConeScratch::new());
                assert_eq!(cone_tt(&aig, root, &leaves, &mut shared), fresh);
            }
            assert!(cone_tt(&aig, r, &leaves[1..], &mut shared).is_none());
        }
    }

    #[test]
    fn root_equal_to_leaf() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let tt = cone_tt(&aig, x, &[x.node()], &mut ConeScratch::new()).expect("trivial cut");
        assert_eq!(tt, Tt::var(0, 1));
    }
}
