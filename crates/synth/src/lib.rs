//! Traditional (exact) logic synthesis for AIGs.
//!
//! After ALSRAC applies a local approximate change, the circuit contains
//! redundancy that a conventional optimizer removes; the paper runs ABC's
//! `sweep; resyn2` at every iteration (Algorithm 3, line 9). This crate
//! reimplements the used subset from scratch:
//!
//! * **sweep** — constant propagation, structural-hash deduplication, and
//!   dangling-node removal (this is [`Aig::cleaned`], re-exported here as
//!   [`sweep`] for discoverability);
//! * **[`balance`]** — AND-tree height reduction by rebuilding conjunction
//!   chains as balanced trees (ABC `balance`);
//! * **[`rewrite`]** — 4-feasible-cut resynthesis: each cut function is
//!   re-derived as a minimized factored form and substituted when it saves
//!   nodes (ABC `rewrite`);
//! * **[`refactor`]** — large-cone resynthesis seeded at maximum
//!   fanout-free cones (ABC `refactor`);
//! * **[`resyn2_lite`]** — the round-robin script of the above mirroring
//!   ABC's `resyn2`, plus [`optimize`], the `sweep; resyn2` combination the
//!   ALSRAC flow calls.
//!
//! Every pass is *exact*: the optimized graph is functionally equivalent to
//! its input (property-tested in this crate against exhaustive
//! simulation). Each pass opens an `alsrac_rt::trace` span named after it,
//! so under the flow they show as `flow/optimize/<pass>`.
//!
//! # Example
//!
//! ```
//! use alsrac_circuits::arith;
//! use alsrac_synth::optimize;
//!
//! let aig = arith::carry_lookahead_adder(8);
//! let before = aig.num_ands();
//! let optimized = optimize(&aig);
//! assert!(optimized.num_ands() <= before);
//! // Function preserved:
//! assert_eq!(optimized.evaluate(&vec![true; 16]), aig.evaluate(&vec![true; 16]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod refactor;
mod rewrite;
mod scripts;

pub use balance::balance;
pub use refactor::{refactor, RefactorConfig};
pub use rewrite::{rewrite, RewriteConfig};
pub use scripts::{optimize, resyn2_lite, sweep};
