//! Approximate care sets at divisor signals (§III-A, §III-B2).
//!
//! Simulating the circuit on `N` sampled input patterns and recording the
//! patterns that appear at a chosen divisor set yields the *approximate
//! cares of the node at the divisors*. Expressing cares at divisors rather
//! than at the primary inputs is the paper's scalability argument: a few
//! divisor patterns stand for many PI patterns.
//!
//! The same observation powers the feasibility check: a divisor set can
//! express the node (Theorem 1, restricted to the sampled patterns) exactly
//! when no observed divisor pattern demands both output values.

use alsrac_aig::Lit;
use alsrac_sim::{PatternBuffer, Simulation};
use alsrac_truthtable::{Tt, MAX_VARS};

/// The approximate care set of one node at one divisor set: the observed
/// divisor patterns and the node value each demands.
///
/// Construction fails (returns `None`) when the divisors are *infeasible*:
/// some observed pattern appeared with both node values, so no function of
/// the divisors can reproduce the node on the sampled patterns.
#[derive(Clone, Debug)]
pub struct ApproximateCareSet {
    num_divisors: usize,
    /// On-set: care patterns whose node value is 1.
    on: Tt,
    /// All observed care patterns.
    care: Tt,
}

/// Row-state words for [`MAX_VARS`] divisors, per half (seen rows, on
/// rows).
const WIDE_ROW_WORDS: usize = 1 << (MAX_VARS - 6);

impl ApproximateCareSet {
    /// Harvests the care patterns of the signal `node` at the divisor
    /// signals `divisors` from a simulation, checking feasibility on the
    /// fly. Divisors and the target are *literals*: a complemented edge is
    /// a distinct signal, exactly as in the paper's examples.
    ///
    /// Only the first `patterns.num_patterns()` lanes are read. Returns
    /// `None` if the divisor set is infeasible (Example 2 of the paper) —
    /// the common, cheap rejection path of Algorithm 2, line 8.
    ///
    /// Works a 64-pattern word at a time: the word's valid lanes are split
    /// by one divisor after another, and each non-empty leaf of that split
    /// is one observed divisor row. The target must be constant on the
    /// leaf's lanes and agree with the value the same row demanded in
    /// earlier words. A word costs at most `min(2^k, 64·k)` word
    /// operations, and a rejection allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `divisors` is empty or longer than [`MAX_VARS`].
    pub fn harvest(
        sim: &Simulation,
        patterns: &PatternBuffer,
        node: Lit,
        divisors: &[Lit],
    ) -> Option<ApproximateCareSet> {
        assert!(!divisors.is_empty(), "at least one divisor required");
        assert!(divisors.len() <= MAX_VARS, "at most {MAX_VARS} divisors");
        if divisors.len() <= 6 {
            // The rows of up to six divisors fit one word per half.
            harvest_rows(sim, patterns, node, divisors, &mut [0u64; 2])
        } else {
            harvest_wide(sim, patterns, node, divisors)
        }
    }

    /// Number of divisor variables.
    pub fn num_divisors(&self) -> usize {
        self.num_divisors
    }

    /// The on-set over the divisor variables (care patterns demanding 1).
    pub fn on_set(&self) -> &Tt {
        &self.on
    }

    /// All observed care patterns.
    pub fn care_set(&self) -> &Tt {
        &self.care
    }

    /// The don't-care set: divisor patterns never observed.
    pub fn dont_care_set(&self) -> Tt {
        self.care.not()
    }

    /// Number of distinct care patterns observed.
    pub fn num_care_patterns(&self) -> u32 {
        self.care.count_ones()
    }
}

/// [`ApproximateCareSet::harvest`] for more than six divisors: the same
/// walk over a stack buffer large enough for [`MAX_VARS`] divisors, kept
/// out of line so the common narrow case does not reserve it.
#[cold]
#[inline(never)]
fn harvest_wide(
    sim: &Simulation,
    patterns: &PatternBuffer,
    node: Lit,
    divisors: &[Lit],
) -> Option<ApproximateCareSet> {
    let words = 1 << (divisors.len() - 6);
    let mut rows = [0u64; 2 * WIDE_ROW_WORDS];
    harvest_rows(sim, patterns, node, divisors, &mut rows[..2 * words])
}

/// The word-parallel harvest. `rows` is zeroed row state: its first half
/// marks the divisor rows seen so far, its second half the rows whose
/// demanded value is 1 (row `r` is bit `r % 64` of word `r / 64`).
fn harvest_rows(
    sim: &Simulation,
    patterns: &PatternBuffer,
    node: Lit,
    divisors: &[Lit],
    rows: &mut [u64],
) -> Option<ApproximateCareSet> {
    let k = divisors.len();
    let (seen, on) = rows.split_at_mut(rows.len() / 2);
    let mut divisor_words = [0u64; MAX_VARS];
    // Depth-first split: each entry is (lanes, divisors split so far, row
    // bits so far). A pop pushes at most two children, one per branch, so
    // at most one pending sibling per level: k + 1 entries.
    let mut stack = [(0u64, 0usize, 0usize); MAX_VARS + 1];
    for w in 0..patterns.num_words() {
        let mask = patterns.word_mask(w);
        for (slot, &d) in divisor_words.iter_mut().zip(divisors) {
            *slot = sim.lit_word(d, w);
        }
        let target = sim.lit_word(node, w);
        stack[0] = (mask, 0, 0);
        let mut top = usize::from(mask != 0);
        while top > 0 {
            top -= 1;
            let (lanes, depth, row) = stack[top];
            if depth == k {
                let ones = target & lanes;
                let value = ones != 0;
                if value && ones != lanes {
                    return None; // the target takes both values on this row
                }
                let (word, bit) = (row / 64, 1u64 << (row % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    if value {
                        on[word] |= bit;
                    }
                } else if (on[word] & bit != 0) != value {
                    return None; // conflicts with an earlier word's demand
                }
                continue;
            }
            let d = divisor_words[depth];
            let (low, high) = (lanes & !d, lanes & d);
            if low != 0 {
                stack[top] = (low, depth + 1, row);
                top += 1;
            }
            if high != 0 {
                stack[top] = (high, depth + 1, row | 1 << depth);
                top += 1;
            }
        }
    }
    let table = |bits: &[u64]| Tt::from_fn(k, |p| bits[p / 64] >> (p % 64) & 1 != 0);
    Some(ApproximateCareSet {
        num_divisors: k,
        on: table(on),
        care: table(seen),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_aig::{Aig, NodeId};

    /// The straightforward per-pattern harvest: the reference the
    /// word-parallel [`ApproximateCareSet::harvest`] must equal.
    fn harvest_per_bit(
        sim: &Simulation,
        patterns: &PatternBuffer,
        node: Lit,
        divisors: &[Lit],
    ) -> Option<ApproximateCareSet> {
        let k = divisors.len();
        let mut on = Tt::zero(k);
        let mut care = Tt::zero(k);
        for p in 0..patterns.num_patterns() {
            let mut pattern = 0usize;
            for (i, &d) in divisors.iter().enumerate() {
                if sim.lit_bit(d, p) {
                    pattern |= 1 << i;
                }
            }
            let value = sim.lit_bit(node, p);
            if care.get(pattern) {
                if on.get(pattern) != value {
                    return None;
                }
            } else {
                care.set(pattern, true);
                if value {
                    on.set(pattern, true);
                }
            }
        }
        Some(ApproximateCareSet {
            num_divisors: k,
            on,
            care,
        })
    }

    #[test]
    fn word_parallel_harvest_equals_the_per_bit_reference() {
        use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
        use alsrac_rt::Rng;
        let mut outcomes = [0u32; 2];
        for seed in 1..4u64 {
            let aig = random_network(&RandomNetworkConfig {
                num_inputs: 10,
                num_outputs: 4,
                num_gates: 150,
                locality: 20,
                seed,
            });
            let nodes: Vec<NodeId> = aig.iter_nodes().collect();
            let mut rng = Rng::from_seed(seed);
            let pick = |rng: &mut Rng| {
                let node = nodes[rng.next_u64() as usize % nodes.len()];
                Lit::new(node, rng.next_u64() & 1 == 1)
            };
            for n in [1, 63, 64, 65, 100, 130] {
                let patterns = PatternBuffer::random(aig.num_inputs(), n, seed * 1000 + n as u64);
                let sim = Simulation::new(&aig, &patterns);
                for k in 1..=8 {
                    for _ in 0..40 {
                        let target = pick(&mut rng);
                        let divisors: Vec<Lit> = (0..k).map(|_| pick(&mut rng)).collect();
                        let want = harvest_per_bit(&sim, &patterns, target, &divisors);
                        let got = ApproximateCareSet::harvest(&sim, &patterns, target, &divisors);
                        let label = format!("seed {seed}, n {n}, {target:?} over {divisors:?}");
                        match (got, want) {
                            (None, None) => outcomes[0] += 1,
                            (Some(got), Some(want)) => {
                                outcomes[1] += 1;
                                assert_eq!(got.num_divisors(), want.num_divisors(), "{label}");
                                assert_eq!(got.on_set(), want.on_set(), "{label}");
                                assert_eq!(got.care_set(), want.care_set(), "{label}");
                            }
                            (got, want) => panic!(
                                "{label}: feasible {} vs reference {}",
                                got.is_some(),
                                want.is_some()
                            ),
                        }
                    }
                }
            }
        }
        assert!(outcomes[0] > 100 && outcomes[1] > 100, "{outcomes:?}");
    }

    /// The paper's Fig. 1a circuit. Returns (aig, nodes...) with the same
    /// signal names: inputs a,b,c,d; x = !a & !c; y = c & (a|b)... the
    /// paper defines structure loosely; we reproduce the *node value table*
    /// (Table I) exactly:
    ///   x = !a & !b & !c? — from Table I: x=1 for abcd in {0000,0001,0010,
    ///   0011}: x = !a & !b.
    ///   y = 1 for {0110,0111,1110,1111}: y = b & c.
    ///   u = 1 whenever... from the table: u = 0 at {0000,0100,1000,1100}
    ///   i.e. u = c | d.
    ///   z = 1 at {0100,0101,1000,1001,1010,1011,1100,1101}:
    ///   z = (a & !b) | (b & !c).
    ///   w = 1 at {0000,0001,0100,0101,1000,1001,1100,1101}: w = !c.
    ///   v = z ^ w (the paper says so).
    fn fig1() -> (Aig, Lit, Lit, Lit) {
        let mut aig = Aig::new("fig1");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let _x = aig.and(!a, !b);
        let _y = aig.and(b, c);
        let u = aig.or(c, d);
        let anb = aig.and(a, !b);
        let bnc = aig.and(b, !c);
        let z = aig.or(anb, bnc);
        let w = !c;
        let v = aig.xor(z, w);
        aig.add_output("v", v);
        (aig, u, z, v)
    }

    /// The 5 shaded PI patterns of Example 1: abcd in {0000, 0010, 0011,
    /// 0100, 1000} (a is the MSB in the paper's "abcd" notation).
    fn example1_patterns() -> PatternBuffer {
        let rows = vec![
            vec![false, false, false, false], // 0000
            vec![false, false, true, false],  // 0010
            vec![false, false, true, true],   // 0011
            vec![false, true, false, false],  // 0100
            vec![true, false, false, false],  // 1000
        ];
        PatternBuffer::from_rows(4, &rows)
    }

    #[test]
    fn paper_example_1_care_patterns() {
        let (aig, u, z, v) = fig1();
        let patterns = example1_patterns();
        let sim = Simulation::new(&aig, &patterns);
        let care = ApproximateCareSet::harvest(&sim, &patterns, v, &[u, z])
            .expect("feasible per Example 3");
        // Approximate cares at {u, z}: {00, 01, 10} (Example 1).
        assert_eq!(care.num_care_patterns(), 3);
        assert!(care.care_set().get(0b00));
        assert!(care.care_set().get(0b01));
        assert!(care.care_set().get(0b10));
        assert!(!care.care_set().get(0b11));
        // v's demanded values: 00 -> 1, 01 -> 0, 10 -> 0 (Example 3;
        // pattern bits are (u, z) with u = bit 0).
        assert!(care.on_set().get(0b00));
        assert!(!care.on_set().get(0b01));
        assert!(!care.on_set().get(0b10));
    }

    #[test]
    fn paper_example_2_infeasible_on_all_patterns() {
        // Under ALL 16 patterns, {u, z} cannot express v (Example 2).
        let (aig, u, z, v) = fig1();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        assert!(ApproximateCareSet::harvest(&sim, &patterns, v, &[u, z]).is_none());
    }

    #[test]
    fn fig1_node_table_matches_paper() {
        // Sanity: our reconstruction reproduces Table I for v.
        let (aig, _, _, v) = fig1();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        // v = 1 at abcd in {0000, 0001, 1010, 1011} (Table I).
        let v_is_one = [
            (0b0000usize, true),
            (0b0001, true),
            (0b0010, false),
            (0b0100, false),
            (0b1010, true),
            (0b1011, true),
            (0b1111, false),
        ];
        for (abcd, want) in v_is_one {
            // abcd in paper order: a = MSB. Input i of the buffer is bit i
            // of the exhaustive pattern index, and our inputs are (a,b,c,d)
            // in order, so pattern index p has a = bit 0.
            let p = ((abcd >> 3) & 1)
                | ((abcd >> 2) & 1) << 1
                | ((abcd >> 1) & 1) << 2
                | (abcd & 1) << 3;
            assert_eq!(sim.lit_bit(v, p), want, "abcd={abcd:04b}");
        }
    }

    #[test]
    fn feasible_when_divisors_include_support() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("y", x);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let care = ApproximateCareSet::harvest(&sim, &patterns, x, &[a, b])
            .expect("inputs always express the node");
        assert_eq!(care.num_care_patterns(), 4);
        assert!(care.dont_care_set().is_const0());
    }

    #[test]
    fn fewer_patterns_mean_more_dont_cares() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let x = aig.or(ab, c);
        aig.add_output("y", x);
        let few = PatternBuffer::random(3, 2, 42);
        let sim = Simulation::new(&aig, &few);
        let care = ApproximateCareSet::harvest(&sim, &few, x, &[a, b, c]).expect("feasible");
        assert!(care.num_care_patterns() <= 2);
        assert!(care.dont_care_set().count_ones() >= 6);
    }
}
