//! Gravity-model traffic matrix synthesis (Roughan, CCR '05, as cited in
//! §9.1): the demand between nodes `i` and `j` is proportional to the
//! product of per-node masses, here drawn from an exponential distribution
//! — the standard way to synthesize realistic WAN traffic matrices from
//! nothing but a node count.

use p4update_des::SimRng;
use p4update_net::NodeId;

/// A synthesized traffic matrix: [`Self::demand`] is the rate from node
/// `i` to node `j` (zero on the diagonal), in link-capacity units.
///
/// Only the per-node shares and the normalization are stored, so a matrix
/// over `n` nodes takes O(n) memory; each entry is recomputed on demand
/// with the same floating-point operations a dense build would perform.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    /// `out_mass[i] / Σ out_mass` per node.
    out_share: Vec<f64>,
    /// `in_mass[j] / Σ in_mass` per node.
    in_share: Vec<f64>,
    /// Normalization that makes the entries sum to the requested total.
    scale: f64,
}

impl TrafficMatrix {
    /// Synthesize a gravity-model matrix for `n` nodes, scaled so the total
    /// demand equals `total`.
    pub fn gravity(rng: &mut SimRng, n: usize, total: f64) -> Self {
        assert!(n >= 2, "a traffic matrix needs at least two nodes");
        assert!(total > 0.0, "total demand must be positive");
        // Per-node in/out masses: exponential, as in Roughan's synthesis.
        let out_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let in_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let out_sum: f64 = out_mass.iter().sum();
        let in_sum: f64 = in_mass.iter().sum();
        let out_share: Vec<f64> = out_mass.iter().map(|m| m / out_sum).collect();
        let in_share: Vec<f64> = in_mass.iter().map(|m| m / in_sum).collect();
        // Row-major sum of the unnormalized off-diagonal entries; the
        // order fixes the bits of `scale`.
        let mut sum = 0.0;
        for (i, o) in out_share.iter().enumerate() {
            for (j, d) in in_share.iter().enumerate() {
                if i != j {
                    sum += o * d;
                }
            }
        }
        TrafficMatrix {
            out_share,
            in_share,
            // Normalize to the requested total.
            scale: total / sum,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.out_share.len()
    }

    /// True for a zero-node matrix (never produced by [`Self::gravity`]).
    pub fn is_empty(&self) -> bool {
        self.out_share.is_empty()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        let d = if i == j {
            0.0
        } else {
            self.out_share[i] * self.in_share[j]
        };
        d * self.scale
    }

    /// Demand from `src` to `dst`.
    pub fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        self.entry(src.index(), dst.index())
    }

    /// Total demand across all pairs, summed row-major.
    pub fn total(&self) -> f64 {
        let n = self.len();
        (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| self.entry(i, j))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_normalized() {
        let mut rng = SimRng::new(1);
        let tm = TrafficMatrix::gravity(&mut rng, 10, 500.0);
        assert!((tm.total() - 500.0).abs() < 1e-6);
        assert_eq!(tm.len(), 10);
    }

    #[test]
    fn diagonal_is_zero_and_entries_nonnegative() {
        let mut rng = SimRng::new(2);
        let tm = TrafficMatrix::gravity(&mut rng, 8, 100.0);
        for i in 0..8 {
            assert_eq!(tm.demand(NodeId(i), NodeId(i)), 0.0);
            for j in 0..8 {
                assert!(tm.demand(NodeId(i), NodeId(j)) >= 0.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TrafficMatrix::gravity(&mut SimRng::new(7), 6, 10.0);
        let b = TrafficMatrix::gravity(&mut SimRng::new(7), 6, 10.0);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    a.demand(NodeId(i), NodeId(j)),
                    b.demand(NodeId(i), NodeId(j))
                );
            }
        }
    }

    #[test]
    fn demands_are_heterogeneous() {
        let mut rng = SimRng::new(3);
        let tm = TrafficMatrix::gravity(&mut rng, 12, 100.0);
        let mut values: Vec<f64> = (0..12)
            .flat_map(|i| (0..12).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| tm.demand(NodeId(i), NodeId(j)))
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Gravity with exponential masses is skewed: the top pair should
        // carry much more than the median pair.
        let median = values[values.len() / 2];
        let max = *values.last().unwrap();
        assert!(max > 3.0 * median, "max {max} vs median {median}");
    }

    /// The dense matrix the O(n) representation replaced, built with the
    /// same RNG draws and operations.
    fn dense_reference(rng: &mut SimRng, n: usize, total: f64) -> Vec<Vec<f64>> {
        let out_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let in_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let out_sum: f64 = out_mass.iter().sum();
        let in_sum: f64 = in_mass.iter().sum();
        let mut demand = vec![vec![0.0; n]; n];
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = (out_mass[i] / out_sum) * (in_mass[j] / in_sum);
                    demand[i][j] = d;
                    sum += d;
                }
            }
        }
        let scale = total / sum;
        for row in &mut demand {
            for d in row.iter_mut() {
                *d *= scale;
            }
        }
        demand
    }

    #[test]
    fn entries_and_total_are_bit_equal_to_a_dense_build() {
        for (seed, n) in [(21, 2), (22, 12), (23, 257)] {
            let total = 37.5 * n as f64;
            let tm = TrafficMatrix::gravity(&mut SimRng::new(seed), n, total);
            let dense = dense_reference(&mut SimRng::new(seed), n, total);
            for (i, row) in dense.iter().enumerate() {
                for (j, want) in row.iter().enumerate() {
                    let got = tm.demand(NodeId(i as u32), NodeId(j as u32));
                    assert_eq!(got.to_bits(), want.to_bits(), "n = {n}: ({i}, {j})");
                }
            }
            let want: f64 = dense.iter().flatten().sum();
            assert_eq!(tm.total().to_bits(), want.to_bits(), "n = {n}: total");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_node_panics() {
        TrafficMatrix::gravity(&mut SimRng::new(0), 1, 1.0);
    }
}
