//! Workload inputs, each a pure function of the `--seed` argument.
//!
//! The program under test receives only what these functions return: the
//! dataset, the request node sequence and the arrival schedule.

use sgnn_data::Dataset;
use sgnn_graph::{CsrGraph, NodeId};

/// SplitMix64: the benchmark's own generator, so an input stream depends
/// on nothing but its seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one named stream of one run seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream ids, one per independent input of a run: request nodes and
/// arrivals of the fixed-rate phase.
pub const STREAM_NODES: u64 = 1;
/// Request nodes of the cache warm-up.
pub const STREAM_WARM: u64 = 3;
/// Request nodes and gaps of the `max_qps` probes.
pub const STREAM_PROBE: u64 = 4;

/// The quickstart graph: a 20k-node, 5-class stochastic block model with
/// average degree 10, homophily 0.85, 32 noisy features, and a
/// 50/25/25 train/val/test split.
pub fn dataset(seed: u64) -> Dataset {
    sgnn_data::sbm_dataset(20_000, 5, 10.0, 0.85, 32, 1.0, 0, 0.5, 0.25, seed)
}

/// Which nodes requests ask for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Zipf with exponent `s` over nodes ranked by degree (rank 0 = the
    /// highest-degree node, ties by id).
    Zipf(f64),
    /// Every node equally likely.
    Uniform,
}

/// `len` request nodes drawn from `pop` over `g`.
pub fn request_nodes(g: &CsrGraph, pop: Popularity, len: usize, rng: &mut SplitMix) -> Vec<NodeId> {
    let n = g.num_nodes();
    match pop {
        Popularity::Uniform => (0..len).map(|_| (rng.next_u64() % n as u64) as NodeId).collect(),
        Popularity::Zipf(s) => {
            let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
            by_degree.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0f64;
            for r in 0..n {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                cdf.push(acc);
            }
            (0..len)
                .map(|_| {
                    let target = rng.next_f64() * acc;
                    by_degree[cdf.partition_point(|&c| c < target).min(n - 1)]
                })
                .collect()
        }
    }
}

/// Poisson arrivals at unit rate: cumulative due times in units of the
/// mean gap. Scale by `1/rate` to get seconds.
pub fn unit_arrivals(len: usize, rng: &mut SplitMix) -> Vec<f64> {
    let mut t = 0f64;
    (0..len)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(ds: &Dataset) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        (
            ds.features.data().iter().map(|v| v.to_bits()).collect(),
            ds.labels.clone(),
            (0..ds.num_nodes() as NodeId).flat_map(|u| ds.graph.neighbors(u).to_vec()).collect(),
        )
    }

    #[test]
    fn dataset_is_a_pure_function_of_the_seed() {
        assert_eq!(bits(&dataset(7)), bits(&dataset(7)));
        assert_ne!(bits(&dataset(7)), bits(&dataset(8)));
    }

    #[test]
    fn request_streams_are_pure_functions_of_the_seed() {
        let g = dataset(3).graph;
        for pop in [Popularity::Zipf(0.9), Popularity::Uniform] {
            let a = request_nodes(&g, pop, 500, &mut SplitMix::new(3, STREAM_NODES));
            let b = request_nodes(&g, pop, 500, &mut SplitMix::new(3, STREAM_NODES));
            let c = request_nodes(&g, pop, 500, &mut SplitMix::new(4, STREAM_NODES));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
        let a = unit_arrivals(100, &mut SplitMix::new(3, STREAM_NODES));
        let b = unit_arrivals(100, &mut SplitMix::new(3, STREAM_NODES));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zipf_prefers_high_degree_nodes() {
        let g = dataset(5).graph;
        let reqs = request_nodes(&g, Popularity::Zipf(0.9), 4_000, &mut SplitMix::new(5, 1));
        let mean_deg =
            |v: &[NodeId]| v.iter().map(|&u| g.degree(u) as f64).sum::<f64>() / v.len() as f64;
        let uni = request_nodes(&g, Popularity::Uniform, 4_000, &mut SplitMix::new(5, 1));
        assert!(mean_deg(&reqs) > mean_deg(&uni));
    }
}
