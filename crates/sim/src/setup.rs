//! Shared experiment setup: topologies, server placement, scale knobs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdn::Sdn;
use topology::{annotate, place_servers_random, place_servers_spread, AnnotationParams};

/// How much work each data point does. The paper averages 1 000 requests
/// per point on a 3.4 GHz i7; the defaults here are sized so the whole
/// suite finishes in minutes on a comparable machine, and
/// [`ExperimentScale::paper`] restores the full counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Requests averaged per offline data point (Figs. 5–7).
    pub offline_requests: usize,
    /// Requests in each online sequence (Figs. 8–9; the paper uses 300).
    pub online_requests: usize,
    /// Independent topology seeds averaged per point.
    pub repetitions: usize,
}

impl ExperimentScale {
    /// Quick scale: smoke-test in seconds.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentScale {
            offline_requests: 5,
            online_requests: 60,
            repetitions: 1,
        }
    }

    /// Default scale: minutes for the full suite.
    #[must_use]
    pub fn default_scale() -> Self {
        ExperimentScale {
            offline_requests: 30,
            online_requests: 300,
            repetitions: 3,
        }
    }

    /// The paper's scale (1 000 offline requests per point).
    #[must_use]
    pub fn paper() -> Self {
        ExperimentScale {
            offline_requests: 1_000,
            online_requests: 300,
            repetitions: 3,
        }
    }

    /// Parses a scale name (`quick`, `default`, `paper`) as passed on the
    /// command line of the `fig*` binaries.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "default" => Some(Self::default_scale()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }

    /// Reads the scale from the first CLI argument, defaulting to
    /// [`ExperimentScale::default_scale`]; exits with a usage message on an
    /// unknown name.
    #[must_use]
    pub fn from_args() -> Self {
        match std::env::args().nth(1) {
            None => Self::default_scale(),
            Some(name) => Self::from_name(&name).unwrap_or_else(|| {
                eprintln!("usage: <bin> [quick|default|paper]");
                std::process::exit(2);
            }),
        }
    }
}

/// Builds the paper's synthetic setting: a GT-ITM/Waxman topology of `n`
/// switches with 10 % of them carrying servers, annotated with the §VI-A
/// capacity ranges. Deterministic per `(n, seed)`.
#[must_use]
pub fn waxman_sdn(n: usize, seed: u64) -> Sdn {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (g, _) = topology::Waxman::new(n).generate(&mut rng);
    let servers = place_servers_random(&g, 0.1, &mut rng);
    annotate(&g, &servers, &AnnotationParams::default(), &mut rng)
        .expect("waxman annotation is well-formed")
}

/// Builds the GÉANT setting: the embedded 40-node topology with the nine
/// servers the paper takes from \[7\], placed by the deterministic spread
/// heuristic. Capacities re-sampled per `seed`.
#[must_use]
pub fn geant_sdn(seed: u64) -> Sdn {
    let topo = topology::geant();
    let servers = place_servers_spread(&topo.graph, 9);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6EA7);
    annotate(
        &topo.graph,
        &servers,
        &AnnotationParams::default(),
        &mut rng,
    )
    .expect("geant annotation is well-formed")
}

/// Builds the scaling setting: a `k`-ary fat-tree (data-center example of
/// §I) streamed straight from [`topology::fat_tree_edges`], with `servers`
/// spread-placed servers and the §VI-A capacity ranges. `fat_tree(64)`
/// yields 5 120 nodes, the size of the scale work-bound test; `fat_tree(80)`
/// crosses 10k. Deterministic per `(k, servers, seed)`.
#[must_use]
pub fn fat_tree_sdn(k: usize, servers: usize, seed: u64) -> Sdn {
    let (edges, _layout) = topology::fat_tree_edges(k);
    let g = edges.to_graph();
    let servers = place_servers_spread(&g, servers);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA7_7EEE ^ (k as u64).rotate_left(17));
    annotate(&g, &servers, &AnnotationParams::default(), &mut rng)
        .expect("fat-tree annotation is well-formed")
}

/// Builds the AS1755 ISP setting: 87 PoPs with nine spread servers (the
/// density \[19\] reports for mid-size ISPs). Capacities re-sampled per
/// `seed`.
#[must_use]
pub fn isp_sdn(seed: u64) -> Sdn {
    let topo = topology::as1755();
    let servers = place_servers_spread(&topo.graph, 9);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1755);
    annotate(
        &topo.graph,
        &servers,
        &AnnotationParams::default(),
        &mut rng,
    )
    .expect("as1755 annotation is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_sdn_has_ten_percent_servers() {
        let sdn = waxman_sdn(100, 1);
        assert_eq!(sdn.node_count(), 100);
        assert_eq!(sdn.servers().len(), 10);
    }

    #[test]
    fn waxman_sdn_is_deterministic() {
        let a = waxman_sdn(60, 7);
        let b = waxman_sdn(60, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn named_topologies_have_nine_servers() {
        assert_eq!(geant_sdn(0).servers().len(), 9);
        assert_eq!(isp_sdn(0).servers().len(), 9);
        assert_eq!(geant_sdn(0).node_count(), 40);
        assert_eq!(isp_sdn(0).node_count(), 87);
    }

    #[test]
    fn fat_tree_sdn_is_deterministic_and_sized() {
        let a = fat_tree_sdn(8, 6, 3);
        let b = fat_tree_sdn(8, 6, 3);
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 8 * 8 / 4 + 8 * 8);
        assert_eq!(a.servers().len(), 6);
    }

    #[test]
    fn scales_parse() {
        assert_eq!(
            ExperimentScale::from_name("quick"),
            Some(ExperimentScale::quick())
        );
        assert_eq!(
            ExperimentScale::from_name("paper"),
            Some(ExperimentScale::paper())
        );
        assert!(ExperimentScale::from_name("bogus").is_none());
        assert_eq!(ExperimentScale::paper().offline_requests, 1_000);
    }
}
