//! A 64-bit FNV-1a digest of a decision sequence, so two runs (timed and
//! traced, pipeline and sequential) can be compared in one number.

use nfv_multicast::PseudoMulticastTree;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    pub fn push_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds in one decision: the request id, then either a rejection
    /// marker or every structural field and the exact cost of the tree.
    pub fn push_decision(&mut self, request: u64, tree: Option<&PseudoMulticastTree>) {
        self.push_u64(request);
        let Some(t) = tree else {
            self.push_u64(0);
            return;
        };
        self.push_u64(1);
        self.push_u64(t.source.index() as u64);
        self.push_u64(t.servers.len() as u64);
        for s in &t.servers {
            self.push_u64(s.server.index() as u64);
            self.push_u64(s.ingress_edges.len() as u64);
            for e in &s.ingress_edges {
                self.push_u64(e.index() as u64);
            }
        }
        for list in [&t.distribution_edges, &t.extra_traversals] {
            self.push_u64(list.len() as u64);
            for e in list {
                self.push_u64(e.index() as u64);
            }
        }
        self.push_u64(t.bandwidth_cost.to_bits());
        self.push_u64(t.computing_cost.to_bits());
    }

    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{EdgeId, NodeId};
    use nfv_multicast::ServerUse;
    use sdn::RequestId;

    fn tree(cost: f64, edge: usize) -> PseudoMulticastTree {
        PseudoMulticastTree {
            request: RequestId(3),
            source: NodeId::new(0),
            servers: vec![ServerUse {
                server: NodeId::new(2),
                ingress_edges: vec![EdgeId::new(1)],
                ingress_cost: 1.0,
                computing_cost: 0.5,
            }],
            distribution_edges: vec![EdgeId::new(edge)],
            extra_traversals: Vec::new(),
            bandwidth_cost: cost,
            computing_cost: 0.5,
        }
    }

    fn digest(decisions: &[(u64, Option<PseudoMulticastTree>)]) -> u64 {
        let mut d = Digest::default();
        for (id, t) in decisions {
            d.push_decision(*id, t.as_ref());
        }
        d.value()
    }

    #[test]
    fn equal_sequences_digest_equal() {
        let a = [(3, Some(tree(2.0, 4))), (4, None)];
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn any_change_moves_the_digest() {
        let base = digest(&[(3, Some(tree(2.0, 4))), (4, None)]);
        // A flipped decision, a different edge, a cost one ulp away, and a
        // reordering all change it.
        assert_ne!(base, digest(&[(3, None), (4, None)]));
        assert_ne!(base, digest(&[(3, Some(tree(2.0, 5))), (4, None)]));
        let nudged = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(base, digest(&[(3, Some(tree(nudged, 4))), (4, None)]));
        assert_ne!(base, digest(&[(4, None), (3, Some(tree(2.0, 4)))]));
    }
}
