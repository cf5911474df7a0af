//! Error type for the SDN model.

use netgraph::{EdgeId, GraphError, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced by SDN construction and resource accounting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SdnError {
    /// Underlying graph construction failed.
    Graph(GraphError),
    /// A capacity or cost parameter was non-positive, NaN, or infinite.
    InvalidParameter {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The node is not a server but a server operation was requested.
    NotAServer(NodeId),
    /// A link does not have enough residual bandwidth for an allocation.
    InsufficientBandwidth {
        /// The saturated link.
        link: EdgeId,
        /// Bandwidth requested (Mbps).
        requested: f64,
        /// Bandwidth available (Mbps).
        available: f64,
    },
    /// A server does not have enough residual computing capacity.
    InsufficientComputing {
        /// The saturated server.
        server: NodeId,
        /// Computing requested (MHz).
        requested: f64,
        /// Computing available (MHz).
        available: f64,
    },
    /// Releasing more than was allocated (accounting bug guard).
    OverRelease {
        /// Human-readable description of the resource.
        what: String,
    },
    /// A request referenced a node outside the network.
    UnknownNode(NodeId),
    /// A request is malformed and can never be admitted on any network
    /// (empty destination set, non-finite demand, …).
    InfeasibleRequest {
        /// Why the request is infeasible.
        reason: String,
    },
    /// An operation needed residual capacity that no surviving element can
    /// provide (distinct from a per-element shortfall: the pool itself is
    /// exhausted).
    CapacityExhausted {
        /// Human-readable description of the exhausted resource pool.
        what: String,
    },
    /// An operation targeted a link or server that is currently failed.
    DeadElement {
        /// Human-readable description of the dead element.
        what: String,
    },
    /// A residual disagrees with capacity minus the summed live loads
    /// ([`Sdn::check_ledger`](crate::Sdn::check_ledger)): something was
    /// allocated or released behind the bookkeeping's back.
    LedgerMismatch {
        /// Human-readable description of the link or server.
        what: String,
        /// Capacity minus the summed live loads.
        expected: f64,
        /// What the ledger holds.
        actual: f64,
    },
}

impl fmt::Display for SdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdnError::Graph(e) => write!(f, "graph error: {e}"),
            SdnError::InvalidParameter { what, value } => {
                write!(f, "invalid {what}: {value} (must be positive and finite)")
            }
            SdnError::NotAServer(n) => write!(f, "node {n} has no attached server"),
            SdnError::InsufficientBandwidth {
                link,
                requested,
                available,
            } => write!(
                f,
                "link {link} has {available} Mbps available, {requested} requested"
            ),
            SdnError::InsufficientComputing {
                server,
                requested,
                available,
            } => write!(
                f,
                "server {server} has {available} MHz available, {requested} requested"
            ),
            SdnError::OverRelease { what } => {
                write!(f, "released more than allocated on {what}")
            }
            SdnError::UnknownNode(n) => write!(f, "node {n} is not part of the network"),
            SdnError::InfeasibleRequest { reason } => {
                write!(f, "request is infeasible: {reason}")
            }
            SdnError::CapacityExhausted { what } => {
                write!(f, "capacity exhausted: {what}")
            }
            SdnError::DeadElement { what } => write!(f, "{what} is failed"),
            SdnError::LedgerMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "residual of {what} is {actual} but the live loads imply {expected}"
            ),
        }
    }
}

impl Error for SdnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SdnError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for SdnError {
    fn from(e: GraphError) -> Self {
        SdnError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SdnError::InsufficientBandwidth {
            link: EdgeId::new(3),
            requested: 100.0,
            available: 40.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("e3"));
        assert!(msg.contains("100"));
        assert!(msg.contains("40"));
    }

    #[test]
    fn graph_error_is_source() {
        let e = SdnError::from(GraphError::NegativeCycle);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SdnError>();
    }
}
