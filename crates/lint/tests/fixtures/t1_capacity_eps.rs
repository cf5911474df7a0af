//! T1 fixture: the capacity slack belongs to `sdn`. Naming it anywhere
//! else in a T1 crate is a finding, inside a guarded comparison, in a
//! `use`, or in a test module; asking the shared predicates is silent.

use sdn::CAPACITY_EPS;

fn hand_rolled(residual: f64, b: f64) -> bool {
    residual + sdn::CAPACITY_EPS >= b
}

fn slack() -> f64 {
    CAPACITY_EPS
}

fn shared(sdn: &Sdn, e: EdgeId, v: NodeId, b: f64, residual: f64) -> bool {
    sdn.link_fits(e, b) && sdn.server_fits(v, b) && fits(residual, b)
}

fn shared_guard_in_a_comparison(sdn: &Sdn, e: EdgeId, demand: f64) -> bool {
    sdn.link_fits(e, demand) == (demand > 1.0)
}

#[cfg(test)]
mod tests {
    fn boundary() -> f64 {
        100.0 + super::CAPACITY_EPS
    }
}
