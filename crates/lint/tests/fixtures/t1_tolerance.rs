//! T1 fixture: raw comparisons on ledger quantities trip the rule; named
//! guards, justifications, sign checks, integral identifiers, and
//! turbofish stay silent.

fn raw_money(residual: f64, demand: f64) -> bool {
    residual >= demand
}

fn magic_literal(x: f64, y: f64) -> bool {
    x + 1e-9 >= y
}

fn guarded(residual: f64, demand: f64) -> bool {
    residual + RELEASE_EPS >= demand
}

fn justified(residual: f64, demand: f64) -> bool {
    // lint:allow(T1): exact equality is intended in this fixture
    residual == demand
}

fn sign_check(bandwidth: f64) -> bool {
    bandwidth > 0.0
}

fn integral(capacity_hint: usize, len: usize) -> bool {
    capacity_hint > len
}

fn cache_key(bandwidth_bits: u64, other_bits: u64) -> bool {
    bandwidth_bits == other_bits
}

fn turbofish(residuals: &[f64]) -> f64 {
    residuals.iter().copied().sum::<f64>()
}

fn generic_ty(residual_log: Vec<f64>) -> usize {
    residual_log.len()
}
