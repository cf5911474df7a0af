//! Regenerates Fig. 5: `cargo run -p sim --release --bin fig5 [quick|default|paper]`.
//!
//! Runs with telemetry enabled and leaves the accumulated counter
//! snapshot in `results/telemetry-fig5.json` (not committed) next to the
//! CSV artifacts; `results/telemetry.json` belongs to `arena`.

use sim::{experiments::fig5, write_csv, ExperimentScale};

fn main() {
    let scale = ExperimentScale::from_args();
    telemetry::enable();
    let (cost, time) = fig5::run(scale);
    println!("{}", cost.render());
    println!("{}", time.render());
    write_csv(&cost, "fig5_cost").expect("write results/fig5_cost.csv");
    write_csv(&time, "fig5_time").expect("write results/fig5_time.csv");
    let snapshot = telemetry::snapshot();
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/telemetry-fig5.json", snapshot.to_json())
        .expect("write results/telemetry-fig5.json");
    println!("wrote results/telemetry-fig5.json");
}
