//! Runs the complete evaluation suite (Figs. 5-9 + ablations):
//! `cargo run -p sim --release --bin all [quick|default|paper]`.

use sim::{experiments, write_csv, ExperimentScale};

fn main() {
    let scale = ExperimentScale::from_args();

    let (cost5, time5) = experiments::fig5::run(scale);
    println!("{}\n{}", cost5.render(), time5.render());
    write_csv(&cost5, "fig5_cost").expect("csv");
    write_csv(&time5, "fig5_time").expect("csv");

    let (cost6, time6) = experiments::fig6::run(scale);
    println!("{}\n{}", cost6.render(), time6.render());
    write_csv(&cost6, "fig6_cost").expect("csv");
    write_csv(&time6, "fig6_time").expect("csv");

    let t7 = experiments::fig7::run(scale);
    println!("{}", t7.render());
    write_csv(&t7, "fig7").expect("csv");

    let t8 = experiments::fig8::run(scale);
    println!("{}", t8.render());
    write_csv(&t8, "fig8").expect("csv");

    let t9 = experiments::fig9::run(scale);
    println!("{}", t9.render());
    write_csv(&t9, "fig9").expect("csv");

    let names = [
        "ablation_cost_model",
        "ablation_threshold",
        "ablation_k",
        "ablation_steiner",
        "ablation_competitive",
        "ablation_local_search",
    ];
    for (table, name) in experiments::ablation::run(scale).iter().zip(names) {
        println!("{}", table.render());
        write_csv(table, name).unwrap_or_else(|e| panic!("write results/{name}.csv: {e}"));
    }
}
