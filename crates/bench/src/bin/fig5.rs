//! Fig. 5: effect of the parameter ε on FD-RMS (update time and maximum
//! regret ratio), k = 1, r = 50 (r = 20 on BB).
//!
//! The paper sweeps ε ∈ {1, 32, 64, 128, 256, 512, 1024} × 10⁻⁴ (the
//! exact grid varies per dataset); we sweep the shared superset.
//!
//! ```sh
//! cargo run --release -p rms-bench --bin fig5 [-- --scale 0.02 --save]
//! ```

use rms_bench::{run_cells, Algo, Args, Cell};
use rms_data::NamedDataset;
use rms_eval::format_table;

fn main() {
    let args = Args::from_process(&["--save"]);
    let scale = args.scale;
    println!(
        "Fig. 5 — performance of FD-RMS with varying eps ({})",
        scale.banner()
    );

    let eps_grid: Vec<f64> = [1.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
        .iter()
        .map(|x| x * 1e-4)
        .collect();

    let mut cells = Vec::new();
    for ds in NamedDataset::ALL {
        let r = if ds == NamedDataset::Bb { 20 } else { 50 };
        for &eps in &eps_grid {
            cells.push(Cell {
                experiment: "fig5".into(),
                spec: ds.spec().scaled(scale.frac),
                algo: Algo::FdRms,
                k: 1,
                r,
                eps,
                param: "eps".into(),
                value: eps,
            });
        }
    }
    let records = run_cells(&cells, scale);
    println!("{}", format_table(&records));
    args.maybe_save("fig5", &records);
    println!(
        "Expected shape (paper): update time grows with eps; mrr first improves \
         with eps (larger m, smaller delta) then degrades once eps exceeds the \
         optimal regret ratio."
    );
}
