//! Fig. 6: update time and maximum regret ratios with varying result size
//! r (k = 1), all nine algorithms on all six datasets.
//!
//! Paper grid: r ∈ {10, 40, 70, 100} (BB: {5, 10, 15, 20, 25}). Cells with
//! r < d are skipped for every algorithm: Definition 1 requires r ≥ d, so
//! Movie (d = 12) starts at r = 40.
//!
//! ```sh
//! cargo run --release -p rms-bench --bin fig6 \
//!     [-- --scale 0.02 --ops 300 --algos FD-RMS,Sphere,HS --save]
//! ```
//!
//! The slow baselines (Greedy, GeoGreedy at high d; DMM at d > 7) dominate
//! the runtime; restrict with `--algos` for quick runs.

use rms_bench::{run_cells, Algo, Args, Cell};
use rms_data::NamedDataset;
use rms_eval::format_table;

fn main() {
    let args = Args::from_process(&["--algos", "--save"]);
    let scale = args.scale;
    let algos = args.algos_or(&Algo::ALL);
    println!(
        "Fig. 6 — varying the result size r, k = 1 ({})",
        scale.banner()
    );
    println!(
        "algorithms: {}",
        algos
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut cells = Vec::new();
    for ds in NamedDataset::ALL {
        let r_grid: &[usize] = if ds == NamedDataset::Bb {
            &[5, 10, 15, 20, 25]
        } else {
            &[10, 40, 70, 100]
        };
        let d = ds.spec().d;
        for &r in r_grid.iter().filter(|&&r| r >= d) {
            for &algo in &algos {
                // The paper's DMM variants exhaust memory at d > 7 and
                // GeoGreedy cannot scale past d = 7 — skip those cells,
                // as the original figures leave them blank.
                if d > 7 && matches!(algo, Algo::DmmRrms | Algo::DmmGreedy | Algo::GeoGreedy) {
                    continue;
                }
                cells.push(Cell {
                    experiment: "fig6".into(),
                    spec: ds.spec().scaled(scale.frac),
                    algo,
                    k: 1,
                    r,
                    eps: 0.02,
                    param: "r".into(),
                    value: r as f64,
                });
            }
        }
    }
    let records = run_cells(&cells, scale);
    println!("{}", format_table(&records));
    args.maybe_save("fig6", &records);
    println!(
        "Expected shape (paper): FD-RMS fastest overall (up to 3 orders of \
         magnitude vs Sphere on large-skyline datasets like CT/AntiCor), \
         Greedy slowest; FD-RMS mrr within ~0.01 of the best static algorithm."
    );
}
