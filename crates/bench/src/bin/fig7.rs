//! Fig. 7: update time and maximum regret ratios with varying k
//! (r = 10 on BB and Indep, r = 50 elsewhere).
//!
//! Only FD-RMS, GREEDY*, ε-KERNEL and HS support k > 1.
//!
//! ```sh
//! cargo run --release -p rms-bench --bin fig7 [-- --scale 0.02 --save]
//! ```

use rms_bench::{run_cells, Algo, Args, Cell};
use rms_data::NamedDataset;
use rms_eval::format_table;

fn main() {
    let args = Args::from_process(&["--algos", "--save"]);
    let scale = args.scale;
    let algos = args.algos_or(&Algo::K_CAPABLE);
    println!("Fig. 7 — varying k ({})", scale.banner());

    let mut cells = Vec::new();
    for ds in NamedDataset::ALL {
        let r = if matches!(ds, NamedDataset::Bb | NamedDataset::Indep) {
            10
        } else {
            50
        };
        for k in 1..=5usize {
            for &algo in &algos {
                cells.push(Cell {
                    experiment: "fig7".into(),
                    spec: ds.spec().scaled(scale.frac),
                    algo,
                    k,
                    r,
                    eps: 0.02,
                    param: "k".into(),
                    value: k as f64,
                });
            }
        }
    }
    let records = run_cells(&cells, scale);
    println!("{}", format_table(&records));
    args.maybe_save("fig7", &records);
    println!(
        "Expected shape (paper): all algorithms slow down as k grows; the \
         regret ratios drop with k by definition; FD-RMS is up to four \
         orders of magnitude faster with equal or better quality."
    );
}
