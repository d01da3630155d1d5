//! Fig. 8: scalability with the dimensionality d and the dataset size n
//! on Indep and AntiCor (k = 1, r = 50).
//!
//! Panels (a)–(b): d ∈ [4, 10], n = 100 K.
//! Panels (c)–(d): n ∈ [100 K, 1 M], d = 6.
//!
//! ```sh
//! cargo run --release -p rms-bench --bin fig8 \
//!     [-- --axis d|n --scale 0.02 --algos FD-RMS,Sphere,HS --save]
//! ```

use rms_bench::{run_cells, Algo, Args, Cell};
use rms_data::NamedDataset;
use rms_eval::format_table;

fn main() {
    let args = Args::from_process(&["--algos", "--axis", "--save"]);
    let scale = args.scale;
    let axis = args.axis.as_str();
    // Default algorithm set: the ones the paper shows surviving the sweep
    // plus the DMM/GeoGreedy variants at low d (they drop out beyond 7).
    let algos = args.algos_or(&[Algo::FdRms, Algo::Sphere, Algo::Hs, Algo::EpsKernel]);
    println!("Fig. 8 — scalability ({}; axis={axis})", scale.banner());

    let mut cells = Vec::new();
    if axis == "d" || axis == "both" {
        for ds in [NamedDataset::Indep, NamedDataset::AntiCor] {
            for d in 4..=10usize {
                for &algo in &algos {
                    if d > 7 && matches!(algo, Algo::DmmRrms | Algo::DmmGreedy | Algo::GeoGreedy) {
                        continue;
                    }
                    cells.push(Cell {
                        experiment: "fig8ab".into(),
                        spec: ds.spec().with_d(d).scaled(scale.frac),
                        algo,
                        k: 1,
                        r: 50,
                        eps: 0.02,
                        param: "d".into(),
                        value: d as f64,
                    });
                }
            }
        }
    }
    if axis == "n" || axis == "both" {
        for ds in [NamedDataset::Indep, NamedDataset::AntiCor] {
            for steps in [1usize, 2, 4, 6, 8, 10] {
                let n = ((steps * 100_000) as f64 * scale.frac).ceil() as usize;
                for &algo in &algos {
                    cells.push(Cell {
                        experiment: "fig8cd".into(),
                        spec: ds.spec().with_n(n.max(10)),
                        algo,
                        k: 1,
                        r: 50,
                        eps: 0.02,
                        param: "n".into(),
                        value: steps as f64,
                    });
                }
            }
        }
    }
    let records = run_cells(&cells, scale);
    println!("{}", format_table(&records));
    args.maybe_save(&format!("fig8_{axis}"), &records);
    println!(
        "Expected shape (paper): update time and mrr grow sharply with d for \
         everyone; FD-RMS gains ~100x over Sphere at d ≥ 8. With n, static \
         algorithms stay flat or drop slightly while FD-RMS grows mildly on \
         Indep and stays steady on AntiCor — FD-RMS stays fastest throughout."
    );
}
