//! Fig. 4: skyline sizes of the synthetic datasets.
//!
//! Left panel: vary d ∈ [4, 10] at n = 100 K.
//! Right panel: vary n ∈ [100 K, 1 M] at d = 6.
//!
//! ```sh
//! cargo run --release -p rms-bench --bin fig4 [-- --scale 0.05 | --full]
//! ```

use rms_bench::Args;
use rms_data::NamedDataset;
use rms_skyline::skyline;

fn main() {
    let scale = Args::from_process(&[]).scale;
    println!(
        "Fig. 4 — sizes of skylines of synthetic datasets ({})",
        scale.banner()
    );

    println!(
        "\n(a) varying d (n = {} at this scale)",
        (100_000f64 * scale.frac) as usize
    );
    println!("{:<4} {:>12} {:>12}", "d", "Indep", "AntiCor");
    for d in 4..=10usize {
        let row: Vec<usize> = [NamedDataset::Indep, NamedDataset::AntiCor]
            .into_iter()
            .map(|ds| {
                let spec = ds.spec().with_d(d).scaled(scale.frac);
                skyline(&spec.generate()).len()
            })
            .collect();
        println!("{d:<4} {:>12} {:>12}", row[0], row[1]);
    }

    println!("\n(b) varying n (d = 6)");
    println!("{:<10} {:>12} {:>12}", "n(x10^5)", "Indep", "AntiCor");
    for steps in 1..=10usize {
        let n = (steps as f64 * 100_000.0 * scale.frac) as usize;
        let row: Vec<usize> = [NamedDataset::Indep, NamedDataset::AntiCor]
            .into_iter()
            .map(|ds| {
                let spec = ds.spec().with_n(n.max(1));
                skyline(&spec.generate()).len()
            })
            .collect();
        println!("{steps:<10} {:>12} {:>12}", row[0], row[1]);
    }
    println!("\nExpected shape (paper): both grow with d and n; AntiCor ≫ Indep throughout.");
}
