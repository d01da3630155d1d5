//! Table I: statistics of datasets (n, d, #skylines).
//!
//! ```sh
//! cargo run --release -p rms-bench --bin table1 [-- --scale 0.05 | --full]
//! ```
//!
//! Paper reference values (full scale): BB 200, AQ 21 065, CT 77 217,
//! Movie 3 293 skyline tuples. At reduced scale the *fractions* are
//! comparable; the binary prints both.

use rms_bench::Args;
use rms_data::NamedDataset;
use rms_skyline::skyline;

fn main() {
    let scale = Args::from_process(&[]).scale;
    println!("Table I — statistics of datasets ({})", scale.banner());
    println!(
        "{:<8} {:>9} {:>4} {:>10} {:>10}  paper (full scale)",
        "dataset", "n", "d", "#skylines", "fraction"
    );
    let paper = [
        ("BB", "200"),
        ("AQ", "21065"),
        ("CT", "77217"),
        ("Movie", "3293"),
        ("Indep", "see Fig. 4"),
        ("AntiCor", "see Fig. 4"),
    ];
    for (ds, (_, paper_sky)) in NamedDataset::ALL.into_iter().zip(paper) {
        let spec = ds.spec().scaled(scale.frac);
        let points = spec.generate();
        let sky = skyline(&points);
        println!(
            "{:<8} {:>9} {:>4} {:>10} {:>9.2}%  {}",
            ds.name(),
            spec.n,
            spec.d,
            sky.len(),
            100.0 * sky.len() as f64 / spec.n as f64,
            paper_sky
        );
    }
}
