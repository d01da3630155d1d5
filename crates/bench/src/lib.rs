//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each `src/bin/*.rs` binary reproduces one exhibit of the paper's
//! Section IV: `table1` is Table I and `fig4` … `fig8` are Figs. 4–8.
//! This library holds the common plumbing: the command line, the
//! dynamic-workload experiment runner for FD-RMS and every static
//! baseline, and parallel execution of independent cells.
//!
//! ## Scaling
//!
//! The paper's full experiments run on databases up to 1 M tuples with a
//! 500 K-vector regret test set — hours of compute for the slow baselines.
//! Every binary therefore runs at a *reduced default scale* and prints the
//! scale it used; pass `--full` for paper scale or `--scale <f>` /
//! `--ops <n>` / `--eval <n>` / `--max-m <n>` to tune. Trends and
//! orderings (who wins, where the crossovers sit) are preserved; absolute
//! numbers shrink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rms_baselines::{
    DmmGreedy, DmmRrms, DynamicAdapter, EpsKernel, GeoGreedy, Greedy, GreedyStar, HittingSet,
    Sphere, StaticRms,
};
use rms_data::{paper_workload, DatasetSpec, Operation, WorkloadConfig};
use rms_eval::{ExperimentRecord, RegretEstimator, UpdateTimer};
use rms_geom::Point;
use rms_serve::sync::recover_poisoned;

/// Harness-wide scale knobs parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Dataset cardinality fraction (1.0 = paper scale).
    pub frac: f64,
    /// Number of regret-evaluation vectors (paper: 500 000).
    pub eval_vectors: usize,
    /// Upper bound M on FD-RMS utility vectors.
    pub max_m: usize,
    /// Cap on the number of workload operations measured per cell.
    pub ops: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            frac: 0.02,
            eval_vectors: 20_000,
            max_m: 1 << 12,
            ops: 400,
        }
    }
}

impl Scale {
    /// The paper's scale (`--full`): whole datasets, 500 000 evaluation
    /// vectors, M up to 2^20, and every workload operation.
    pub const FULL: Scale = Scale {
        frac: 1.0,
        eval_vectors: 500_000,
        max_m: 1 << 20,
        ops: usize::MAX,
    };

    /// Human-readable banner describing the scale.
    pub fn banner(&self) -> String {
        format!(
            "scale: frac={}, eval_vectors={}, max_m={}, ops_cap={}",
            self.frac,
            self.eval_vectors,
            self.max_m,
            if self.ops == usize::MAX {
                "none".to_string()
            } else {
                self.ops.to_string()
            }
        )
    }
}

/// The algorithms of Section IV-A, as harness-selectable variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's contribution.
    FdRms,
    /// GREEDY \[22\].
    Greedy,
    /// GEOGREEDY \[23\].
    GeoGreedy,
    /// GREEDY* \[11\].
    GreedyStar,
    /// DMM-RRMS \[4\].
    DmmRrms,
    /// DMM-GREEDY \[4\].
    DmmGreedy,
    /// ε-KERNEL \[3\], \[10\].
    EpsKernel,
    /// HS \[3\].
    Hs,
    /// SPHERE \[32\].
    Sphere,
}

impl Algo {
    /// Every algorithm, FD-RMS first (the order of the paper's legends).
    pub const ALL: [Algo; 9] = [
        Algo::FdRms,
        Algo::Greedy,
        Algo::GeoGreedy,
        Algo::GreedyStar,
        Algo::DmmRrms,
        Algo::DmmGreedy,
        Algo::EpsKernel,
        Algo::Hs,
        Algo::Sphere,
    ];

    /// The algorithms compared in Fig. 7 (the only ones defined for k>1).
    pub const K_CAPABLE: [Algo; 4] = [Algo::FdRms, Algo::GreedyStar, Algo::EpsKernel, Algo::Hs];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::FdRms => "FD-RMS",
            Algo::Greedy => "Greedy",
            Algo::GeoGreedy => "GeoGreedy",
            Algo::GreedyStar => "Greedy*",
            Algo::DmmRrms => "DMM-RRMS",
            Algo::DmmGreedy => "DMM-Greedy",
            Algo::EpsKernel => "eps-Kernel",
            Algo::Hs => "HS",
            Algo::Sphere => "Sphere",
        }
    }

    /// Boxes the corresponding static baseline (panics on
    /// [`Algo::FdRms`], which is not a static algorithm).
    pub fn static_algo(self) -> Box<dyn StaticRms + Send> {
        match self {
            Algo::FdRms => panic!("FD-RMS is not a static baseline"),
            Algo::Greedy => Box::new(Greedy),
            Algo::GeoGreedy => Box::new(GeoGreedy),
            Algo::GreedyStar => Box::new(GreedyStar::default()),
            Algo::DmmRrms => Box::new(DmmRrms::default()),
            Algo::DmmGreedy => Box::new(DmmGreedy::default()),
            Algo::EpsKernel => Box::new(EpsKernel::default()),
            Algo::Hs => Box::new(HittingSet::default()),
            Algo::Sphere => Box::new(Sphere::default()),
        }
    }

    /// Looks an algorithm up by its display name, ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<Algo> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

/// The command line of the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--full`, `--scale F`, `--eval N`, `--ops N`, `--max-m N`.
    pub scale: Scale,
    /// `--algos A,B,…`; `None` keeps the figure's default list.
    pub algos: Option<Vec<Algo>>,
    /// `--axis d|n|both`: which of Fig. 8's sweeps to run (default both).
    pub axis: String,
    /// `--save`: also write the records to `results/<name>.tsv`.
    pub save: bool,
}

impl Args {
    /// Parses `args`, the process arguments after the program name.
    /// Every binary accepts the scale flags; `extra` names which of
    /// `--algos`, `--axis` and `--save` this one reads as well.
    ///
    /// # Errors
    ///
    /// Any other token, a flag without its value, a value that does not
    /// parse, a `--scale` outside (0, 1], an unknown algorithm name, or
    /// an axis other than `d`, `n` or `both`.
    pub fn parse(args: &[String], extra: &[&str]) -> Result<Self, String> {
        let mut out = Args {
            scale: Scale::default(),
            algos: None,
            axis: "both".into(),
            save: false,
        };
        let mut tokens = args.iter();
        while let Some(flag) = tokens.next() {
            let flag = flag.as_str();
            let mut value = || {
                tokens
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag {flag} is missing its value"))
            };
            let count = |v: &String| {
                v.parse::<usize>()
                    .map_err(|_| format!("invalid {flag} value `{v}`"))
            };
            match flag {
                "--full" => out.scale = Scale::FULL,
                "--scale" => {
                    let v = value()?;
                    out.scale.frac = v
                        .parse()
                        .ok()
                        .filter(|f| *f > 0.0 && *f <= 1.0)
                        .ok_or_else(|| format!("invalid --scale value `{v}` (want 0 < F <= 1)"))?;
                }
                "--eval" => out.scale.eval_vectors = count(value()?)?,
                "--ops" => out.scale.ops = count(value()?)?,
                "--max-m" => out.scale.max_m = count(value()?)?,
                "--algos" if extra.contains(&flag) => {
                    let algos = value()?
                        .split(',')
                        .map(|name| {
                            Algo::from_name(name)
                                .ok_or_else(|| format!("unknown algorithm `{name}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    out.algos = Some(algos);
                }
                "--axis" if extra.contains(&flag) => {
                    let v = value()?;
                    if !matches!(v.as_str(), "d" | "n" | "both") {
                        return Err(format!("invalid --axis value `{v}` (want d, n or both)"));
                    }
                    out.axis.clone_from(v);
                }
                "--save" if extra.contains(&flag) => out.save = true,
                _ => {
                    let accepted: Vec<&str> = ["--full", "--scale", "--eval", "--ops", "--max-m"]
                        .into_iter()
                        .chain(extra.iter().copied())
                        .collect();
                    return Err(format!(
                        "unknown argument `{flag}` (accepted: {})",
                        accepted.join(" ")
                    ));
                }
            }
        }
        Ok(out)
    }

    /// [`Args::parse`] over the process arguments. On an error it prints
    /// `error: …` and exits with status 1, as the `krms` CLI does.
    pub fn from_process(extra: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, extra).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(1);
        })
    }

    /// The `--algos` list, or `default` when the flag is absent.
    pub fn algos_or(&self, default: &[Algo]) -> Vec<Algo> {
        self.algos.clone().unwrap_or_else(|| default.to_vec())
    }

    /// Writes `records` to `results/<name>.tsv` when `--save` was passed.
    pub fn maybe_save(&self, name: &str, records: &[ExperimentRecord]) {
        if !self.save {
            return;
        }
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("results dir");
        let mut out = String::from(ExperimentRecord::HEADER);
        out.push('\n');
        for r in records {
            out.push_str(&r.to_row());
            out.push('\n');
        }
        let path = dir.join(format!("{name}.tsv"));
        std::fs::write(&path, out).expect("write results");
        eprintln!("saved {}", path.display());
    }
}

/// Parameters of one experiment cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Experiment id (e.g. `"fig6"`).
    pub experiment: String,
    /// Dataset recipe (already scaled).
    pub spec: DatasetSpec,
    /// Algorithm under test.
    pub algo: Algo,
    /// Rank depth.
    pub k: usize,
    /// Result size budget.
    pub r: usize,
    /// FD-RMS ε (ignored by baselines).
    pub eps: f64,
    /// Name of the varied parameter, for the record.
    pub param: String,
    /// Value of the varied parameter, for the record.
    pub value: f64,
}

/// Runs the paper's dynamic workload for one cell and reports the average
/// update time and the mean of the checkpointed regret ratios.
pub fn run_cell(cell: &Cell, scale: Scale) -> ExperimentRecord {
    use rand::{rngs::StdRng, SeedableRng};
    let points = cell.spec.generate();
    let d = cell.spec.d;
    let mut rng = StdRng::seed_from_u64(cell.spec.seed ^ 0xABCD);
    let mut workload = paper_workload(&mut rng, points, WorkloadConfig::default());
    if workload.operations.len() > scale.ops {
        workload.operations.truncate(scale.ops);
        let total = workload.operations.len().max(1);
        workload.checkpoints = (1..=10).map(|i| (total * i / 10).max(1) - 1).collect();
    }
    let est = RegretEstimator::new(d, scale.eval_vectors.max(d), 0x7E57);

    let (timer, mrrs) = match cell.algo {
        Algo::FdRms => run_fdrms(cell, scale, &workload, &est),
        _ => run_static(cell, &workload, &est),
    };

    ExperimentRecord {
        experiment: cell.experiment.clone(),
        dataset: cell.spec.dataset.name().to_string(),
        algorithm: cell.algo.name().to_string(),
        param: cell.param.clone(),
        value: cell.value,
        update_ms: timer.avg_ms(),
        mrr: if mrrs.is_empty() {
            f64::NAN
        } else {
            mrrs.iter().sum::<f64>() / mrrs.len() as f64
        },
    }
}

fn run_fdrms(
    cell: &Cell,
    scale: Scale,
    workload: &rms_data::Workload,
    est: &RegretEstimator,
) -> (UpdateTimer, Vec<f64>) {
    let mut fd = fdrms::FdRms::builder(cell.spec.d)
        .k(cell.k)
        .r(cell.r)
        .epsilon(cell.eps)
        .max_utilities(scale.max_m)
        .seed(cell.spec.seed)
        .build(workload.initial.clone())
        .expect("valid cell configuration");
    let mut live: Vec<Point> = workload.initial.clone();
    let mut timer = UpdateTimer::new();
    let mut mrrs = Vec::new();
    let mut next_cp = 0usize;
    for (i, op) in workload.operations.iter().enumerate() {
        match op {
            Operation::Insert(p) => {
                live.push(p.clone());
                timer.record(|| fd.insert(p.clone()).expect("workload ids are fresh"));
            }
            Operation::Delete(id) => {
                live.retain(|q| q.id() != *id);
                timer.record(|| fd.delete(*id).expect("workload deletes live ids"));
            }
            Operation::Update(p) => {
                if let Some(slot) = live.iter_mut().find(|q| q.id() == p.id()) {
                    *slot = p.clone();
                }
                timer.record(|| fd.update(p.clone()).expect("workload updates live ids"));
            }
        }
        if next_cp < workload.checkpoints.len() && workload.checkpoints[next_cp] == i {
            mrrs.push(est.mrr(&live, &fd.result(), cell.k));
            next_cp += 1;
        }
    }
    (timer, mrrs)
}

fn run_static(
    cell: &Cell,
    workload: &rms_data::Workload,
    est: &RegretEstimator,
) -> (UpdateTimer, Vec<f64>) {
    let algo = cell.algo.static_algo();
    let mut ad = DynamicAdapter::new(BoxedStatic(algo), cell.k, cell.r, workload.initial.clone())
        .expect("workload initial state is valid");
    let mut live: Vec<Point> = workload.initial.clone();
    let mut timer = UpdateTimer::new();
    let mut mrrs = Vec::new();
    let mut next_cp = 0usize;
    for (i, op) in workload.operations.iter().enumerate() {
        // Skyline maintenance is untimed (Section IV-A: "we only took the
        // time for k-RMS computation into account").
        let needs = match op {
            Operation::Insert(p) => {
                live.push(p.clone());
                ad.insert_lazy(p.clone()).expect("fresh ids")
            }
            Operation::Delete(id) => {
                live.retain(|q| q.id() != *id);
                ad.delete_lazy(*id).expect("live ids")
            }
            Operation::Update(p) => {
                if let Some(slot) = live.iter_mut().find(|q| q.id() == p.id()) {
                    *slot = p.clone();
                }
                let del = ad.delete_lazy(p.id()).expect("live ids");
                ad.insert_lazy(p.clone()).expect("id just freed") || del
            }
        };
        if needs {
            timer.record(|| ad.recompute());
        } else {
            timer.add(std::time::Duration::ZERO);
        }
        if next_cp < workload.checkpoints.len() && workload.checkpoints[next_cp] == i {
            mrrs.push(est.mrr(&live, ad.result(), cell.k));
            next_cp += 1;
        }
    }
    (timer, mrrs)
}

/// Adapter shim: `DynamicAdapter` is generic over `StaticRms`, the harness
/// holds trait objects.
struct BoxedStatic(Box<dyn StaticRms + Send>);

impl StaticRms for BoxedStatic {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn supports_k(&self, k: usize) -> bool {
        self.0.supports_k(k)
    }
    fn compute(&self, skyline: &[Point], full: &[Point], k: usize, r: usize) -> Vec<Point> {
        self.0.compute(skyline, full, k, r)
    }
}

/// Runs independent cells in parallel (one worker per CPU, std scoped
/// threads) and returns records in the input order.
pub fn run_cells(cells: &[Cell], scale: Scale) -> Vec<ExperimentRecord> {
    let n = cells.len();
    let results: Vec<std::sync::Mutex<Option<ExperimentRecord>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let rec = run_cell(&cells[i], scale);
                eprintln!(
                    "  done: {} / {} / {}={}",
                    rec.dataset, rec.algorithm, rec.param, rec.value
                );
                *recover_poisoned(results[i].lock()) = Some(rec);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("cell mutex poisoned")
                .expect("all cells ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_data::NamedDataset;

    #[test]
    fn default_scale_is_reduced() {
        let s = Scale::default();
        assert!(s.frac < 1.0);
        assert!(s.eval_vectors < 500_000);
    }

    #[test]
    fn algo_filter_and_names() {
        assert_eq!(Algo::ALL.len(), 9);
        let names: std::collections::HashSet<_> = Algo::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 9);
        for a in Algo::ALL {
            assert_eq!(Algo::from_name(a.name()), Some(a));
            assert_eq!(Algo::from_name(&a.name().to_lowercase()), Some(a));
        }
        for a in Algo::K_CAPABLE {
            assert!(a == Algo::FdRms || a.static_algo().supports_k(3));
        }
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_a_valid_line() {
        let args = Args::parse(
            &argv("--scale 0.002 --eval 300 --ops 20 --max-m 128 --algos FD-RMS,sphere --axis d --save"),
            &["--algos", "--axis", "--save"],
        )
        .unwrap();
        assert_eq!(
            args.scale,
            Scale {
                frac: 0.002,
                eval_vectors: 300,
                max_m: 128,
                ops: 20,
            }
        );
        assert_eq!(args.algos, Some(vec![Algo::FdRms, Algo::Sphere]));
        assert_eq!(args.axis, "d");
        assert!(args.save);

        let none = Args::parse(&[], &[]).unwrap();
        assert_eq!(none.scale, Scale::default());
        assert_eq!(
            (none.algos, none.axis.as_str(), none.save),
            (None, "both", false)
        );
        let full = Args::parse(&argv("--full"), &[]).unwrap();
        assert_eq!(full.scale, Scale::FULL);
    }

    #[test]
    fn args_reject_a_missing_value() {
        for line in [
            "--scale",
            "--eval",
            "--ops",
            "--max-m",
            "--scale --eval 300",
        ] {
            let err = Args::parse(&argv(line), &[]).unwrap_err();
            assert!(err.contains("is missing its value"), "{line}: {err}");
        }
        let err = Args::parse(&argv("--algos"), &["--algos"]).unwrap_err();
        assert!(err.contains("--algos is missing its value"), "{err}");
        for line in ["--ops ten", "--scale 0", "--scale 2", "--eval -1"] {
            let err = Args::parse(&argv(line), &[]).unwrap_err();
            assert!(err.contains("invalid --"), "{line}: {err}");
        }
    }

    #[test]
    fn args_reject_an_unknown_flag() {
        let err = Args::parse(&argv("--scal 0.001"), &[]).unwrap_err();
        assert!(err.contains("unknown argument `--scal`"), "{err}");
        let err = Args::parse(&argv("0.001"), &[]).unwrap_err();
        assert!(err.contains("unknown argument `0.001`"), "{err}");
        // A flag that only other binaries read is unknown here.
        let err = Args::parse(&argv("--save"), &["--algos"]).unwrap_err();
        assert!(err.contains("unknown argument `--save`"), "{err}");
        assert!(
            err.contains("--max-m --algos"),
            "lists what is accepted: {err}"
        );
    }

    #[test]
    fn args_reject_an_unknown_algorithm() {
        let err = Args::parse(&argv("--algos FD-RMS,Bogus"), &["--algos"]).unwrap_err();
        assert!(err.contains("unknown algorithm `Bogus`"), "{err}");
        let err = Args::parse(&argv("--algos FD-RMS,"), &["--algos"]).unwrap_err();
        assert!(err.contains("unknown algorithm ``"), "{err}");
        let err = Args::parse(&argv("--axis x"), &["--axis"]).unwrap_err();
        assert!(err.contains("invalid --axis value `x`"), "{err}");
    }

    #[test]
    fn run_cell_fdrms_smoke() {
        let cell = Cell {
            experiment: "smoke".into(),
            spec: NamedDataset::Indep.spec().with_n(400).with_d(3),
            algo: Algo::FdRms,
            k: 1,
            r: 5,
            eps: 0.05,
            param: "r".into(),
            value: 5.0,
        };
        let scale = Scale {
            frac: 1.0,
            eval_vectors: 1_000,
            max_m: 256,
            ops: 60,
        };
        let rec = run_cell(&cell, scale);
        assert_eq!(rec.algorithm, "FD-RMS");
        assert!(rec.update_ms >= 0.0);
        assert!((0.0..=1.0).contains(&rec.mrr));
    }

    #[test]
    fn run_cell_static_smoke() {
        let cell = Cell {
            experiment: "smoke".into(),
            spec: NamedDataset::Indep.spec().with_n(300).with_d(3),
            algo: Algo::Sphere,
            k: 1,
            r: 5,
            eps: 0.05,
            param: "r".into(),
            value: 5.0,
        };
        let scale = Scale {
            frac: 1.0,
            eval_vectors: 1_000,
            max_m: 256,
            ops: 40,
        };
        let rec = run_cell(&cell, scale);
        assert_eq!(rec.algorithm, "Sphere");
        assert!((0.0..=1.0).contains(&rec.mrr));
    }

    #[test]
    fn run_cells_parallel_smoke() {
        let mk = |algo| Cell {
            experiment: "smoke".into(),
            spec: NamedDataset::Indep.spec().with_n(200).with_d(2),
            algo,
            k: 1,
            r: 4,
            eps: 0.05,
            param: "r".into(),
            value: 4.0,
        };
        let scale = Scale {
            frac: 1.0,
            eval_vectors: 500,
            max_m: 128,
            ops: 20,
        };
        let recs = run_cells(&[mk(Algo::FdRms), mk(Algo::Greedy)], scale);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].algorithm, "FD-RMS");
        assert_eq!(recs[1].algorithm, "Greedy");
    }
}
