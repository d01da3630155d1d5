//! Dataset generation and dynamic workloads for k-RMS experiments.
//!
//! The paper evaluates on four real datasets (BB, AQ, CT, Movie) and two
//! synthetic families (Indep, AntiCor, generated as in Börzsönyi et al.,
//! "The Skyline Operator", ICDE 2001). The real datasets are not
//! redistributable offline, so this crate ships *stand-ins*: synthetic
//! generators with the same cardinality and dimensionality, tuned to
//! produce skylines in the same size regime as Table I: the skyline is
//! what the static baselines re-run on, so its size is what the stand-ins
//! must match (the `table1` binary prints both).
//!
//! It also implements the paper's dynamic workload (Section IV-A):
//! start from a random 50% of the tuples, insert the remaining 50% one by
//! one, then delete a random 50% one by one, recording the k-RMS result at
//! every 10% of the operation sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod generators;
pub mod workload;

pub use catalog::{dataset_by_name, DatasetSpec, NamedDataset};
pub use generators::{anticorrelated, correlated, independent};
pub use workload::{
    mixed_workload, paper_workload, MixedConfig, Operation, Workload, WorkloadConfig,
};
