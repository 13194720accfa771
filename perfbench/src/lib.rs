//! The repository benchmark.
//!
//! `perfbench --workload <dispatch|bulk|solve|serve> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload through the public
//! APIs of the repository's crates, checks every output, prints every
//! metric by name and unit, and ends with one JSON result line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! records spans around its calls into each crate and reports the
//! per-layer metrics instead. `BENCHMARK.json` at the repository root
//! lists the workloads and metrics.
//!
//! The seed is the only input: every array value, right-hand side, job
//! mix and arrival schedule is generated from it. Seed 7919 is held out:
//! use it only to confirm a claim made on other seeds.
//!
//! Run it from the repository root:
//! `cargo run --release --offline -q --manifest-path perfbench/Cargo.toml --
//! --workload dispatch --seed 1 --seconds 20 --trace 0`. Traces land in
//! `perfbench/out/`.

mod host;
pub mod report;
mod stats;
mod trace;
pub mod workloads;
