//! `ideaflow` — umbrella crate re-exporting the whole workspace.
//!
//! A reproduction of A. B. Kahng, *"Reducing Time and Effort in IC
//! Implementation: A Roadmap of Challenges and Solutions"*, DAC 2018.
//!
//! The workspace implements the roadmap's mechanisms over a from-scratch
//! synthetic SP&R (synthesis / place / route) flow simulator:
//!
//! - [`bandit`]: multi-armed-bandit tool-run scheduling (paper Fig 7).
//! - [`mdp`]: MDP/HMM doomed-run prediction (Figs 9–10 and the §3.3 table).
//! - [`opt`]: Go-With-The-Winners and adaptive multistart (Fig 6).
//! - [`timing`]: dual-engine STA and ML analysis correlation (Fig 8).
//! - [`flow`]: the noisy SP&R flow and its option tree (Figs 3, 5).
//! - [`metrics`]: a METRICS 2.0 collection/mining system (Fig 11).
//! - [`trace`]: the run journal — binary-framed events (rendered as
//!   JSONL on demand), counters, histograms, timers with a no-op
//!   default (the §4 "collect everything" layer every subsystem emits
//!   into).
//! - [`exec`]: the std-only work-stealing executor behind every
//!   parallel orchestration loop — `IDEAFLOW_THREADS` sizes it, and
//!   results stay bit-identical at any thread count.
//! - [`costmodel`]: the ITRS design-cost model (Figs 1–2).
//! - [`core`]: the orchestration layer tying it all together (Fig 4,
//!   staged ML insertion, robot engineers, single-pass driver).
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use ideaflow::flow::options::SpnrOptions;
//! use ideaflow::flow::spnr::SpnrFlow;
//! use ideaflow::netlist::generate::{DesignClass, DesignSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A PULPino-like RISC-V core in the synthetic 14nm-like enablement.
//! let spec = DesignSpec::new(DesignClass::Cpu, 2_000)?;
//! let flow = SpnrFlow::new(spec, 0xDAC_2018);
//! let qor = flow.run(&SpnrOptions::with_target_ghz(0.55)?, 1);
//! assert!(qor.area_um2 > 0.0);
//! # Ok(())
//! # }
//! ```

pub use ideaflow_bandit as bandit;
pub use ideaflow_core as core;
pub use ideaflow_costmodel as costmodel;
pub use ideaflow_exec as exec;
pub use ideaflow_faults as faults;
pub use ideaflow_flow as flow;
pub use ideaflow_mdp as mdp;
pub use ideaflow_metrics as metrics;
pub use ideaflow_mlkit as mlkit;
pub use ideaflow_netlist as netlist;
pub use ideaflow_opt as opt;
pub use ideaflow_place as place;
pub use ideaflow_route as route;
pub use ideaflow_timing as timing;
pub use ideaflow_trace as trace;
