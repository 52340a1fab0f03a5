//! # cfed — software-based transparent and comprehensive control-flow error detection
//!
//! Umbrella crate for the reproduction of Borin, Wang, Wu & Araujo,
//! *"Software-Based Transparent and Comprehensive Control-Flow Error
//! Detection"* (CGO 2006). Re-exports every subsystem:
//!
//! * [`isa`] — the VISA virtual instruction set (x86-flavoured: condition
//!   flags, `rel32` branches, a flag-free `lea` family);
//! * [`asm`] — two-pass assembler and object images;
//! * [`lang`] — MiniC, the small language the guest workloads are written in;
//! * [`sim`] — the guest machine (paged memory with R/W/X permissions, CPU
//!   interpreter, traps, cycle accounting);
//! * [`dbt`] — the dynamic binary translator (translate-on-demand, code
//!   cache, block chaining, SMC handling, instrumentation API);
//! * [`core`] — the paper's contribution: branch-error classification,
//!   the ECF/EdgCF/RCF techniques, checking policies, and the §4 formal
//!   framework with executable single-error enumeration;
//! * [`fault`] — the §2 single-bit error model and fault-injection
//!   campaigns;
//! * [`workloads`] — 26 SPEC2000-analog guest programs;
//! * [`runner`] — sharded parallel campaign engine with a checkpointed
//!   JSONL result store (the `cfed-campaign` binary);
//! * [`fuzz`] — coverage-guided differential conformance engine: generated
//!   programs diffed across every backend × technique combination, plus
//!   the detection-guarantee sweep (the `cfed-fuzz` binary);
//! * [`telemetry`] — counters, histograms and structured event sinks.
//!
//! ## Quickstart
//!
//! ```
//! use cfed::core::{run_dbt, RunConfig, TechniqueKind};
//! use cfed::lang::compile;
//!
//! let image = compile("fn main() { out(2 + 2); }")?;
//! let outcome = run_dbt(&image, &RunConfig::technique(TechniqueKind::EdgCf));
//! assert_eq!(outcome.output, vec![4]);
//! # Ok::<(), cfed::lang::CompileError>(())
//! ```

pub use cfed_asm as asm;
pub use cfed_core as core;
pub use cfed_dbt as dbt;
pub use cfed_fault as fault;
pub use cfed_fuzz as fuzz;
pub use cfed_isa as isa;
pub use cfed_lang as lang;
pub use cfed_runner as runner;
pub use cfed_sim as sim;
pub use cfed_telemetry as telemetry;
pub use cfed_workloads as workloads;
