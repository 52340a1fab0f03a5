//! # cfed-dbt — dynamic binary translator
//!
//! A user-level dynamic binary translator over the `cfed-sim` guest machine,
//! reproducing the DBT the paper implements its techniques in (§5):
//! translation on demand (only executed blocks are translated), a code cache
//! in executable pages (so category-F errors are still caught by execute
//! protection), direct block chaining, an indirect-branch dispatcher, and
//! self-modifying-code handling via write protection.
//!
//! Control-flow checking techniques plug in through the [`Instrumenter`]
//! trait, contributing `GEN_SIG`/`CHECK_SIG` code at block heads and before
//! every control transfer; [`NullInstrumenter`] is the uninstrumented
//! baseline used to measure raw DBT overhead.
//!
//! ## Example
//!
//! ```
//! use cfed_dbt::{Dbt, DbtExit, NullInstrumenter, UpdateStyle};
//! use cfed_sim::Machine;
//! use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
//!
//! // A loop: r0 = 5; while (--r0 != 0) {}; halt
//! let code = encode_all(&[
//!     Inst::MovRI { dst: Reg::R0, imm: 5 },
//!     Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
//!     Inst::Jcc { cc: Cond::Ne, offset: -16 },
//!     Inst::Halt,
//! ]);
//! let mut m = Machine::load(&code, &[], 0);
//! let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
//! assert_eq!(dbt.run(&mut m, 10_000), DbtExit::Halted { code: 0 });
//! assert!(dbt.stats().blocks >= 2);
//! ```

pub mod cache;
pub mod codebuf;
pub mod engine;
pub mod instrument;
pub mod ir;
pub mod native;
pub mod spec;
pub mod trace;
pub mod x86;

pub use cache::CacheAsm;
pub use engine::{Dbt, DbtExit, DbtStats, DbtStep, TransBlock, DEFAULT_DISPATCH_CYCLES};
pub use instrument::{regs, BlockView, CheckPolicy, Instrumenter, NullInstrumenter, UpdateStyle};
pub use ir::{SideBranch, TraceOp, TracePlan, TraceSig, TraceVerifier};
pub use native::NativeDbt;
pub use spec::EngineSpec;
pub use trace::{TierConfig, DEFAULT_COMPILE_THRESHOLD};
