//! # cfed-fuzz — coverage-guided differential conformance engine
//!
//! Generates structured guest programs ([`gen`]), runs each one on every
//! execution backend × control-flow-checking technique combination and
//! diffs the results ([`oracle`]), keeps programs that light up new
//! behaviour ([`coverage`]), minimizes any divergence to a locally-minimal
//! reproducer ([`shrink`]) archived in `corpus/regressions/` ([`corpus`]),
//! and — in detection-guarantee mode ([`detect`]) — checks that every
//! single-bit branch-site fault under EdgCF/RCF is Detected-or-Benign.
//! With `--attacks` it additionally mounts a deterministic adversarial
//! attack schedule ([`attack`]) on every case and requires the fused,
//! native and tiered engines to agree bit-for-bit under each attack.
//!
//! Everything is a pure function of the campaign seed: the same seed with
//! any `--threads` value produces byte-identical reports, which is what
//! makes a corpus entry a permanent, replayable artifact.
//!
//! See DESIGN.md § "Conformance & fuzzing" for the architecture.

pub mod attack;
pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod detect;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use attack::{attack_sweep, finding_reproduces, AttackFinding, AttackOutcome, ATTACK_TRIALS};
pub use campaign::{run_fuzz, FuzzConfig, FuzzReport, Mode};
pub use corpus::{
    list_regressions, load_regression, write_regression, RegressionFile, RegressionMode,
};
pub use coverage::{fingerprint, profile_classes, CoverageMap, Fingerprint};
pub use detect::{detection_sweep, violation_reproduces, DetectOutcome, SdcViolation};
pub use gen::{generate, minic_source, schedule_seed, visa_image, GeneratedProgram, Tier};
pub use oracle::{
    backend_ids, exits_compatible, pair_diverges, run_oracle, BackendId, Divergence, OracleReport,
};
pub use shrink::{rebuild_image, shrink_image};
