//! Forensics bundles: what executed around a trial that ended badly.
//!
//! When a campaign trial produces silent data corruption, a timeout, or a
//! misdetection (a trial classified as harmless that was not benign), the
//! runner re-runs the *same* deterministic trial with an execution tracer
//! attached and packages the evidence: the struck instruction address, the
//! flipped bit or the attack's target, the classification, and the
//! tracer's last-N instruction window and branch history ending at the
//! detection point.

use crate::attack::AttackProvenance;
use crate::inject::{run_trial_traced, FaultSpec, Golden, InjectionResult, Outcome, Trial};
use crate::snapshot::SnapshotSet;
use cfed_asm::Image;
use cfed_core::{CachePart, Category, RunConfig};
use cfed_telemetry::json::{obj, Json};

/// Default instruction-window length retained by forensics captures.
pub const DEFAULT_TRACE_WINDOW: usize = 64;

/// Evidence package for one interesting fault or attack trial.
#[derive(Debug, Clone)]
pub struct Forensics {
    /// The trial that was run.
    pub trial: Trial,
    /// The (re-produced) result.
    pub result: InjectionResult,
    /// Where an attack went — the seized control transfer's target and the
    /// translated-block part it landed on. `None` for faults.
    pub provenance: Option<AttackProvenance>,
    /// The tracer export: `{"retired":…,"window":[…],"branches":[…]}`,
    /// oldest first, ending at the detection point.
    pub trace: Json,
}

impl Forensics {
    /// Whether a trial's result warrants a forensics capture: SDC, a
    /// timeout, or a misdetection (classified [`Category::NoError`] — the
    /// corruption supposedly could not change control flow — yet the run
    /// was not benign). Faults and attacks share this criterion.
    pub fn wanted(result: &InjectionResult) -> bool {
        matches!(result.outcome, Outcome::Sdc | Outcome::Timeout)
            || (result.category == Category::NoError && result.outcome != Outcome::Benign)
    }

    /// Re-runs `trial` with a tracer of `window` instructions attached,
    /// fast-forwarding through `snapshots` when provided, and bundles the
    /// evidence. Trials are deterministic, so the result matches the plain
    /// trial's, and the bundle is bit-identical with or without snapshots
    /// (see [`crate::run_trial_traced`]). Returns `None` if the trial cannot
    /// be placed (which a previously-placed trial never hits) or if the
    /// fault-free prefix misbehaves (ditto — the golden run succeeded).
    pub fn capture(
        image: &Image,
        cfg: &RunConfig,
        trial: Trial,
        golden: &Golden,
        window: usize,
        snapshots: Option<&SnapshotSet>,
    ) -> Option<Forensics> {
        let (result, tracer, provenance) =
            run_trial_traced(image, cfg, trial, golden, window, snapshots).ok()??;
        Some(Forensics { trial, result, provenance, trace: tracer.export() })
    }

    /// Serializes the bundle for the JSONL event sink: `fault`,
    /// `nth_branch`, `flipped_bit`, `site` for faults; `attack`,
    /// `nth_branch`, `param`, `site`, `target`, `attribution` for attacks;
    /// then `category`, `outcome`, `latency_insts` and `trace` for both.
    pub fn to_json(&self) -> Json {
        let site = ("site", Json::UInt(self.result.site));
        let mut fields = match self.trial {
            Trial::Fault(spec) => {
                let (kind, nth, bit) = match spec {
                    FaultSpec::AddrBit { nth, bit } => ("addr_bit", nth, bit),
                    FaultSpec::FlagBit { nth, bit } => ("flag_bit", nth, bit),
                };
                vec![
                    ("fault", Json::Str(kind.to_string())),
                    ("nth_branch", Json::UInt(nth)),
                    ("flipped_bit", Json::UInt(bit as u64)),
                    site,
                ]
            }
            Trial::Attack(spec) => {
                let provenance = self.provenance.expect("attack trials carry provenance");
                let attribution = match provenance.attribution {
                    Some((guest_start, p)) => obj(vec![
                        ("guest_block", Json::UInt(guest_start)),
                        ("part", Json::Str(part_name(p).to_string())),
                    ]),
                    None => Json::Null,
                };
                vec![
                    ("attack", Json::Str(spec.kind.name().to_string())),
                    ("nth_branch", Json::UInt(spec.nth)),
                    ("param", Json::UInt(spec.param)),
                    site,
                    ("target", Json::UInt(provenance.target)),
                    ("attribution", attribution),
                ]
            }
        };
        fields.extend([
            ("category", Json::Str(self.result.category.to_string())),
            ("outcome", Json::Str(self.result.outcome.to_string())),
            ("latency_insts", Json::UInt(self.result.latency_insts)),
            ("trace", self.trace.clone()),
        ]);
        obj(fields)
    }
}

fn part_name(p: CachePart) -> &'static str {
    match p {
        CachePart::Head => "head",
        CachePart::Payload => "payload",
        CachePart::Tail => "tail",
    }
}
