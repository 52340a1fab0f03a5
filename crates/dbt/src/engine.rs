//! The dynamic binary translator engine.
//!
//! Mirrors the architecture of the paper's DBT (§5): translation happens on
//! demand, one basic block at a time, into a code cache mapped with execute
//! permission; translated blocks chain to each other directly once both
//! sides exist; indirect branches (`ret`, register jumps/calls) exit to a
//! dispatcher; guest pages are write-protected after translation so
//! self-modifying code raises a fault that invalidates stale translations.
//!
//! Control transfers out of not-yet-chained blocks are implemented as
//! software-trap *exit stubs*: the trap suspends simulated execution with
//! all state intact, the runtime translates the target and patches the stub
//! into a direct jump, and execution resumes at the patched site.

use crate::cache::{patch_inst, CacheAsm};
use crate::instrument::{regs, BlockView, Instrumenter, UpdateStyle};
use crate::ir::{SideBranch, TraceOp};
use crate::trace::{plan_trace, TierConfig, TraceCandidate};
use cfed_isa::{Inst, INST_SIZE_U64};
use cfed_sim::{trap_codes, ExitReason, Machine, Memory, Perms, Trap, PAGE_SIZE};
use cfed_telemetry::{Event, Histogram, Telemetry, Timer};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// Cycles charged per indirect-branch dispatch, modeling the inline hash
/// lookup a production DBT performs (our runtime does the lookup natively).
pub const DEFAULT_DISPATCH_CYCLES: u64 = 12;

/// Maximum guest instructions per translated block.
const MAX_BLOCK_INSTS: usize = 512;

/// Headroom the cache keeps free for the next translation: when the cursor
/// gets within this of the usable end, the whole cache is evicted first (a
/// single translation is bounded well below this by [`MAX_BLOCK_INSTS`]).
const EVICT_RESERVE: u64 = 64 * 1024;

/// Entries in the indirect-branch dispatcher's inline cache (direct-mapped
/// on the guest target address).
pub(crate) const DISPATCH_IC_SIZE: usize = 16;

/// Bytes carved from the start of the cache region for tier-up counters when
/// the engine is constructed tiered (mapped R/W, never executable; one
/// 8-byte countdown slot per translated block).
const TIER_COUNTER_BYTES: u64 = 4 * PAGE_SIZE;

/// Instructions in the tier-up countdown prologue emitted at the head of a
/// counter-carrying block (`mov`/`ld`/`lea`/`st`/`jrnz`/trap stub); the
/// disarm patch jumps over exactly this many.
const TIER_PROLOGUE_INSTS: u64 = 6;

/// Result of one supervised execution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbtStep {
    /// Execution continues (possibly after the runtime serviced an exit).
    Continue,
    /// The guest executed `halt`.
    Halted,
    /// A program-level trap surfaced (guest fault, hardware control-flow
    /// error detection, or an instrumentation error report).
    Exit(Trap),
}

/// Result of [`Dbt::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbtExit {
    /// Guest halted; exit code from `r0`.
    Halted { code: u64 },
    /// A program-level trap surfaced.
    Trapped(Trap),
    /// The instruction budget ran out.
    StepLimit,
}

impl From<ExitReason> for DbtExit {
    fn from(reason: ExitReason) -> DbtExit {
        match reason {
            ExitReason::Halted { code } => DbtExit::Halted { code },
            ExitReason::Trapped(t) => DbtExit::Trapped(t),
            ExitReason::StepLimit => DbtExit::StepLimit,
        }
    }
}

/// Execution statistics for a DBT session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbtStats {
    /// Blocks translated.
    pub blocks: u64,
    /// Guest instructions consumed by translation.
    pub guest_insts: u64,
    /// Cache instructions emitted (instrumentation expansion shows here).
    pub cache_insts: u64,
    /// Exit stubs patched into direct chains.
    pub chains: u64,
    /// Indirect-branch dispatches serviced.
    pub dispatches: u64,
    /// Self-modifying-code flushes.
    pub smc_flushes: u64,
    /// Full code-cache evictions (cache pressure flushed every block).
    pub cache_evictions: u64,
    /// Blocks translated again after their translation was discarded by an
    /// eviction or an SMC flush.
    pub retranslations: u64,
    /// Indirect dispatches answered by the dispatcher's inline cache
    /// (subset of `dispatches`; these skip the block-table lookup).
    pub dispatch_ic_hits: u64,
    /// Tier-2 traces installed (each passed the placement verifier).
    pub traces: u64,
    /// Tier-up attempts rejected (verifier refusal, unprofitable shape, or
    /// cache pressure); execution stayed on tier-1.
    pub trace_rejected: u64,
    /// Installed traces demoted back to tier-1 by an SMC flush.
    pub trace_demotions: u64,
    /// Countdown prologues patched out after a failed tier-up: the block
    /// stays tier-1 for good, at one jump of residual per-entry overhead.
    pub trace_disarms: u64,
}

/// A translated block's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransBlock {
    /// Guest address of the first instruction (the block's signature).
    pub guest_start: u64,
    /// Guest bytes covered.
    pub guest_len: u64,
    /// First cache address of the translation.
    pub cache_start: u64,
    /// One past the last cache address.
    pub cache_end: u64,
    /// Cache address where the 1:1 copy of the guest body begins (right
    /// after the instrumentation head).
    pub body_start: u64,
    /// Bytes of 1:1-copied body (excludes the translated terminator and its
    /// glue). Zero for tier-2 traces, whose bodies are discontiguous.
    pub body_len: u64,
}

impl TransBlock {
    /// The cache address range occupied by the translation.
    pub fn cache_range(&self) -> Range<u64> {
        self.cache_start..self.cache_end
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ExitKind {
    /// Patchable direct transfer to a guest target.
    Direct { guest_target: u64, site: u64 },
    /// Indirect transfer; dynamic guest target in `regs::ITARGET`.
    Indirect,
    /// Translation-time fault to surface when reached.
    Abort { trap: Trap },
    /// Tier-up request: the block's execution counter reached the compile
    /// threshold. The runtime attempts trace formation and resumes either
    /// in the installed trace or right after the stub.
    TierUp { guest_start: u64 },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitDesc {
    pub(crate) kind: ExitKind,
    pub(crate) patched: bool,
}

/// The dynamic binary translator.
///
/// # Examples
///
/// ```
/// use cfed_dbt::{Dbt, DbtExit, NullInstrumenter, UpdateStyle};
/// use cfed_isa::{encode_all, Inst, Reg};
/// use cfed_sim::Machine;
///
/// let code = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 9 }, Inst::Halt]);
/// let mut m = Machine::load(&code, &[], 0);
/// let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
/// assert_eq!(dbt.run(&mut m, 1_000), DbtExit::Halted { code: 9 });
/// ```
///
/// # Cloning
///
/// `Dbt` is `Clone`: the clone duplicates all translation bookkeeping
/// (block table, exit descriptors, chain patches, protected-page set,
/// statistics) and shares the instrumenter, which is stateless — every
/// [`Instrumenter`] hook takes `&self`; signature state lives in guest
/// registers, never in the instrumenter. A clone is only meaningful paired
/// with a `Machine` whose memory holds the matching code-cache contents
/// (e.g. a [`cfed_sim::MachineSnapshot`] captured at the same moment):
/// the bookkeeping describes translations physically present in that
/// memory, and restoring either half alone desynchronizes cursor, block
/// table and cache bytes.
pub struct Dbt {
    instr: Arc<dyn Instrumenter>,
    style: UpdateStyle,
    cache: Range<u64>,
    cursor: u64,
    err_stub: u64,
    guest_code: Range<u64>,
    blocks: HashMap<u64, TransBlock>,
    pub(crate) exits: Vec<ExitDesc>,
    patched_by_target: HashMap<u64, Vec<usize>>,
    blocks_by_page: HashMap<u64, Vec<u64>>,
    protected_pages: HashSet<u64>,
    pub(crate) dispatch_cycles: u64,
    pub(crate) stats: DbtStats,
    pub(crate) attached: bool,
    /// Usable cache end; `set_cache_limit` lowers it to force eviction.
    cache_limit: u64,
    /// Cursor value right after the shared stubs — the reset point for a
    /// full eviction.
    base_cursor: u64,
    /// Bumped by every full eviction; exit indices and patch sites from an
    /// older generation are invalid.
    pub(crate) flush_gen: u64,
    /// Guest block starts ever translated, to count retranslations.
    seen_starts: HashSet<u64>,
    /// Direct-mapped inline cache for the indirect-branch dispatcher:
    /// `(guest target, cache entry)` pairs, cleared wholesale whenever any
    /// translation dies (full eviction or SMC flush).
    pub(crate) dispatch_ic: [Option<(u64, u64)>; DISPATCH_IC_SIZE],
    trans_us: Histogram,
    telemetry: Telemetry,
    /// Tier-2 state; `None` for a plain (never-tiered) engine.
    tier: Option<TierState>,
}

/// Bookkeeping of the profile-guided second tier.
#[derive(Clone)]
struct TierState {
    config: TierConfig,
    /// The R/W counter region carved from the cache.
    counters: Range<u64>,
    /// Next free counter slot (reset by full evictions).
    next_slot: u64,
    /// Guest block start → counter slot address.
    slot_of: HashMap<u64, u64>,
    /// Per-trace map of emitted guest-op cache addresses back to guest
    /// addresses (sorted by cache address; SMC recovery inside traces).
    trace_maps: HashMap<u64, Vec<(u64, u64)>>,
}

impl Clone for Dbt {
    fn clone(&self) -> Dbt {
        Dbt {
            instr: Arc::clone(&self.instr),
            style: self.style,
            cache: self.cache.clone(),
            cursor: self.cursor,
            err_stub: self.err_stub,
            guest_code: self.guest_code.clone(),
            blocks: self.blocks.clone(),
            exits: self.exits.clone(),
            patched_by_target: self.patched_by_target.clone(),
            blocks_by_page: self.blocks_by_page.clone(),
            protected_pages: self.protected_pages.clone(),
            dispatch_cycles: self.dispatch_cycles,
            stats: self.stats,
            attached: self.attached,
            cache_limit: self.cache_limit,
            base_cursor: self.base_cursor,
            flush_gen: self.flush_gen,
            seen_starts: self.seen_starts.clone(),
            dispatch_ic: self.dispatch_ic,
            trans_us: self.trans_us.clone(),
            telemetry: self.telemetry.clone(),
            tier: self.tier.clone(),
        }
    }
}

impl std::fmt::Debug for Dbt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dbt")
            .field("technique", &self.instr.name())
            .field("style", &self.style)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl Dbt {
    /// Creates a DBT for the loaded machine, maps the code-cache region, and
    /// emits the shared report-error stub.
    pub fn new(instr: Box<dyn Instrumenter>, style: UpdateStyle, m: &mut Machine) -> Dbt {
        Self::with_tier(instr, style, m, None)
    }

    /// Like [`Dbt::new`], but with the profile-guided second tier enabled:
    /// blocks whose technique supports trace signatures
    /// ([`Instrumenter::trace_sig`]) count their executions, and at the
    /// configured threshold the engine forms, verifies, and installs an
    /// optimized trace (see [`crate::trace`]). Guest-observable behavior is
    /// identical to a never-tiered engine; instruction/cycle costs differ.
    pub fn new_tiered(
        instr: Box<dyn Instrumenter>,
        style: UpdateStyle,
        m: &mut Machine,
        tier: TierConfig,
    ) -> Dbt {
        Self::with_tier(instr, style, m, Some(tier))
    }

    fn with_tier(
        instr: Box<dyn Instrumenter>,
        style: UpdateStyle,
        m: &mut Machine,
        tier: Option<TierConfig>,
    ) -> Dbt {
        let cache = m.layout().cache_region.clone();
        // A tiered engine carves an R/W (never executable) counter region
        // from the start of the cache; code emission starts after it.
        let tier = tier.map(|config| {
            let counters = cache.start..cache.start + TIER_COUNTER_BYTES;
            m.mem.map(counters.clone(), Perms::R | Perms::W);
            TierState {
                config,
                counters,
                next_slot: 0,
                slot_of: HashMap::new(),
                trace_maps: HashMap::new(),
            }
        });
        let code_start = tier.as_ref().map_or(cache.start, |t| t.counters.end);
        m.mem.map(code_start..cache.end, Perms::R | Perms::X);
        let mut a = CacheAsm::new(&mut m.mem, code_start);
        // The `.report_error` target of every signature check.
        let err_stub = a.emit(Inst::Trap { code: trap_codes::CFE_DETECTED });
        let cursor = a.finish();
        let cache_limit = cache.end;
        // Execute permission is enforced at page granularity (the
        // execute-disable bit), so the padding tail of the last code page is
        // fetchable and must fault as InvalidInst exactly as it does on the
        // bare machine — only beyond the page boundary is PermExec correct.
        let code = m.code_range();
        let guest_code = code.start..Memory::page_base(code.end + PAGE_SIZE - 1);
        Dbt {
            instr: Arc::from(instr),
            style,
            cache,
            cursor,
            err_stub,
            guest_code,
            blocks: HashMap::new(),
            exits: Vec::new(),
            patched_by_target: HashMap::new(),
            blocks_by_page: HashMap::new(),
            protected_pages: HashSet::new(),
            dispatch_cycles: DEFAULT_DISPATCH_CYCLES,
            stats: DbtStats::default(),
            attached: false,
            cache_limit,
            base_cursor: cursor,
            flush_gen: 0,
            seen_starts: HashSet::new(),
            dispatch_ic: [None; DISPATCH_IC_SIZE],
            trans_us: Histogram::new(),
            telemetry: Telemetry::off(),
            tier,
        }
    }

    /// Whether this engine was constructed with the trace tier.
    pub fn is_tiered(&self) -> bool {
        self.tier.is_some()
    }

    /// Cache-content generation key consumed by the native backend: a full
    /// eviction, an SMC flush, a trace install, or a prologue disarm each
    /// rewrite cache bytes under previously compiled host code.
    pub(crate) fn gen_key(&self) -> (u64, u64, u64, u64) {
        (self.flush_gen, self.stats.smc_flushes, self.stats.traces, self.stats.trace_disarms)
    }

    /// Overrides the per-dispatch cycle charge (cost-model ablation).
    pub fn set_dispatch_cycles(&mut self, cycles: u64) {
        self.dispatch_cycles = cycles;
    }

    /// Lowers the usable cache end to force eviction under test-sized
    /// workloads (clamped to leave room for the shared stubs plus one
    /// translation's reserve).
    pub fn set_cache_limit(&mut self, limit_end: u64) {
        self.cache_limit = limit_end.clamp(self.base_cursor + EVICT_RESERVE, self.cache.end);
    }

    /// Attaches a telemetry handle; [`Dbt::emit_stats`] and run-end
    /// reporting go through it. Disabled handles cost one branch per emit
    /// site, never per executed instruction.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Per-block translation times in microseconds.
    pub fn translation_hist(&self) -> &Histogram {
        &self.trans_us
    }

    /// Emits a `dbt_stats` event carrying every counter and the
    /// translation-time histogram. Called automatically when [`Dbt::run`]
    /// finishes; call it directly when driving [`Dbt::step`] by hand.
    pub fn emit_stats(&self) {
        let s = self.stats;
        self.telemetry.emit_with(|| {
            Event::new("dbt_stats")
                .str("technique", self.instr.name())
                .u64("blocks", s.blocks)
                .u64("guest_insts", s.guest_insts)
                .u64("cache_insts", s.cache_insts)
                .u64("chains", s.chains)
                .u64("dispatches", s.dispatches)
                .u64("smc_flushes", s.smc_flushes)
                .u64("cache_evictions", s.cache_evictions)
                .u64("retranslations", s.retranslations)
                .u64("dispatch_ic_hits", s.dispatch_ic_hits)
                .u64("traces", s.traces)
                .u64("trace_rejected", s.trace_rejected)
                .u64("trace_demotions", s.trace_demotions)
                .u64("trace_disarms", s.trace_disarms)
                .json("translate_us", self.trans_us.to_json())
        });
    }

    /// The technique driving instrumentation.
    pub fn technique_name(&self) -> &'static str {
        self.instr.name()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DbtStats {
        self.stats
    }

    /// The cache region.
    pub fn cache_region(&self) -> Range<u64> {
        self.cache.clone()
    }

    /// Cache address of the shared report-error stub.
    pub fn err_stub(&self) -> u64 {
        self.err_stub
    }

    /// Translated blocks, in no particular order.
    pub fn blocks(&self) -> impl Iterator<Item = &TransBlock> {
        self.blocks.values()
    }

    /// Looks up the translation of a guest block start address.
    pub fn lookup(&self, guest_addr: u64) -> Option<&TransBlock> {
        self.blocks.get(&guest_addr)
    }

    /// Finds the translated block whose cache range contains `addr`.
    pub fn block_containing(&self, addr: u64) -> Option<&TransBlock> {
        self.blocks.values().find(|b| b.cache_range().contains(&addr))
    }

    /// Maps a cache address inside a translation's 1:1-copied body back to
    /// the guest instruction it mirrors. `None` for instrumentation heads,
    /// translated terminators, exit glue and tier-2 traces.
    fn guest_body_ip(&self, cache_ip: u64) -> Option<u64> {
        let b = self.block_containing(cache_ip)?;
        let off = cache_ip.checked_sub(b.body_start)?;
        (off < b.body_len).then(|| b.guest_start + off)
    }

    /// Redirects the CPU from the guest entry point into translated code and
    /// initializes the instrumentation registers.
    ///
    /// # Errors
    ///
    /// Surfaces the hardware trap if the entry address is not translatable.
    pub fn attach(&mut self, m: &mut Machine) -> Result<(), Trap> {
        let entry = m.cpu.ip();
        let cache_entry = self.translate(m, entry)?;
        for (reg, value) in self.instr.initial_state(entry) {
            m.cpu.set_reg(reg, value);
        }
        m.cpu.set_ip(cache_entry);
        self.attached = true;
        Ok(())
    }

    /// Executes one instruction under DBT supervision, servicing runtime
    /// exits transparently.
    pub fn step(&mut self, m: &mut Machine) -> DbtStep {
        if !self.attached {
            if let Err(t) = self.attach(m) {
                return DbtStep::Exit(t);
            }
        }
        match m.step_cpu() {
            Ok(cfed_sim::Step::Continue) => DbtStep::Continue,
            Ok(cfed_sim::Step::Halt) => DbtStep::Halted,
            Err(trap) => self.handle_trap(m, trap),
        }
    }

    /// Services a trap raised while executing translated code: runtime-exit
    /// software traps dispatch through [`Dbt::service_exit`], write faults on
    /// pages this engine protected trigger an SMC flush, and anything else
    /// surfaces to the caller.
    pub(crate) fn handle_trap(&mut self, m: &mut Machine, trap: Trap) -> DbtStep {
        match trap {
            Trap::Software { code, .. }
                if code >= trap_codes::DBT_EXIT_BASE
                    && ((code - trap_codes::DBT_EXIT_BASE) as usize) < self.exits.len() =>
            {
                let idx = (code - trap_codes::DBT_EXIT_BASE) as usize;
                self.service_exit(m, idx)
            }
            Trap::PermWrite { addr } if self.protected_pages.contains(&Memory::page_base(addr)) => {
                // A store into a page backing live translations. Flushing
                // the page is not enough when the faulting store and its
                // victim share a translation: resuming in cache would run
                // the stale tail. Hop back to guest space instead — retire
                // the store by interpretation (the page is unprotected after
                // the flush), then re-attach at the next guest instruction
                // so everything downstream is retranslated from the patched
                // bytes.
                let resume =
                    self.guest_body_ip(m.cpu.ip()).or_else(|| self.trace_guest_ip(m.cpu.ip()));
                self.smc_flush(m, Memory::page_base(addr));
                let Some(guest_store) = resume else {
                    // Store came from glue: it re-executes in cache
                    // against the now-unprotected page; only *other*
                    // translations could have been stale, and those were
                    // just flushed.
                    return DbtStep::Continue;
                };
                m.cpu.set_ip(guest_store);
                match m.step_cpu() {
                    Ok(cfed_sim::Step::Continue) => {}
                    Ok(cfed_sim::Step::Halt) => return DbtStep::Halted,
                    Err(t) => return DbtStep::Exit(t),
                }
                let next = m.cpu.ip();
                for (reg, value) in self.instr.initial_state(next) {
                    m.cpu.set_reg(reg, value);
                }
                match self.translate(m, next) {
                    Ok(cache_next) => {
                        m.cpu.set_ip(cache_next);
                        DbtStep::Continue
                    }
                    Err(t) => DbtStep::Exit(t),
                }
            }
            other => DbtStep::Exit(other),
        }
    }

    /// Runs under supervision until halt, surfaced trap, or `max_insts`
    /// retired guest+instrumentation instructions.
    ///
    /// When the machine has a decode cache and no tracer attached, execution
    /// proceeds in block-fused bursts ([`Machine::run_burst`]): translated
    /// code re-validates its decoded page once on block entry and then runs
    /// straight-line without per-instruction cache lookups, falling back to
    /// this engine only at traps (runtime exits, SMC faults). Architectural
    /// results are bit-identical to the per-step path.
    pub fn run(&mut self, m: &mut Machine, max_insts: u64) -> DbtExit {
        let start = m.cpu.stats().insts;
        let fused = m.tracer.is_none() && m.has_decode_cache();
        loop {
            let used = m.cpu.stats().insts - start;
            if used >= max_insts {
                self.emit_stats();
                return DbtExit::StepLimit;
            }
            let step = if fused {
                if !self.attached {
                    if let Err(t) = self.attach(m) {
                        self.emit_stats();
                        return DbtExit::Trapped(t);
                    }
                }
                match m.run_burst(max_insts - used) {
                    Ok(cfed_sim::Step::Continue) => DbtStep::Continue,
                    Ok(cfed_sim::Step::Halt) => DbtStep::Halted,
                    Err(trap) => self.handle_trap(m, trap),
                }
            } else {
                self.step(m)
            };
            match step {
                DbtStep::Continue => {}
                DbtStep::Halted => {
                    self.emit_stats();
                    return DbtExit::Halted { code: m.cpu.reg(cfed_isa::Reg::R0) };
                }
                DbtStep::Exit(t) => {
                    self.emit_stats();
                    return DbtExit::Trapped(t);
                }
            }
        }
    }

    fn service_exit(&mut self, m: &mut Machine, idx: usize) -> DbtStep {
        match self.exits[idx].kind {
            ExitKind::Direct { guest_target, site } => {
                let gen = self.flush_gen;
                let cache_target = match self.translate(m, guest_target) {
                    Ok(c) => c,
                    Err(t) => return DbtStep::Exit(t),
                };
                if self.flush_gen != gen {
                    // Translating evicted the cache; the exit site (and its
                    // descriptor index) died with the old generation. Enter
                    // the fresh translation directly instead of patching.
                    m.cpu.set_ip(cache_target);
                    return DbtStep::Continue;
                }
                patch_inst(
                    &mut m.mem,
                    site,
                    Inst::Jmp { offset: CacheAsm::rel(site, cache_target) },
                );
                self.exits[idx].patched = true;
                self.patched_by_target.entry(guest_target).or_default().push(idx);
                self.stats.chains += 1;
                // ip still addresses the (now patched) site; resuming
                // executes the chain jump.
                DbtStep::Continue
            }
            ExitKind::Indirect => {
                let guest_target = m.cpu.reg(regs::ITARGET);
                m.cpu.add_cycles(self.dispatch_cycles);
                self.stats.dispatches += 1;
                let slot = (guest_target / INST_SIZE_U64) as usize % DISPATCH_IC_SIZE;
                if let Some((tag, cached)) = self.dispatch_ic[slot] {
                    if tag == guest_target {
                        self.stats.dispatch_ic_hits += 1;
                        m.cpu.set_ip(cached);
                        return DbtStep::Continue;
                    }
                }
                match self.translate(m, guest_target) {
                    Ok(c) => {
                        self.dispatch_ic[slot] = Some((guest_target, c));
                        m.cpu.set_ip(c);
                        DbtStep::Continue
                    }
                    Err(t) => DbtStep::Exit(t),
                }
            }
            ExitKind::Abort { trap } => DbtStep::Exit(trap),
            ExitKind::TierUp { guest_start } => {
                // ip addresses the tier-up trap stub inside the block head;
                // the instrumentation head has not run yet, so the on-edge
                // signature invariant still holds — a trace entered here
                // starts from the same state as the tier-1 head.
                let resume = m.cpu.ip() + INST_SIZE_U64;
                match self.try_promote(m, guest_start) {
                    Some(trace_entry) => m.cpu.set_ip(trace_entry),
                    None => {
                        // No trace: the counter has fired (and gone
                        // negative), so the countdown is dead weight —
                        // patch the prologue into a jump over itself.
                        self.disarm_tier_counter(m, guest_start);
                        m.cpu.set_ip(resume);
                    }
                }
                DbtStep::Continue
            }
        }
    }

    /// Translates the guest block starting at `guest_addr` (or returns the
    /// existing translation).
    ///
    /// # Errors
    ///
    /// Returns the hardware trap a real machine would raise for the target:
    /// [`Trap::UnalignedFetch`] for misaligned addresses,
    /// [`Trap::PermExec`] for targets outside the guest code region.
    pub fn translate(&mut self, m: &mut Machine, guest_addr: u64) -> Result<u64, Trap> {
        if let Some(b) = self.blocks.get(&guest_addr) {
            return Ok(b.cache_start);
        }
        if !guest_addr.is_multiple_of(INST_SIZE_U64) {
            return Err(Trap::UnalignedFetch { addr: guest_addr });
        }
        if !self.guest_code.contains(&guest_addr) {
            return Err(Trap::PermExec { addr: guest_addr });
        }
        if self.cursor + EVICT_RESERVE > self.cache_limit {
            self.evict_all(m);
        }
        if !self.seen_starts.insert(guest_addr) {
            self.stats.retranslations += 1;
        }
        let timer = Timer::start();

        // ---- decode the guest block ----
        let mut insts = Vec::new();
        let mut addr = guest_addr;
        let mut abort: Option<Trap> = None;
        let terminator = loop {
            if !self.guest_code.contains(&addr) {
                abort = Some(Trap::PermExec { addr });
                break None;
            }
            let bytes: [u8; 8] = m.mem.peek(addr, 8).try_into().expect("guest code in range");
            match Inst::decode(&bytes) {
                Ok(inst) if inst.is_terminator() => break Some((inst, addr)),
                Ok(inst) => {
                    insts.push(inst);
                    addr += INST_SIZE_U64;
                    if insts.len() >= MAX_BLOCK_INSTS {
                        break None; // split: synthetic fall-through edge
                    }
                }
                Err(cause) => {
                    abort = Some(Trap::InvalidInst { addr, cause });
                    break None;
                }
            }
        };
        let guest_end = terminator.map_or(addr, |(_, taddr)| taddr + INST_SIZE_U64);
        let range = guest_addr..guest_end.max(guest_addr + INST_SIZE_U64);
        self.stats.guest_insts += insts.len() as u64 + terminator.is_some() as u64;

        let view = BlockView {
            guest_start: guest_addr,
            ends_with_ret: matches!(terminator, Some((Inst::Ret, _))),
            ends_with_halt: matches!(terminator, Some((Inst::Halt, _))),
            has_back_edge: match terminator {
                Some((t, taddr)) => t.direct_target(taddr).is_some_and(|tgt| tgt <= taddr),
                None => false,
            },
        };
        let check = self.instr.wants_check(&view);

        // ---- emit the translation ----
        let tier_counter = self.alloc_tier_counter(m, guest_addr);
        let cache_start = self.cursor;
        // Collect exit descriptors created during emission; allocated after
        // emission because sites are only known then.
        let mut new_exits: Vec<(u64, ExitKind)> = Vec::new(); // (site, kind)

        let mut a = CacheAsm::new(&mut m.mem, cache_start);
        if let Some(counter) = tier_counter {
            // Tier-up countdown, ahead of the instrumentation head so the
            // on-edge signature invariant still holds at the trap stub. All
            // flag-free (`ld`/`st`/`lea`/`jrnz`); `AUX`/`CHK` are dead at
            // block boundaries. The counter goes negative after firing once
            // and never fires again.
            a.emit(Inst::MovRI { dst: regs::AUX, imm: counter as i32 });
            a.emit(Inst::Ld { dst: regs::CHK, base: regs::AUX, disp: 0 });
            a.emit(Inst::Lea { dst: regs::CHK, base: regs::CHK, disp: -1 });
            a.emit(Inst::St { base: regs::AUX, src: regs::CHK, disp: 0 });
            let skip = a.new_label();
            a.jrnz_to(regs::CHK, skip);
            let site = a.here();
            a.emit(Inst::Nop); // becomes the tier-up trap stub
            new_exits.push((site, ExitKind::TierUp { guest_start: guest_addr }));
            a.bind(skip);
            debug_assert_eq!(a.here(), cache_start + TIER_PROLOGUE_INSTS * INST_SIZE_U64);
        }
        self.instr.emit_head(&mut a, guest_addr, check, self.err_stub);
        let body_start = a.here();
        for inst in &insts {
            a.emit(*inst);
        }

        let cur = guest_addr;
        match terminator {
            Some((inst @ Inst::Jmp { .. }, taddr)) => {
                let target = inst.direct_target(taddr).expect("direct");
                self.instr.emit_update_direct(&mut a, cur, target);
                Self::emit_exit_direct(&self.blocks, &mut a, target, &mut new_exits);
            }
            Some((inst @ (Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. }), taddr)) => {
                let taken = inst.direct_target(taddr).expect("direct");
                let fall = taddr + INST_SIZE_U64;
                // Conditional signature update, emitted BEFORE the original
                // branch (the temporal separation that lets the techniques
                // catch mistaken-branch errors, category A). Two flavors:
                // cmov-style (Figure 8) or branch-style via an inserted
                // selector branch mirroring the condition (the paper's
                // "Jcc" configuration, Figure 14).
                if self.instr.has_updates() {
                    let cmov_done = match (self.style, inst) {
                        (UpdateStyle::CMov, Inst::Jcc { cc, .. }) => {
                            self.instr.emit_update_cond_cmov(&mut a, cur, taken, fall, cc)
                        }
                        _ => false,
                    };
                    if !cmov_done {
                        self.instr.emit_pre_selector(&mut a, cur);
                        let lu = a.new_label();
                        let lj = a.new_label();
                        match inst {
                            Inst::Jcc { cc, .. } => a.jcc_to(cc, lu),
                            Inst::JRz { src, .. } => a.jrz_to(src, lu),
                            Inst::JRnz { src, .. } => a.jrnz_to(src, lu),
                            _ => unreachable!(),
                        };
                        self.instr.emit_selector_update(&mut a, cur, fall);
                        a.jmp_to(lj);
                        a.bind(lu);
                        self.instr.emit_selector_update(&mut a, cur, taken);
                        a.bind(lj);
                    }
                }
                // The original branch, translated to target the exit sites.
                let lt = a.new_label();
                match inst {
                    Inst::Jcc { cc, .. } => a.jcc_to(cc, lt),
                    Inst::JRz { src, .. } => a.jrz_to(src, lt),
                    Inst::JRnz { src, .. } => a.jrnz_to(src, lt),
                    _ => unreachable!(),
                };
                Self::emit_exit_direct(&self.blocks, &mut a, fall, &mut new_exits);
                a.bind(lt);
                Self::emit_exit_direct(&self.blocks, &mut a, taken, &mut new_exits);
            }
            Some((inst @ Inst::Call { .. }, taddr)) => {
                let target = inst.direct_target(taddr).expect("direct");
                let guest_ret = taddr + INST_SIZE_U64;
                a.emit(Inst::MovRI { dst: regs::GRET, imm: guest_ret as i32 });
                a.emit(Inst::Push { src: regs::GRET });
                self.instr.emit_update_direct(&mut a, cur, target);
                Self::emit_exit_direct(&self.blocks, &mut a, target, &mut new_exits);
            }
            Some((Inst::CallR { target }, taddr)) => {
                let guest_ret = taddr + INST_SIZE_U64;
                a.emit(Inst::MovRR { dst: regs::ITARGET, src: target });
                a.emit(Inst::MovRI { dst: regs::GRET, imm: guest_ret as i32 });
                a.emit(Inst::Push { src: regs::GRET });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop); // placeholder, rewritten below
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::JmpR { target }, _)) => {
                a.emit(Inst::MovRR { dst: regs::ITARGET, src: target });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop);
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::Ret, _)) => {
                a.emit(Inst::Pop { dst: regs::ITARGET });
                self.instr.emit_update_indirect(&mut a, cur, regs::ITARGET);
                let site = a.here();
                a.emit(Inst::Nop);
                new_exits.push((site, ExitKind::Indirect));
            }
            Some((Inst::Halt, _)) => {
                self.instr.emit_end_check(&mut a, cur, self.err_stub);
                a.emit(Inst::Halt);
            }
            Some((Inst::Trap { code }, _)) => {
                a.emit(Inst::Trap { code });
            }
            Some((other, taddr)) => {
                unreachable!("non-terminator {other:?} at {taddr:#x} ended block")
            }
            None => match abort {
                Some(trap) => {
                    let site = a.here();
                    a.emit(Inst::Nop);
                    new_exits.push((site, ExitKind::Abort { trap }));
                }
                None => {
                    // Block split at MAX_BLOCK_INSTS: synthetic fall-through.
                    self.instr.emit_update_direct(&mut a, cur, addr);
                    Self::emit_exit_direct(&self.blocks, &mut a, addr, &mut new_exits);
                }
            },
        }
        let cache_end = a.finish();
        self.register_exits(m, new_exits);

        // Record the block and protect its guest pages (SMC detection).
        let block = TransBlock {
            guest_start: guest_addr,
            guest_len: range.end - range.start,
            cache_start,
            cache_end,
            body_start,
            body_len: insts.len() as u64 * INST_SIZE_U64,
        };
        self.stats.blocks += 1;
        self.stats.cache_insts += (cache_end - cache_start) / INST_SIZE_U64;
        self.blocks.insert(guest_addr, block);
        self.protect_ranges(m, guest_addr, &[range]);

        self.cursor = cache_end;
        assert!(self.cursor <= self.cache_limit, "code cache exhausted");
        timer.observe_into(&mut self.trans_us);
        Ok(cache_start)
    }

    /// Discards every translation: clears the block index, exit
    /// descriptors, chain records and page protections, and resets the
    /// cursor to just past the shared stubs. Bumps the flush generation so
    /// in-flight exit servicing knows its descriptor index is stale. The
    /// old cache bytes stay in memory but become unreachable — nothing
    /// chains into them and the dispatcher only enters fresh translations.
    fn evict_all(&mut self, m: &mut Machine) {
        for page in self.protected_pages.drain() {
            m.mem.unprotect_page(page);
        }
        self.blocks.clear();
        self.exits.clear();
        self.patched_by_target.clear();
        self.blocks_by_page.clear();
        self.dispatch_ic = [None; DISPATCH_IC_SIZE];
        self.cursor = self.base_cursor;
        self.flush_gen += 1;
        self.stats.cache_evictions += 1;
        if let Some(tier) = self.tier.as_mut() {
            tier.slot_of.clear();
            tier.next_slot = 0;
            tier.trace_maps.clear();
        }
    }

    /// Allocates (or reuses) the tier-up counter slot for a block about to
    /// be translated and re-arms it to the compile threshold. `None` when
    /// the engine is untiered, the technique has no trace signature model,
    /// or the slots are exhausted.
    fn alloc_tier_counter(&mut self, m: &mut Machine, guest_addr: u64) -> Option<u64> {
        self.instr.trace_sig()?;
        let tier = self.tier.as_mut()?;
        let addr = match tier.slot_of.get(&guest_addr) {
            Some(&addr) => addr,
            None => {
                let cap = (tier.counters.end - tier.counters.start) / 8;
                if tier.next_slot >= cap {
                    return None;
                }
                let addr = tier.counters.start + tier.next_slot * 8;
                tier.next_slot += 1;
                tier.slot_of.insert(guest_addr, addr);
                addr
            }
        };
        m.mem.install(addr, &u64::from(tier.config.compile_threshold).to_le_bytes());
        Some(addr)
    }

    /// Attempts tier-up at `entry`: walks a trace, verifies the optimized
    /// placement against the technique's `GEN_SIG`/`CHECK_SIG` conditions,
    /// and installs it. Returns the trace's cache entry, or `None` (counted
    /// in [`DbtStats::trace_rejected`] when a formed plan was refused) with
    /// tier-1 left untouched.
    fn try_promote(&mut self, m: &mut Machine, entry: u64) -> Option<u64> {
        let sig = self.instr.trace_sig()?;
        let tier = self.tier.as_ref()?;
        if !self.blocks.contains_key(&entry) {
            return None;
        }
        let cand = {
            let mem = &m.mem;
            let slot_of = &tier.slot_of;
            let instr = &self.instr;
            // Successor hotness = remaining countdown, clamped at zero for
            // blocks that already fired. Counters live in guest memory, so
            // fused-interpreter and native runs read identical profiles and
            // form identical traces.
            plan_trace(
                mem,
                &self.guest_code,
                entry,
                sig,
                |view| instr.wants_check(view),
                |g| {
                    slot_of.get(&g).map(|&addr| {
                        let bytes: [u8; 8] = mem.peek(addr, 8).try_into().expect("counter slot");
                        i64::from_le_bytes(bytes).max(0) as u64
                    })
                },
            )?
        };
        if tier.config.verifier.verify(&cand.plan).is_err() {
            self.stats.trace_rejected += 1;
            return None;
        }
        // Worst-case emission size: every op can cost two cache slots, plus
        // side-exit stubs. Reject under cache pressure rather than evicting
        // (the eviction would discard the very profile that got us here).
        let est = (cand.plan.ops.len() as u64 * 2 + 8) * INST_SIZE_U64;
        if self.cursor + est + EVICT_RESERVE > self.cache_limit {
            self.stats.trace_rejected += 1;
            return None;
        }
        Some(self.install_trace(m, cand))
    }

    /// Emits a verified trace plan into the cache and swaps it in for the
    /// entry block: existing chains into the block are re-pointed at the
    /// trace, covered guest pages are (re)protected, and the guest-op map
    /// is recorded for SMC recovery.
    fn install_trace(&mut self, m: &mut Machine, cand: TraceCandidate) -> u64 {
        let timer = Timer::start();
        let entry_guest = cand.plan.entry_sig;
        let cache_start = self.cursor;
        let mut new_exits: Vec<(u64, ExitKind)> = Vec::new();
        let mut map: Vec<(u64, u64)> = Vec::new();
        let mut stubs: Vec<(crate::cache::Label, u64, i64)> = Vec::new();
        let mut a = CacheAsm::new(&mut m.mem, cache_start);
        fn lea_adjust(a: &mut CacheAsm<'_>, adjust: i64) {
            if adjust != 0 {
                let disp = i32::try_from(adjust).expect("trace adjust fits i32");
                a.emit(Inst::Lea { dst: regs::PC_PRIME, base: regs::PC_PRIME, disp });
            }
        }
        for op in &cand.plan.ops {
            match *op {
                TraceOp::SigAdd { delta } => lea_adjust(&mut a, delta),
                TraceOp::Check => {
                    a.jrnz_abs(regs::PC_PRIME, self.err_stub);
                }
                TraceOp::Guest { guest_addr, inst } => {
                    map.push((a.here(), guest_addr));
                    a.emit(inst);
                }
                TraceOp::SideExit { branch, target, adjust } => {
                    let l = a.new_label();
                    match branch {
                        SideBranch::Cc(cc) => a.jcc_to(cc, l),
                        SideBranch::Rz(r) => a.jrz_to(r, l),
                        SideBranch::Rnz(r) => a.jrnz_to(r, l),
                    };
                    stubs.push((l, target, adjust));
                }
                TraceOp::Exit { target, adjust } => {
                    lea_adjust(&mut a, adjust);
                    Self::emit_exit_direct(&self.blocks, &mut a, target, &mut new_exits);
                }
                TraceOp::Loop { adjust } => {
                    lea_adjust(&mut a, adjust);
                    a.jmp_abs(cache_start);
                }
            }
        }
        // Side-exit stubs after the trace body: adjust the signature for the
        // not-followed edge, then transfer like any tier-1 direct exit.
        for (l, target, adjust) in stubs {
            a.bind(l);
            lea_adjust(&mut a, adjust);
            Self::emit_exit_direct(&self.blocks, &mut a, target, &mut new_exits);
        }
        let cache_end = a.finish();
        self.register_exits(m, new_exits);

        let block = TransBlock {
            guest_start: entry_guest,
            guest_len: cand.ranges.iter().map(|r| r.end - r.start).sum(),
            cache_start,
            cache_end,
            body_start: cache_start,
            body_len: 0, // guest body is discontiguous; SMC uses trace_maps
        };
        self.stats.cache_insts += (cache_end - cache_start) / INST_SIZE_U64;
        self.blocks.insert(entry_guest, block);
        self.protect_ranges(m, entry_guest, &cand.ranges);
        // Re-point every chain into the replaced tier-1 block at the trace.
        for idx in self.patched_by_target.get(&entry_guest).cloned().unwrap_or_default() {
            if let ExitKind::Direct { site, .. } = self.exits[idx].kind {
                if self.exits[idx].patched {
                    patch_inst(
                        &mut m.mem,
                        site,
                        Inst::Jmp { offset: CacheAsm::rel(site, cache_start) },
                    );
                }
            }
        }
        // The dispatcher's inline cache may enter the replaced translation.
        self.dispatch_ic = [None; DISPATCH_IC_SIZE];
        self.tier.as_mut().expect("tiered engine").trace_maps.insert(entry_guest, map);
        self.stats.traces += 1;
        self.cursor = cache_end;
        assert!(self.cursor <= self.cache_limit, "code cache exhausted");
        timer.observe_into(&mut self.trans_us);
        cache_start
    }

    /// Patches the countdown prologue of `guest_start`'s tier-1 block into
    /// a jump over itself. Called after the counter fired but no trace was
    /// installed: the counter is negative and can never fire again, so the
    /// remaining five prologue instructions are pure per-entry overhead.
    /// The block stays tier-1 until a flush retranslates (and re-arms) it.
    fn disarm_tier_counter(&mut self, m: &mut Machine, guest_start: u64) {
        if self.tier.is_none() {
            return;
        }
        let Some(b) = self.blocks.get(&guest_start) else { return };
        let skip = b.cache_start + TIER_PROLOGUE_INSTS * INST_SIZE_U64;
        patch_inst(
            &mut m.mem,
            b.cache_start,
            Inst::Jmp { offset: CacheAsm::rel(b.cache_start, skip) },
        );
        self.stats.trace_disarms += 1;
    }

    /// Maps a cache address inside an installed trace back to the guest
    /// instruction it was emitted for (SMC recovery; stores are never folded
    /// so every faulting store has an exact entry).
    fn trace_guest_ip(&self, cache_ip: u64) -> Option<u64> {
        let tier = self.tier.as_ref()?;
        let b = self.block_containing(cache_ip)?;
        let map = tier.trace_maps.get(&b.guest_start)?;
        map.binary_search_by_key(&cache_ip, |&(c, _)| c).ok().map(|i| map[i].1)
    }

    /// Materializes exit descriptors and their trap stubs after an emission.
    fn register_exits(&mut self, m: &mut Machine, new_exits: Vec<(u64, ExitKind)>) {
        for (site, kind) in new_exits {
            let idx = self.exits.len();
            let patched = matches!(kind, ExitKind::Direct { .. })
                && matches!(read_inst(&m.mem, site), Inst::Jmp { .. });
            if !patched {
                patch_inst(
                    &mut m.mem,
                    site,
                    Inst::Trap { code: trap_codes::DBT_EXIT_BASE + idx as u32 },
                );
            }
            if patched {
                if let ExitKind::Direct { guest_target, .. } = kind {
                    self.patched_by_target.entry(guest_target).or_default().push(idx);
                    self.stats.chains += 1;
                }
            }
            self.exits.push(ExitDesc { kind, patched });
        }
    }

    /// Registers `guest_start` under every page the ranges cover and write-
    /// protects newly covered pages (SMC detection).
    fn protect_ranges(&mut self, m: &mut Machine, guest_start: u64, ranges: &[Range<u64>]) {
        for range in ranges {
            let mut page = Memory::page_base(range.start);
            while page < range.end {
                self.blocks_by_page.entry(page).or_default().push(guest_start);
                if self.protected_pages.insert(page) {
                    m.mem.protect_page(page);
                }
                page += PAGE_SIZE;
            }
        }
    }

    /// Emits the transfer to a guest target: a direct chain jump when the
    /// target is already translated, otherwise a patchable exit site.
    fn emit_exit_direct(
        blocks: &HashMap<u64, TransBlock>,
        a: &mut CacheAsm<'_>,
        guest_target: u64,
        new_exits: &mut Vec<(u64, ExitKind)>,
    ) {
        let site = a.here();
        if let Some(tb) = blocks.get(&guest_target) {
            a.jmp_abs(tb.cache_start);
        } else {
            a.emit(Inst::Nop); // becomes the trap stub once idx is known
        }
        new_exits.push((site, ExitKind::Direct { guest_target, site }));
    }

    /// Invalidates every translation sourced from `page` and unchains jumps
    /// into them; the guest page becomes writable again.
    fn smc_flush(&mut self, m: &mut Machine, page: u64) {
        let Some(guests) = self.blocks_by_page.remove(&page) else {
            return;
        };
        for g in guests {
            if self.blocks.remove(&g).is_none() {
                continue;
            }
            // A flushed translation that was an installed trace demotes:
            // execution falls back to tier-1 until the re-armed counter
            // proves the patched loop hot again.
            if let Some(tier) = self.tier.as_mut() {
                if tier.trace_maps.remove(&g).is_some() {
                    self.stats.trace_demotions += 1;
                }
            }
            // Unchain every patched jump into the flushed block.
            for idx in self.patched_by_target.remove(&g).unwrap_or_default() {
                if let ExitKind::Direct { site, .. } = self.exits[idx].kind {
                    patch_inst(
                        &mut m.mem,
                        site,
                        Inst::Trap { code: trap_codes::DBT_EXIT_BASE + idx as u32 },
                    );
                    self.exits[idx].patched = false;
                }
            }
        }
        // The dispatcher's inline cache may hold entries into the flushed
        // translations; drop it wholesale rather than tracking provenance.
        self.dispatch_ic = [None; DISPATCH_IC_SIZE];
        self.protected_pages.remove(&page);
        m.mem.unprotect_page(page);
        self.stats.smc_flushes += 1;
    }
}

fn read_inst(mem: &Memory, addr: u64) -> Inst {
    let bytes: [u8; 8] = mem.peek(addr, 8).try_into().expect("aligned slot");
    Inst::decode(&bytes).expect("cache instruction decodes")
}
