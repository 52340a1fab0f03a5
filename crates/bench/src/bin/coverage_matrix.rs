//! Fault-injection coverage matrix: the experiment the paper lists as
//! future work. Injects single-bit faults (offset and flag bits) into
//! DBT-translated code and tallies outcomes per branch-error category for
//! the uninstrumented baseline and each technique. Campaign shards are
//! distributed over a `cfed-runner` worker pool; tallies are bit-identical
//! for any `--threads` value.
//!
//! Usage: `cargo run --release -p cfed-bench --bin coverage_matrix -- [OPTIONS]`

use cfed_runner::cli::Parser;

fn main() {
    let args = Parser::new("coverage_matrix", "per-category fault-injection coverage matrix")
        .flag("trials", "N", "150", "injections per workload per configuration")
        .flag("seed", "SEED", &cfed_bench::DEFAULT_CAMPAIGN_SEED.to_string(), "campaign RNG seed")
        .flag("threads", "N", "0", "worker threads (0 = all cores)")
        .parse();
    let trials = args.get_u64("trials").unwrap_or_else(die);
    let seed = args.get_u64("seed").unwrap_or_else(die);
    let threads = args.get_usize("threads").unwrap_or_else(die);

    use cfed_dbt::UpdateStyle;
    println!("=== CMOVcc update style (safe configurations) ===");
    let study = cfed_bench::coverage_with(trials, UpdateStyle::CMov, seed, threads);
    println!("{}", cfed_bench::render_coverage(&study));
    println!("\n=== Jcc update style (EdgCF/ECF unsafe: inserted selector branches) ===");
    let study = cfed_bench::coverage_with(trials, UpdateStyle::Jcc, seed, threads);
    println!("{}", cfed_bench::render_coverage(&study));
}

fn die<T>(message: String) -> T {
    eprintln!("coverage_matrix: {message}");
    std::process::exit(2);
}
