//! Timed run: one workload, end-to-end metrics.
//!
//! `perfbench --workload <name> [--seed <n>] [--seconds <s>]`

use perfbench::report::{peak_rss_mb, print_result};
use perfbench::workloads::{run, NoInspect};
use perfbench::Args;

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = run(&args, false, &mut NoInspect);
    println!("workload {} seed {}", args.workload, args.seed);
    outcome.print_operations();
    let metrics = outcome.end_to_end(peak_rss_mb());
    print_result(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &metrics,
    );
}
