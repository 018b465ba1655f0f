//! Regenerate Fig. 7: evolution of the unmatched-message ratio over 60 days
//! of simulated production at CC-IN2P3 (promoted pattern database + periodic
//! administrator review of Sequence-RTG candidates).
//!
//! Usage: `fig7 [--days N] [--daily N]` — days simulated (default 60) and
//! messages per day (default 8 000).

use evalharness::production::{render_fig7, simulate, SimConfig};

fn usage(why: &str) -> ! {
    eprintln!("{why}\nusage: fig7 [--days N] [--daily N]");
    std::process::exit(2);
}

/// The positive integer after `flag`, or exit 2 with the usage line.
fn positive(flag: &str, value: Option<String>) -> usize {
    match value.as_deref().map(str::parse::<usize>) {
        Some(Ok(n)) if n > 0 => n,
        _ => usage(&format!("{flag} expects a positive integer")),
    }
}

fn main() {
    let mut cfg = SimConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--days" => cfg.days = positive("--days", args.next()),
            "--daily" => cfg.daily_messages = positive("--daily", args.next()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    eprintln!(
        "simulating {} days x {} messages/day across {} services ...",
        cfg.days, cfg.daily_messages, cfg.services
    );
    let stats = simulate(cfg);
    print!("{}", render_fig7(&stats, 3));
    let first = &stats[0];
    let last = stats.last().unwrap();
    println!(
        "\nday 1 unmatched: {:.1}%  ->  day {} unmatched: {:.1}%  (paper: 75-80% -> ~15%)",
        first.unmatched_pct, last.day, last.unmatched_pct
    );
}
