//! Regenerate Fig. 5: Analyze vs AnalyzeByService processing time as the
//! data set grows (241 virtual services, empty pattern database).
//!
//! Usage: `fig5 [SIZE ...]` — sizes in records, default the scaled sweep in
//! `evalharness::perf::DEFAULT_SIZES`. The trie-size claim is asserted by
//! `tests/paper_claims.rs`.

use evalharness::perf::{render_fig5, run_fig5, DEFAULT_SIZES};
use evalharness::DEFAULT_SEED;

fn main() {
    let mut sizes = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.parse::<usize>() {
            Ok(size) if size > 0 => sizes.push(size),
            _ => {
                eprintln!("bad size {arg}: expected a positive integer\nusage: fig5 [SIZE ...]");
                std::process::exit(2);
            }
        }
    }
    if sizes.is_empty() {
        sizes = DEFAULT_SIZES.to_vec();
    }
    eprintln!("running Fig. 5 sweep over sizes {sizes:?} (241 services) ...");
    let rows = run_fig5(&sizes, 241, DEFAULT_SEED);
    print!("{}", render_fig5(&rows));
    println!("\nPaper shape check: AnalyzeByService should outperform Analyze, and");
    println!("Analyze's time should grow super-linearly at the largest sizes.");
}
