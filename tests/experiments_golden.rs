//! The paper scorecard as a golden: every experiment table, rendered
//! exactly as `cargo run -p mjoin-bench --bin experiments` prints it, must
//! equal the "Experiment output (verbatim)" block of EXPERIMENTS.md byte
//! for byte. A refactor that moves any number the reproduction reports
//! fails here instead of leaving the document stale.
//!
//! Re-bless after an intentional change (and then update every Scorecard
//! cell that quotes a moved number) with:
//!
//! ```text
//! MJOIN_UPDATE_GOLDEN=1 cargo test --test experiments_golden
//! ```

use std::fs;
use std::path::PathBuf;

const BLOCK_HEADING: &str = "# Experiment output (verbatim)\n\n```\n";
const FENCE_END: &str = "```\n";

/// The report the `experiments` binary writes to stdout.
fn rendered() -> String {
    let mut out = format!("{}\n", mjoin_bench::REPORT_TITLE);
    for (_, run) in mjoin_bench::all_experiments() {
        out.push('\n');
        out.push_str(&run().to_string());
    }
    out
}

#[test]
fn experiment_output_matches_experiments_md() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let start = doc
        .find(BLOCK_HEADING)
        .map(|i| i + BLOCK_HEADING.len())
        .expect("EXPERIMENTS.md has a verbatim output block");
    let len = doc[start..]
        .find(FENCE_END)
        .expect("the verbatim output block is fenced");
    let (block, out) = (&doc[start..start + len], rendered());
    if std::env::var("MJOIN_UPDATE_GOLDEN").is_ok() {
        let blessed = format!("{}{out}{}", &doc[..start], &doc[start + len..]);
        fs::write(&path, blessed).expect("write EXPERIMENTS.md");
        return;
    }
    if block != out {
        let (b, o): (Vec<&str>, Vec<&str>) = (block.lines().collect(), out.lines().collect());
        let first = b
            .iter()
            .zip(&o)
            .position(|(x, y)| x != y)
            .unwrap_or(b.len().min(o.len()));
        panic!(
            "EXPERIMENTS.md's verbatim block differs from the experiments' output at line {}:\n  \
             doc:  {:?}\n  code: {:?}\nre-bless with MJOIN_UPDATE_GOLDEN=1 if the change is \
             intentional, then update the Scorecard cells that quote moved numbers",
            first + 1,
            b.get(first),
            o.get(first),
        );
    }
}
