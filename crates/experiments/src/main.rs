//! `spotlake-experiments [NAME...]`: regenerates the paper's tables and
//! figures — the named ones in the paper's order, or all of them when no
//! name is given. The transcript is what `EXPERIMENTS.md` records.
//!
//! Set `SPOTLAKE_DAYS` / `SPOTLAKE_TICK_MINUTES` / `SPOTLAKE_STRIDE` /
//! `SPOTLAKE_SEED` / `SPOTLAKE_WARMUP_DAYS` to rescale. Exit codes: 0 when
//! every experiment completed, 1 when one failed, 2 on a bad name or scale.

use spotlake_experiments::{run, select, Fixtures, Scale};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let (scale, experiments) = match Scale::from_env().and_then(|s| Ok((s, select(&names)?))) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("spotlake-experiments: {message}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&experiments, &Fixtures::new(scale)));
}
