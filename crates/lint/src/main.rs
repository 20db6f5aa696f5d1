//! CLI for the workspace invariant checker.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.
//! `--unused-pub` prints its report and exits `0` whatever it lists.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use spotlake_lint::{
    analyze_file, analyze_workspace, render_json, unused_pub_items, Finding, RULES,
};

const USAGE: &str = "\
spotlake-lint — workspace invariant checker

USAGE:
    cargo run -p spotlake-lint [-- OPTIONS]

OPTIONS:
    --root DIR           workspace root to scan (default: auto-detected)
    --json PATH          also write the JSON report to PATH ('-' = stdout)
    --check-file FILE    lint a single file instead of the workspace
    --as-crate NAME      crate name the file is analyzed as (with --check-file)
    --as-path PATH       repo-relative path used in diagnostics (with --check-file)
    --list-rules         print the rule table and exit
    --unused-pub         report every pub item of crates/*/src that no other
                         file names (benchmark/README.md's load-bearing list
                         excepted) and exit 0
    --help               print this help
";

struct Opts {
    root: Option<PathBuf>,
    json: Option<String>,
    check_file: Option<PathBuf>,
    as_crate: Option<String>,
    as_path: Option<String>,
    list_rules: bool,
    unused_pub: bool,
}

fn parse_args(args: std::env::Args) -> Result<Opts, String> {
    let mut args = args.skip(1).peekable();
    // `cargo lint` is an alias ending in `--`, so `cargo lint -- --help`
    // hands the checker a `--` of its own first: skip one.
    args.next_if_eq("--");
    let mut opts = Opts {
        root: None,
        json: None,
        check_file: None,
        as_crate: None,
        as_path: None,
        list_rules: false,
        unused_pub: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--json" => opts.json = Some(value("--json")?),
            "--check-file" => opts.check_file = Some(PathBuf::from(value("--check-file")?)),
            "--as-crate" => opts.as_crate = Some(value("--as-crate")?),
            "--as-path" => opts.as_path = Some(value("--as-path")?),
            "--list-rules" => opts.list_rules = true,
            "--unused-pub" => opts.unused_pub = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory looking for a `Cargo.toml` that
/// declares `[workspace]`; falls back to this crate's `../..`.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run() -> Result<Vec<Finding>, String> {
    let opts = parse_args(std::env::args())?;

    if opts.list_rules {
        for (name, desc) in RULES {
            println!("{name:<17} {desc}");
        }
        return Ok(Vec::new());
    }

    if opts.unused_pub {
        let root = opts.root.clone().unwrap_or_else(find_root);
        let unused =
            unused_pub_items(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
        for u in &unused {
            println!("{}", u.render_text());
        }
        eprintln!(
            "spotlake-lint: {} pub item(s) referenced nowhere outside their module",
            unused.len()
        );
        return Ok(Vec::new());
    }

    let findings = if let Some(file) = &opts.check_file {
        let crate_name = opts.as_crate.clone().unwrap_or_default();
        let rel = opts
            .as_path
            .clone()
            .unwrap_or_else(|| file.to_string_lossy().into_owned());
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        analyze_file(&crate_name, &rel, &source)
    } else {
        let root = opts.root.clone().unwrap_or_else(find_root);
        analyze_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?
    };

    for f in &findings {
        println!("{}", f.render_text());
    }
    if findings.is_empty() {
        eprintln!("spotlake-lint: clean");
    } else {
        eprintln!("spotlake-lint: {} finding(s)", findings.len());
    }

    if let Some(dest) = &opts.json {
        let doc = render_json(&findings);
        if dest == "-" {
            println!("{doc}");
        } else {
            std::fs::write(dest, doc).map_err(|e| format!("writing {dest}: {e}"))?;
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    match run() {
        Ok(findings) if findings.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("spotlake-lint: error: {msg}");
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        }
    }
}
