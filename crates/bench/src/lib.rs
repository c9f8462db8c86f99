//! Shared harness for the table/figure binaries and Criterion benches.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation artefacts:
//!
//! | Binary    | Artefact | Content |
//! |-----------|----------|---------|
//! | `table1`  | Table 1  | per circuit × TPG: `#Triplets` and `Test Length`, set covering vs. GATSBY-GA |
//! | `table2`  | Table 2  | per circuit: initial matrix size; per TPG: residual size, #necessary, #solver triplets |
//! | `figure2` | Figure 2 | τ sweep on s1238/adder: triplets vs. test length |
//!
//! Each binary reads its command line through [`main`], with
//! [`reseed_core::args`] against its own small option table: the flags
//! here that several binaries share, plus its own. See `EXPERIMENTS.md`
//! for the recorded runs.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fbist_genbench::{generate, paper_suite, profile, CircuitProfile};
use fbist_netlist::Netlist;
use reseed_core::args::{self, Args, Opt, Table};

/// Default scale factor for the synthetic mimics used by the committed
/// experiment tables (kept modest so the whole suite runs in minutes).
pub const DEFAULT_SCALE: f64 = 0.15;

const ALL: &[&str] = &["table1", "table2", "figure2"];
const TABLES: &[&str] = &["table1", "table2"];

pub const JOBS: Opt = Opt::value("--jobs", "N", ALL, "worker threads (0 = auto)");
pub const SCALE: Opt = Opt::value("--scale", "F", ALL, "default 0.15; figure2: 0.35");
pub const SEED: Opt = Opt::value("--seed", "N", ALL, "generation and flow seed (default 1)");
pub const CIRCUITS: Opt = Opt::value("--circuits", "LIST", TABLES, "profiles (default: all 16)");
pub const TAU: Opt = Opt::value("--tau", "N", TABLES, "evolution length τ (default 31)");

/// Runs a paper-artefact binary: parses the process's arguments against
/// `table`, whose one command is the binary's name, installs [`JOBS`]
/// (which changes wall-clock time only, never results) and runs `body`.
/// A malformed line or an error from `body` is printed with the usage and
/// exits with status 1, so a typo never benchmarks the wrong
/// configuration.
pub fn main(table: &Table, body: fn(&Args) -> Result<(), String>) -> ExitCode {
    let (cmd, _) = table.commands[0];
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let run = |args: Args| {
        if let Some(v) = args.value(&JOBS) {
            mini_rayon::set_jobs(mini_rayon::parse_jobs(v)?);
        }
        body(&args)
    };
    match args::parse(cmd, &tokens, table).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let usage = table.synopsis("") + &table.flags();
            eprintln!("{cmd}: {e}\n\nusage:\n{usage}");
            ExitCode::FAILURE
        }
    }
}

/// The circuit selection for a harness run.
pub struct Suite {
    /// Profiles to run, already scaled.
    pub profiles: Vec<CircuitProfile>,
    /// Scale factor applied.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
}

/// Builds the circuit suite from [`SCALE`], [`SEED`] and [`CIRCUITS`]
/// (default: the full 16-circuit paper suite); an unknown profile name is
/// an error.
pub fn suite_from_args(args: &Args) -> Result<Suite, String> {
    let scale: f64 = args.num(&SCALE, DEFAULT_SCALE)?;
    let seed: u64 = args.num(&SEED, 1)?;
    let profiles = match args.value(&CIRCUITS) {
        Some(list) => list
            .split(',')
            .map(|n| profile(n.trim()).ok_or_else(|| format!("unknown profile {n:?}")))
            .collect::<Result<Vec<_>, _>>()?,
        None => paper_suite(),
    };
    Ok(Suite {
        profiles: profiles.iter().map(|p| p.scaled(scale)).collect(),
        scale,
        seed,
    })
}

/// Generates the (full-scan combinational) netlist for a scaled profile.
pub fn build_circuit(p: &CircuitProfile, seed: u64) -> Netlist {
    generate(p, seed)
}

/// Strips a `@scale` suffix for display.
pub fn display_name(p: &CircuitProfile) -> &str {
    p.name.split('@').next().unwrap_or(&p.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Table = Table {
        commands: &[("table1", &[])],
        opts: &[SCALE, SEED, CIRCUITS],
    };

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        args::parse("table1", &tokens, &TABLE)
    }

    #[test]
    fn default_suite_is_paper_suite() {
        let s = suite_from_args(&parse(&[]).unwrap()).unwrap();
        assert_eq!(s.profiles.len(), 16);
        assert!(s.profiles[0].name.starts_with("c499"));
    }

    #[test]
    fn circuit_restriction() {
        let s = suite_from_args(&parse(&["--circuits", "c499,s1238"]).unwrap()).unwrap();
        assert_eq!(s.profiles.len(), 2);
        let err = suite_from_args(&parse(&["--circuits", "c499,bogus"]).unwrap());
        assert!(err.is_err_and(|e| e.contains("\"bogus\"")));
    }

    #[test]
    fn flags_parse() {
        let args = parse(&["--scale", "0.5"]).unwrap();
        assert_eq!(args.num(&SCALE, 1.0), Ok(0.5));
        assert_eq!(args.num(&SEED, 7u64), Ok(7));
        // a bad value is an error, never the default
        let args = parse(&["--scale", "abc", "--seed", "-1"]).unwrap();
        assert!(args.num(&SCALE, 1.0).is_err_and(|e| e.contains("--scale")));
        assert!(args.num(&SEED, 7u64).is_err_and(|e| e.contains("--seed")));
        assert!(parse(&["--bogus", "1"]).is_err_and(|e| e.contains("--bogus")));
    }

    #[test]
    fn display_strips_scale() {
        let p = profile("c499").unwrap().scaled(0.5);
        assert_eq!(display_name(&p), "c499");
    }
}
