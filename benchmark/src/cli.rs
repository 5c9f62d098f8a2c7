//! Command-line arguments shared by the two binaries.

use crate::workloads::{self, Params};
use std::path::PathBuf;

/// Arguments of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where result and trace files go; nothing is written when absent.
    pub out_dir: Option<PathBuf>,
}

pub const RUN_USAGE: &str =
    "--workload <name> [--seed <n>] [--seconds <s>] [--smoke] [--out-dir <dir>]";

/// The longest measuring time accepted, seconds.
const MAX_SECONDS: f64 = 60.0;

/// Parse `--workload <name> [--seed <n>] [--seconds <s>] [--smoke]
/// [--out-dir <dir>]`. Everything is checked here, so the workloads can
/// rely on it.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut smoke = false;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value("--out-dir")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
        return Err(format!(
            "--seconds must be above 0 and at most {MAX_SECONDS}, not {seconds}"
        ));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        smoke,
        out_dir,
    })
}

impl RunArgs {
    pub fn params(&self) -> Params {
        Params {
            seed: self.seed,
            seconds: self.seconds,
            smoke: self.smoke,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_harness_invocation() {
        let a = parse_run_args(&args("--workload mr_jobs --seed 7 --seconds 10")).unwrap();
        assert_eq!(a.workload, "mr_jobs");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(!a.smoke && a.out_dir.is_none());
    }

    #[test]
    fn refuses_what_it_cannot_run() {
        for bad in [
            "",
            "--workload nope",
            "--workload mr_jobs --seed x",
            "--workload mr_jobs --seconds 0",
            "--workload mr_jobs --seconds 61",
            "--workload mr_jobs --seconds nan",
            "--workload mr_jobs --frobnicate",
            "--workload",
        ] {
            assert!(
                parse_run_args(&args(bad)).is_err(),
                "{bad:?} should be refused"
            );
        }
    }
}
