//! Argument parsing for the `harness` binary.
//!
//! Hand-rolled (the workspace vendors no CLI crate) but strict: unknown
//! flags are an error, not a silent no-op, so a typo like `--qiuck` fails
//! loudly instead of quietly running the full suite.

use std::path::PathBuf;

/// Usage text printed by `--help` and on parse errors.
pub const USAGE: &str = "\
usage: harness [OPTIONS]

Runs the TACOMA experiment suite (E1-E20 + ablations) and prints one table
per experiment. All experiments are deterministic per seed.

options:
  --quick              fast smoke configuration (default is the full sweep)
  --jobs <n>           worker threads for the parallel runner (default: 1)
  --filter <ids>       comma-separated experiment ids to run, e.g. E1,E7,A3
  --json <path>        write a machine-readable report set to <path>
  --compare <path>     diff this run against a baseline report; exit 1 on
                       any metric drifting past its tolerance
  --list               list experiment ids and exit
  --help               show this help and exit
";

/// Parsed harness options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HarnessArgs {
    /// Run the quick configurations.
    pub quick: bool,
    /// Worker threads (0 means "not given", treated as 1).
    pub jobs: usize,
    /// Experiment ids to run; empty means all.
    pub filter: Vec<String>,
    /// Where to write the JSON report set, if anywhere.
    pub json: Option<PathBuf>,
    /// Baseline report to compare against, if any.
    pub compare: Option<PathBuf>,
    /// Print the experiment list and exit.
    pub list: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl HarnessArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// Both `--flag value` and `--flag=value` spellings are accepted.
    pub fn parse<I, S>(raw: I) -> Result<HarnessArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        fn take_value(
            flag: &str,
            inline: &Option<String>,
            iter: &mut impl Iterator<Item = String>,
        ) -> Result<String, String> {
            if let Some(v) = inline {
                return Ok(v.clone());
            }
            match iter.next() {
                // A following flag is a missing value, not a value: otherwise
                // `--json --quick` would eat `--quick` as the output path and
                // silently run the full suite (use `--json=--odd` to force a
                // value that starts with dashes).
                Some(v) if !v.starts_with("--") => Ok(v),
                Some(v) => Err(format!("{flag} requires a value, found flag '{v}'")),
                None => Err(format!("{flag} requires a value")),
            }
        }

        let mut args = HarnessArgs::default();
        let mut iter = raw.into_iter().map(Into::into);
        while let Some(arg) = iter.next() {
            let (flag, inline_value) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--list" => args.list = true,
                "--help" | "-h" => args.help = true,
                "--jobs" => {
                    let v = take_value(&flag, &inline_value, &mut iter)?;
                    args.jobs =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got '{v}'")
                        })?;
                }
                "--filter" => {
                    let v = take_value(&flag, &inline_value, &mut iter)?;
                    args.filter.extend(
                        v.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    );
                    if args.filter.is_empty() {
                        return Err(
                            "--filter expects a comma-separated list of experiment ids".into()
                        );
                    }
                }
                "--json" => {
                    args.json = Some(PathBuf::from(take_value(&flag, &inline_value, &mut iter)?))
                }
                "--compare" => {
                    args.compare = Some(PathBuf::from(take_value(&flag, &inline_value, &mut iter)?))
                }
                other => {
                    return Err(format!("unknown flag '{other}' (see --help)"));
                }
            }
            // A flag that takes no value must not have been given one inline.
            if matches!(flag.as_str(), "--quick" | "--list" | "--help" | "-h")
                && inline_value.is_some()
            {
                return Err(format!("{flag} takes no value"));
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_sequential_run() {
        let args = HarnessArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args, HarnessArgs::default());
        assert!(!args.quick);
        assert!(args.filter.is_empty());
    }

    #[test]
    fn parses_every_flag_in_both_spellings() {
        let args = HarnessArgs::parse([
            "--quick",
            "--jobs",
            "8",
            "--filter=E1,E7",
            "--json",
            "out.json",
            "--compare=BENCH_baseline.json",
        ])
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.jobs, 8);
        assert_eq!(args.filter, ["E1", "E7"]);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(
            args.compare.as_deref(),
            Some(std::path::Path::new("BENCH_baseline.json"))
        );
    }

    #[test]
    fn rejects_typos_instead_of_ignoring_them() {
        let err = HarnessArgs::parse(["--qiuck"]).unwrap_err();
        assert!(err.contains("--qiuck"), "got: {err}");
        assert!(
            HarnessArgs::parse(["quick"]).is_err(),
            "bare words are rejected too"
        );
    }

    #[test]
    fn rejects_missing_or_bad_values() {
        assert!(HarnessArgs::parse(["--jobs"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(HarnessArgs::parse(["--jobs", "zero"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(HarnessArgs::parse(["--jobs=0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(HarnessArgs::parse(["--filter="])
            .unwrap_err()
            .contains("comma-separated"));
        assert!(HarnessArgs::parse(["--quick=yes"])
            .unwrap_err()
            .contains("takes no value"));
    }

    #[test]
    fn a_following_flag_is_not_a_value() {
        let err = HarnessArgs::parse(["--json", "--quick"]).unwrap_err();
        assert!(err.contains("requires a value"), "got: {err}");
        // The inline spelling can still force a dashed value.
        let args = HarnessArgs::parse(["--json=--odd", "--quick"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("--odd")));
    }

    #[test]
    fn filter_accumulates_across_repeats() {
        let args = HarnessArgs::parse(["--filter", "E1", "--filter", "E2, E3"]).unwrap();
        assert_eq!(args.filter, ["E1", "E2", "E3"]);
    }
}
