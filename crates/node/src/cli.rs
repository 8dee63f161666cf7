//! The one command-line parser: `waku-node` and every `exp_*` binary of
//! `waku-bench` parse their arguments against their usage line here.

use std::str::FromStr;

/// A command line a binary cannot run, or (in `waku-bench`) a report it
/// cannot write: the message the binary prints before it exits.
#[derive(Debug, PartialEq)]
pub struct Fatal(pub String);

/// A binary's command line, parsed against its usage line.
///
/// The usage line is the grammar: `[--name X]` is a flag that takes a
/// value, `[--name]` (or `[-n]`) a bare switch, and any other
/// `[word ...]` group admits positional arguments.
#[derive(Debug, Default)]
pub struct Cli {
    usage: &'static str,
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Cli {
    /// Parses `args` (without the program name). An argument the usage
    /// line does not name, or a valued flag at the end of the line, is a
    /// usage error.
    pub fn parse(
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, Fatal> {
        let mut cli = Cli {
            usage,
            ..Cli::default()
        };
        let tokens: Vec<&str> = usage.split_whitespace().collect();
        let declared = |token: String| tokens.contains(&token.as_str());
        let takes_positional = tokens
            .iter()
            .any(|token| token.starts_with('[') && !token.starts_with("[-"));
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = arg.starts_with('-');
            if flag && declared(format!("[{arg}]")) {
                cli.switches.push(arg);
            } else if flag && declared(format!("[{arg}")) {
                match args.next() {
                    Some(value) => cli.values.push((arg, value)),
                    None => return Err(cli.error(&format!("{arg} needs a value"))),
                }
            } else if !flag && takes_positional {
                cli.positional.push(arg);
            } else {
                return Err(cli.error(&format!("unknown argument {arg:?}")));
            }
        }
        Ok(cli)
    }

    /// Parses the process's own arguments against `usage`.
    pub fn from_env(usage: &'static str) -> Result<Cli, Fatal> {
        Cli::parse(usage, std::env::args().skip(1))
    }

    /// A usage error: `problem`, then the usage line.
    pub fn error(&self, problem: &str) -> Fatal {
        Fatal(format!("{problem}\nusage: {}", self.usage))
    }

    /// The raw value of `flag` (the last one, if repeated).
    pub fn raw(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value of `flag`, if given, parsed as a `T` that `accept`
    /// takes; anything else is a usage error saying the flag `needs`.
    pub fn value<T: FromStr>(
        &self,
        flag: &str,
        needs: &str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, Fatal> {
        self.raw(flag)
            .map(|raw| self.parse_as(raw, &accept, format!("{flag} needs {needs}, not {raw:?}")))
            .transpose()
    }

    /// Whether the bare switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The positional arguments, each parsed as a `T` that `accept` takes.
    pub fn positional<T: FromStr>(&self, accept: impl Fn(&T) -> bool) -> Result<Vec<T>, Fatal> {
        self.positional
            .iter()
            .map(|raw| self.parse_as(raw, &accept, format!("unknown argument {raw:?}")))
            .collect()
    }

    fn parse_as<T: FromStr>(
        &self,
        raw: &str,
        accept: impl Fn(&T) -> bool,
        problem: String,
    ) -> Result<T, Fatal> {
        raw.parse()
            .ok()
            .filter(accept)
            .ok_or_else(|| self.error(&problem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULT_USAGE: &str =
        "exp_fault_sweep [--peers N] [--duration-ms MS] [--json PATH] [--prom PATH]";
    const SOAK_USAGE: &str = "exp_soak [--sim-hours N] [--no-restart] [--json PATH] [--prom PATH]";
    const STEADY_USAGE: &str = "exp_steady_state [epochs ...] [--json PATH] [--prom PATH]";

    fn parse(usage: &'static str, args: &[&str]) -> Result<Cli, Fatal> {
        Cli::parse(usage, args.iter().map(|a| a.to_string()))
    }

    fn usage_error(problem: &str, usage: &str) -> Fatal {
        Fatal(format!("{problem}\nusage: {usage}"))
    }

    #[test]
    fn unknown_flag_missing_value_and_bad_number_are_usage_errors() {
        assert_eq!(
            parse(FAULT_USAGE, &["--peer", "30"]).unwrap_err(),
            usage_error("unknown argument \"--peer\"", FAULT_USAGE)
        );
        assert_eq!(
            parse(FAULT_USAGE, &["--peers", "30", "--json"]).unwrap_err(),
            usage_error("--json needs a value", FAULT_USAGE)
        );
        let cli = parse(FAULT_USAGE, &["--peers", "3O"]).unwrap();
        assert_eq!(
            cli.value::<usize>("--peers", "a count ≥ 20", |&n| n >= 20)
                .unwrap_err(),
            usage_error("--peers needs a count ≥ 20, not \"3O\"", FAULT_USAGE)
        );
        // In range is the other half of the same check.
        let cli = parse(FAULT_USAGE, &["--peers", "19"]).unwrap();
        assert!(cli.value::<usize>("--peers", "", |&n| n >= 20).is_err());
        // A bare word is positional only where the usage line says so.
        assert!(parse(FAULT_USAGE, &["50"]).is_err());
        assert_eq!(
            parse(STEADY_USAGE, &["50", "x"])
                .unwrap()
                .positional::<u64>(|&n| n > 0)
                .unwrap_err(),
            usage_error("unknown argument \"x\"", STEADY_USAGE)
        );
        // A leading dash is never positional.
        assert_eq!(
            parse(STEADY_USAGE, &["-5"]).unwrap_err(),
            usage_error("unknown argument \"-5\"", STEADY_USAGE)
        );
    }

    #[test]
    fn values_switches_and_positionals_parse() {
        let cli = parse(FAULT_USAGE, &["--peers", "30", "--peers", "40"]).unwrap();
        assert_eq!(cli.value("--peers", "", |_: &usize| true), Ok(Some(40)));
        assert_eq!(cli.value("--duration-ms", "", |_: &u64| true), Ok(None));
        let cli = parse(SOAK_USAGE, &["--no-restart", "--sim-hours", "2"]).unwrap();
        assert!(cli.switch("--no-restart"));
        assert_eq!(cli.value("--sim-hours", "", |_: &u64| true), Ok(Some(2)));
        // A switch takes no value: the next word is an argument of its own.
        assert!(parse(SOAK_USAGE, &["--no-restart", "2"]).is_err());
        let cli = parse(STEADY_USAGE, &["50", "--json", "x.json", "200"]).unwrap();
        assert_eq!(cli.positional(|&n: &u64| n > 0), Ok(vec![50, 200]));
        // A one-dash switch is a switch like any other.
        assert!(parse("waku-node [-h] [--help]", &["-h"])
            .unwrap()
            .switch("-h"));
    }
}
