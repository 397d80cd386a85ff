//! Command-line flag scanning shared by `repro` and `udse-inspect`.
//!
//! Each command declares the flags it accepts as a slice of [`Flag`]s;
//! [`Args::parse`] splits an argument list into switches, flag values,
//! and positionals against that declaration. Anything that starts with
//! `-` and is not declared is an error naming the flag, and so is a
//! value flag with no value after it, so a typo can never be mistaken
//! for a positional argument. `--help`/`-h` is accepted by every
//! command.
//!
//! # Examples
//!
//! ```
//! use udse_bench::cli::{Args, Flag};
//!
//! const FLAGS: &[Flag] = &[Flag::switch("--quick"), Flag::value("--jobs")];
//! let argv: Vec<String> = ["--quick", "--jobs", "2", "fig1"].map(String::from).to_vec();
//! let args = Args::parse(&argv, FLAGS).unwrap();
//! assert!(args.has("--quick"));
//! assert_eq!(args.value("--jobs"), Some("2"));
//! assert_eq!(args.positional, ["fig1"]);
//!
//! let typo: Vec<String> = ["--jbos", "2"].map(String::from).to_vec();
//! assert_eq!(Args::parse(&typo, FLAGS).unwrap_err(), "unknown flag `--jbos`");
//! ```

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    takes_value: bool,
}

impl Flag {
    /// A flag that stands alone (`--quick`).
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, alias: None, takes_value: false }
    }

    /// A flag that consumes the next argument (`--jobs 2`). It may be
    /// repeated; [`Args::values`] returns every occurrence.
    pub const fn value(name: &'static str) -> Flag {
        Flag { name, alias: None, takes_value: true }
    }

    /// A second spelling of the same flag (`-v` for `--verbose`); lookups
    /// use the primary name.
    pub const fn or(self, alias: &'static str) -> Flag {
        Flag { alias: Some(alias), ..self }
    }
}

const HELP: Flag = Flag::switch("--help").or("-h");

/// An argument list scanned against a command's declared flags.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    /// Arguments that are not flags or flag values, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Scans `args` against `flags`.
    ///
    /// # Errors
    ///
    /// Names the first undeclared flag, or the first value flag with no
    /// value after it (a following argument that starts with `--` does
    /// not count as a value).
    pub fn parse(args: &[String], flags: &[Flag]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') || arg == "-" {
                out.positional.push(arg.clone());
                continue;
            }
            let Some(flag) = flags
                .iter()
                .chain([&HELP])
                .find(|f| f.name == arg.as_str() || f.alias == Some(arg.as_str()))
            else {
                return Err(format!("unknown flag `{arg}`"));
            };
            if !flag.takes_value {
                out.switches.push(flag.name);
                continue;
            }
            match rest.next() {
                Some(v) if !v.starts_with("--") => out.values.push((flag.name, v.clone())),
                _ => return Err(format!("flag `{arg}` expects a value")),
            }
        }
        Ok(out)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Whether `--help` or `-h` was given.
    pub fn help(&self) -> bool {
        self.has(HELP.name)
    }

    /// The value of the last occurrence of flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The values of every occurrence of flag `name`, in order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::switch("--quick"),
        Flag::switch("--verbose").or("-v"),
        Flag::value("--manifest"),
        Flag::value("--tol-gauge"),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(&args, FLAGS)
    }

    #[test]
    fn splits_switches_values_and_positionals() {
        let a = parse(&["fig1", "-v", "--manifest", "m.json", "--quick", "fig2"]).unwrap();
        assert!(a.has("--quick") && a.has("--verbose") && !a.help());
        assert_eq!(a.value("--manifest"), Some("m.json"));
        assert_eq!(a.value("--tol-gauge"), None);
        assert_eq!(a.positional, ["fig1", "fig2"]);
        // Query JSON and a lone `-` are positionals, not flags.
        let a = parse(&["{\"query_version\":1}", "-"]).unwrap();
        assert_eq!(a.positional.len(), 2);
        assert!(parse(&["-h"]).unwrap().help());
    }

    #[test]
    fn repeated_value_flags_keep_every_occurrence() {
        let a = parse(&["--tol-gauge", "a:1", "--tol-gauge", "b:2"]).unwrap();
        assert_eq!(a.values("--tol-gauge").collect::<Vec<_>>(), ["a:1", "b:2"]);
        assert_eq!(a.value("--tol-gauge"), Some("b:2"));
    }

    #[test]
    fn unknown_flags_and_missing_values_name_the_flag() {
        assert_eq!(parse(&["--jbos", "2"]).unwrap_err(), "unknown flag `--jbos`");
        assert_eq!(parse(&["--manifest"]).unwrap_err(), "flag `--manifest` expects a value");
        assert_eq!(
            parse(&["--manifest", "--quick"]).unwrap_err(),
            "flag `--manifest` expects a value"
        );
        assert_eq!(parse(&["--manifest=m.json"]).unwrap_err(), "unknown flag `--manifest=m.json`");
    }
}
