//! The front doors' command line — `csmt-sweep`, `csmt-study` and
//! `csmt-report` parse argv through [`Cli`] and refuse input from outside
//! the program through [`fail`]: a diagnosis and exit 2, never a panic or
//! a silent default.

use csmt_core::ArchKind;

/// Print `error: <msg>` and exit 2 — how a front door refuses input from
/// outside the program (a typo'd argument, an unknown name, an unreadable
/// or unwritable path).
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The Table-2 architecture called `name` (any case).
#[must_use]
pub fn arch_by_name(name: &str) -> Option<ArchKind> {
    ArchKind::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Refuse a run size no machine can simulate: the work scale must be
/// finite and positive (0 or NaN builds no stream, infinity never ends)
/// and the machine at least one chip. Every front door checks the sizes it
/// turns into runs here and [`fail`]s with the diagnosis.
///
/// # Errors
/// The diagnosis, naming the bad value.
pub fn check_size(scale: f64, chips: usize) -> Result<(), String> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale {scale} is not a finite number above 0"));
    }
    if chips == 0 {
        return Err("a machine needs at least 1 chip".to_string());
    }
    Ok(())
}

/// A front door's command line: positional arguments plus the `--flag
/// [value]` options it declares.
#[derive(Debug)]
pub struct Cli {
    /// `(argv index, text)` of each positional argument, in order.
    positional: Vec<(usize, String)>,
    /// Each flag given, with its value when it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parse argv against `flags`, each `(name, takes a value)`, and at
    /// most `max_args` positional arguments. `--help` / `-h` prints `usage`
    /// and exits 0; an undeclared flag, a missing value or a surplus
    /// argument [`fail`]s.
    #[must_use]
    pub fn parse(flags: &[(&str, bool)], max_args: usize, usage: &str) -> Cli {
        match Cli::from_args(std::env::args().skip(1), flags, max_args) {
            Ok(Some(cli)) => cli,
            Ok(None) => {
                print!("{usage}");
                std::process::exit(0)
            }
            Err(e) => fail(&e),
        }
    }

    /// [`parse`](Cli::parse) over `args` (argv without the program name):
    /// `Ok(None)` asks for the usage text.
    fn from_args(
        args: impl IntoIterator<Item = String>,
        flags: &[(&str, bool)],
        max_args: usize,
    ) -> Result<Option<Cli>, String> {
        let mut cli = Cli {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.into_iter().enumerate();
        while let Some((i, arg)) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with("--") {
                if cli.positional.len() == max_args {
                    return Err(format!(
                        "unexpected argument {} {arg:?} (see --help)",
                        i + 1
                    ));
                }
                cli.positional.push((i + 1, arg));
                continue;
            }
            let Some(&(_, takes_value)) = flags.iter().find(|(f, _)| *f == arg) else {
                return Err(format!("unknown flag {arg:?} (see --help)"));
            };
            let value = if takes_value {
                Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?.1)
            } else {
                None
            };
            cli.flags.push((arg, value));
        }
        Ok(Some(cli))
    }

    /// Positional argument `k` (0-based) as a `T`: absent means `default`;
    /// text that does not parse [`fail`]s with `parse_arg_or`'s
    /// diagnosis, which names its argv index.
    pub fn arg<T: std::str::FromStr>(&self, k: usize, default: T) -> T {
        let (n, text) = self
            .positional
            .get(k)
            .map_or((0, None), |(n, t)| (*n, Some(t.as_str())));
        parse_arg_or(n, text, default).unwrap_or_else(|e| fail(&e))
    }

    /// Whether the switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of the last `flag <value>` given, if any.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// `text` (argument `n`, if given) as a `T`: absent means `default`; a
/// value that does not parse is an error naming it, never the default —
/// `csmt-study fetch_policies O.1` must not quietly run at scale 0.5.
///
/// # Errors
/// The diagnosis [`Cli::arg`] prints, when `text` is not a valid `T`.
fn parse_arg_or<T: std::str::FromStr>(
    n: usize,
    text: Option<&str>,
    default: T,
) -> Result<T, String> {
    text.map_or(Ok(default), |s| {
        s.parse().map_err(|_| {
            format!(
                "argument {n} {s:?} is not a valid {}",
                std::any::type_name::<T>()
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Option<Cli>, String> {
        Cli::from_args(
            args.iter().map(ToString::to_string),
            &[("--out", true), ("--verify", false)],
            4,
        )
    }

    #[test]
    fn flags_mix_with_positionals_and_typos_are_errors() {
        let c = cli(&["SMT2", "--out", "/tmp/x", "mgrid", "--verify", "0.1"])
            .unwrap()
            .unwrap();
        assert_eq!(c.arg(0, String::new()), "SMT2");
        assert_eq!(c.arg(1, String::new()), "mgrid");
        assert_eq!(c.arg(2, 0.5), 0.1);
        assert_eq!(c.arg(3, 7usize), 7, "absent means the default");
        assert_eq!(c.value("--out"), Some("/tmp/x"));
        assert!(c.has("--verify"));
        // argv index of "0.1": the diagnosis must point at the real argument.
        assert_eq!(c.positional[2].0, 6);
        assert!(cli(&["--help"]).unwrap().is_none());
        assert_eq!(
            cli(&["--verfy"]).unwrap_err(),
            "unknown flag \"--verfy\" (see --help)"
        );
        assert_eq!(cli(&["--out"]).unwrap_err(), "--out needs a value");
        assert_eq!(
            cli(&["a", "b", "--verify", "c", "d", "e"]).unwrap_err(),
            "unexpected argument 6 \"e\" (see --help)",
            "a surplus argument is refused, not ignored"
        );
    }

    #[test]
    fn unparsable_argument_is_an_error_not_the_default() {
        assert_eq!(parse_arg_or(1, None, 0.5), Ok(0.5));
        assert_eq!(parse_arg_or(1, Some("0.1"), 0.5), Ok(0.1));
        assert_eq!(
            parse_arg_or(1, Some("O.1"), 0.5),
            Err("argument 1 \"O.1\" is not a valid f64".to_string())
        );
        assert!(parse_arg_or(3, Some("-1"), 1usize).is_err());
        assert_eq!(
            parse_arg_or(1, Some("vpenta"), String::new()),
            Ok("vpenta".into())
        );
    }

    #[test]
    fn sizes_no_machine_can_run_are_refused() {
        assert_eq!(check_size(0.1, 1), Ok(()));
        assert_eq!(check_size(2.0, 4), Ok(()));
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = check_size(scale, 1).unwrap_err();
            assert!(err.starts_with(&format!("scale {scale} ")), "{err}");
        }
        assert_eq!(
            check_size(0.1, 0).unwrap_err(),
            "a machine needs at least 1 chip"
        );
    }

    #[test]
    fn names_resolve_or_list_the_valid_ones() {
        assert_eq!(arch_by_name("smt2"), Some(ArchKind::Smt2));
        assert_eq!(arch_by_name("FA8"), Some(ArchKind::Fa8));
        assert_eq!(arch_by_name("FA3"), None);
    }
}
