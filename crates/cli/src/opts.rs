//! A small, dependency-free option parser: `--key value` and `--flag`
//! pairs after a subcommand. Unknown keys are errors so typos don't
//! silently fall back to defaults.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus `--key [value]` options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Opts {
    map: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from option parsing and extraction.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum OptError {
    /// A token that is not `--key`.
    Unexpected(String),
    /// `--key` given without a value.
    MissingValue(String),
    /// A key the subcommand does not know.
    Unknown(String),
    /// A required key was absent.
    Required(String),
    /// A value failed to parse.
    Invalid { key: String, value: String },
    /// The same option appeared more than once.
    Duplicate(String),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Unexpected(t) => write!(f, "unexpected argument {t:?}"),
            OptError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            OptError::Unknown(k) => write!(f, "unknown option --{k}"),
            OptError::Required(k) => write!(f, "missing required option --{k}"),
            OptError::Invalid { key, value } => {
                write!(f, "invalid value {value:?} for --{key}")
            }
            OptError::Duplicate(k) => write!(f, "option --{k} given more than once"),
        }
    }
}

impl std::error::Error for OptError {}

impl Opts {
    /// Parse `args` (after the subcommand), accepting only `known` keys.
    /// Keys in `known` ending with `!` are boolean flags (no value).
    pub(crate) fn parse<I: IntoIterator<Item = String>>(
        args: I,
        known: &'static [&'static str],
    ) -> Result<Self, OptError> {
        let mut opts = Opts::default();
        let mut iter = args.into_iter().peekable();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(OptError::Unexpected(tok));
            };
            let is_flag = known.iter().any(|k| k.strip_suffix('!') == Some(key));
            if is_flag {
                if opts.flag(key) {
                    return Err(OptError::Duplicate(key.to_owned()));
                }
                opts.flags.push(key.to_owned());
            } else if known.contains(&key) {
                let value = iter
                    .next()
                    .ok_or_else(|| OptError::MissingValue(key.to_owned()))?;
                if opts.map.insert(key.to_owned(), value).is_some() {
                    return Err(OptError::Duplicate(key.to_owned()));
                }
            } else {
                return Err(OptError::Unknown(key.to_owned()));
            }
        }
        Ok(opts)
    }

    /// A string value.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    /// A required string value.
    pub(crate) fn require(&self, key: &str) -> Result<&str, OptError> {
        self.get(key)
            .ok_or_else(|| OptError::Required(key.to_owned()))
    }

    /// `true` when the boolean flag was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A parsed value with a default.
    pub(crate) fn parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, OptError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| OptError::Invalid {
                key: key.to_owned(),
                value: v.to_owned(),
            }),
        }
    }
}

/// Parse a byte count like `1048576`, `64K`, `16M`, or `2G` (binary
/// suffixes, case-insensitive). `None` on anything else.
pub(crate) fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const KNOWN: &[&str] = &["data", "min-support", "verbose!"];

    #[test]
    fn parses_values_and_flags() {
        let o = Opts::parse(args("--data x.nadb --verbose --min-support 0.01"), KNOWN).unwrap();
        assert_eq!(o.get("data"), Some("x.nadb"));
        assert!(o.flag("verbose"));
        assert!(!o.flag("quiet"));
        assert_eq!(o.parse_or::<f64>("min-support", 1.0).unwrap(), 0.01);
        assert_eq!(o.parse_or::<u64>("missing", 7).unwrap(), 7);
        assert_eq!(o.require("data").unwrap(), "x.nadb");
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert_eq!(
            Opts::parse(args("--nope 1"), KNOWN),
            Err(OptError::Unknown("nope".into()))
        );
        assert_eq!(
            Opts::parse(args("stray"), KNOWN),
            Err(OptError::Unexpected("stray".into()))
        );
        assert_eq!(
            Opts::parse(args("--data"), KNOWN),
            Err(OptError::MissingValue("data".into()))
        );
        let o = Opts::parse(args("--data x"), KNOWN).unwrap();
        assert_eq!(
            o.require("min-support"),
            Err(OptError::Required("min-support".into()))
        );
        assert!(matches!(
            o.parse_or::<f64>("data", 0.0),
            Err(OptError::Invalid { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_options() {
        // Last-wins would silently mine with 8 threads here; the contract
        // is a Usage error instead (exit 2 through `CliError`).
        assert_eq!(
            Opts::parse(args("--min-support 0.02 --min-support 0.08"), KNOWN),
            Err(OptError::Duplicate("min-support".into()))
        );
        assert_eq!(
            Opts::parse(args("--verbose --data x --verbose"), KNOWN),
            Err(OptError::Duplicate("verbose".into()))
        );
        assert!(OptError::Duplicate("threads".into())
            .to_string()
            .contains("--threads"));
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("64K"), Some(64 << 10));
        assert_eq!(parse_bytes("16m"), Some(16 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes("12X"), None);
        assert_eq!(parse_bytes("-1"), None);
    }

    #[test]
    fn error_messages_name_the_key() {
        assert!(OptError::Unknown("x".into()).to_string().contains("--x"));
        assert!(OptError::Required("y".into()).to_string().contains("--y"));
    }
}
