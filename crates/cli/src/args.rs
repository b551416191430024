//! Minimal `--flag value` argument parsing (no external dependencies).

use std::cell::Cell;
use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    /// Each flag's value, and whether the subcommand has consulted it.
    flags: HashMap<String, (String, Cell<bool>)>,
}

impl Args {
    /// Parses `args` (excluding the program name).
    ///
    /// A flag followed by another `--flag` (or by nothing) is treated as a
    /// boolean switch and stored as `"true"`, so `--resume` works without
    /// a value.
    ///
    /// # Errors
    ///
    /// Returns a message if no subcommand is present or an argument is not
    /// a flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut it = args.iter().peekable();
        let command = it.next().ok_or("missing subcommand")?.clone();
        let mut flags = HashMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got `{key}`"));
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), (value, Cell::new(false)));
        }
        Ok(Args { command, flags })
    }

    /// The flag's value if it was given; marks it consulted. Every accessor
    /// reads through here, which is what [`Args::reject_unread`] reports on.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|(value, read)| {
            read.set(true);
            value.as_str()
        })
    }

    /// String flag with a default.
    pub fn get(&self, name: &str, default: &str) -> String {
        self.opt(name).unwrap_or(default).to_string()
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<String, String> {
        self.opt(name)
            .map(str::to_string)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }

    /// Whether a flag was provided at all.
    pub fn has(&self, name: &str) -> bool {
        self.opt(name).is_some()
    }

    /// Fails on any flag given that no accessor has consulted. A subcommand
    /// calls it once it has read everything it reads and before it starts
    /// work, so a misspelt flag stops the run instead of being ignored.
    ///
    /// # Errors
    ///
    /// `unknown flag --x for <cmd>`, one line per flag.
    pub fn reject_unread(&self) -> Result<(), String> {
        let mut unread: Vec<String> = self
            .flags
            .iter()
            .filter(|(_, (_, read))| !read.get())
            .map(|(name, _)| {
                let why = if name == "numerics" {
                    ": there is no numerics mode any more, the relaxed tier is the INT8 \
                     backend (generate/serve --int8-decode)"
                } else {
                    " (not one of its flags, or not read with the other flags given)"
                };
                format!("unknown flag --{name} for {}{why}", self.command)
            })
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort_unstable();
        Err(unread.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&strs(&["pretrain", "--steps", "100", "--lr", "0.01"])).unwrap();
        assert_eq!(a.command, "pretrain");
        assert_eq!(a.get_num::<usize>("steps", 0).unwrap(), 100);
        assert_eq!(a.get_num::<f32>("lr", 0.0).unwrap(), 0.01);
        assert_eq!(a.get("model", "tiny-60m"), "tiny-60m");
        // Both flags were consulted; a default for an absent one is not a read.
        assert_eq!(a.reject_unread(), Ok(()));
        // The shown bug: `--stepz` is a typo nothing reads.
        let typo = Args::parse(&strs(&["pretrain", "--stepz", "3", "--steps", "2"])).unwrap();
        assert_eq!(typo.get_num::<usize>("steps", 0).unwrap(), 2);
        let err = typo.reject_unread().unwrap_err();
        assert!(
            err.starts_with("unknown flag --stepz for pretrain"),
            "{err}"
        );
        assert!(!err.contains("--steps "), "{err}");
    }

    #[test]
    fn valueless_flags_parse_as_boolean_switches() {
        let a = Args::parse(&strs(&["pretrain", "--resume", "--steps", "10"])).unwrap();
        assert!(a.has("resume"));
        assert_eq!(a.get("resume", "false"), "true");
        assert_eq!(a.get_num::<usize>("steps", 0).unwrap(), 10);
        let b = Args::parse(&strs(&["pretrain", "--resume"])).unwrap();
        assert!(b.has("resume"));
        assert_eq!(b.reject_unread(), Ok(()));
        // A switch nobody asks about is as unknown as a valued flag, and
        // the removed mode flag says where its tier went.
        let removed = ["--", "numerics"].concat();
        let c = Args::parse(&strs(&["generate", &removed, "fast", "--resum"])).unwrap();
        let err = c.reject_unread().unwrap_err();
        let (first, second) = err.split_once('\n').expect("one line per flag");
        assert!(first.starts_with(&format!("unknown flag {removed} for generate")));
        assert!(first.contains("--int8-decode"), "{first}");
        assert!(
            second.starts_with("unknown flag --resum for generate"),
            "{second}"
        );
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(&strs(&["x", "--lr", "-0.5"])).unwrap();
        assert_eq!(a.get_num::<f32>("lr", 0.0).unwrap(), -0.5);
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse(&strs(&["x", "--steps", "abc"])).unwrap();
        assert!(a.get_num::<usize>("steps", 0).is_err());
    }

    #[test]
    fn require_reports_missing_flags() {
        let a = Args::parse(&strs(&["x"])).unwrap();
        assert!(a.require("checkpoint").is_err());
        assert_eq!(a.reject_unread(), Ok(()));
    }
}
