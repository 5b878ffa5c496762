#![warn(missing_docs)]
//! Command-line plumbing shared by the `chaos`, `service`, `sweep` and
//! `tables` binaries: one flag iterator, so a missing value, an unparsable
//! value, an unknown label and an unknown flag all end the same way — the
//! binary's usage text on stderr and exit status 2.
//!
//! Timings are not taken here: the repo's one measurement system is
//! `benchmark/` (see `benchmark/README.md`).

use std::str::FromStr;

/// The arguments of one invocation, consumed front to back.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: fn() -> !,
}

impl Flags {
    /// Wraps `args` (without the program name); `usage` prints the binary's
    /// usage text and exits with status 2.
    pub fn new(args: Vec<String>, usage: fn() -> !) -> Self {
        Flags {
            args: args.into_iter(),
            usage,
        }
    }

    /// The process's own arguments.
    pub fn from_env(usage: fn() -> !) -> Self {
        Flags::new(std::env::args().skip(1).collect(), usage)
    }

    /// The next argument — a flag or a positional — or `None` at the end.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`, parsed as `T` (use `String` for paths).
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        self.label(flag, |v| v.parse().ok())
    }

    /// The value following `flag`, looked up by `parse` (a label table such
    /// as `Algorithm::parse`); a label `parse` does not know is a usage
    /// error, never a silent default.
    pub fn label<T>(&mut self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
        let Some(raw) = self.args.next() else {
            eprintln!("{flag} needs a value");
            (self.usage)()
        };
        parse(&raw).unwrap_or_else(|| {
            eprintln!("{flag}: bad value {raw:?}");
            (self.usage)()
        })
    }

    /// Rejects `arg`, which the binary does not know.
    pub fn unknown(&self, arg: &str) -> ! {
        eprintln!("unknown argument {arg:?}");
        (self.usage)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_usage() -> ! {
        panic!("usage requested")
    }

    #[test]
    fn values_and_labels_are_consumed_in_order() {
        let raw = ["--seed", "7", "--out", "a b.json", "--mode", "fast", "t1"];
        let mut flags = Flags::new(raw.map(String::from).to_vec(), no_usage);
        assert_eq!(flags.next_arg().as_deref(), Some("--seed"));
        assert_eq!(flags.value::<u64>("--seed"), 7);
        assert_eq!(flags.next_arg().as_deref(), Some("--out"));
        assert_eq!(flags.value::<String>("--out"), "a b.json");
        assert_eq!(flags.next_arg().as_deref(), Some("--mode"));
        let fast = flags.label("--mode", |l| (l == "fast").then_some(1u8));
        assert_eq!(fast, 1);
        assert_eq!(flags.next_arg().as_deref(), Some("t1"));
        assert_eq!(flags.next_arg(), None);
    }
}
