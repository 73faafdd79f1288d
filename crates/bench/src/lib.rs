//! The benchmark harness binaries and what they share.
//!
//! Every table and figure of the paper has a binary in `src/bin/`
//! (`table1` … `table6`, `figure2`), and `all_tables` prints them all;
//! each output has one implementation, in [`tables`]. Beside them sit
//! calibration (`suite_stats`) and ablation (`ablation_*`) tools. This
//! library holds argument parsing (including the common `--threads` and
//! `--cache-dir` flags), the content-addressed on-disk store
//! (`ndetect-store`) those flags open, and the [`tables`] module with
//! its per-run [`tables::Context`].

pub mod tables;

use ndetect_faults::UniverseOptions;
use ndetect_store::Store;

/// A parsed `--key value` command line.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args` of the form `--key value`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        Self::from_vec(raw)
    }

    /// Parses an explicit argument vector (testable core of
    /// [`Self::parse`]).
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments.
    #[must_use]
    pub fn from_vec(raw: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut it = raw.into_iter();
        while let Some(key) = it.next() {
            let Some(stripped) = key.strip_prefix("--") else {
                panic!("expected --key value pairs, got `{key}`");
            };
            let value = it
                .next()
                .unwrap_or_else(|| panic!("missing value for --{stripped}"));
            pairs.push((stripped.to_string(), value));
        }
        Args { pairs }
    }

    /// The raw string value of a key, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A parsed value with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("bad value for --{key}: {e:?}")),
            None => default,
        }
    }

    /// Comma-separated circuit list (`--circuits a,b,c`), or `None` for
    /// the full suite.
    #[must_use]
    pub fn circuits(&self) -> Option<Vec<String>> {
        self.get("circuits")
            .map(|v| v.split(',').map(str::to_string).collect())
    }

    /// Worker threads for fault simulation (`--threads N`); `0` (the
    /// default) means auto: the `NDETECT_THREADS` environment variable,
    /// then the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.get_or("threads", 0)
    }

    /// The on-disk artifact cache directory: `--cache-dir DIR`, falling
    /// back to the `NDETECT_CACHE_DIR` environment variable. `None`
    /// (no flag, no variable) disables the disk cache.
    #[must_use]
    pub fn cache_dir(&self) -> Option<String> {
        self.get("cache-dir")
            .map(str::to_string)
            .or_else(|| std::env::var("NDETECT_CACHE_DIR").ok())
            .filter(|d| !d.is_empty())
    }

    /// The universe options selected by the common performance flag
    /// (`--threads`), defaults otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the flag's value does not parse.
    #[must_use]
    pub fn universe_options(&self) -> UniverseOptions {
        UniverseOptions::with_threads(self.threads())
    }
}

/// Opens the content-addressed artifact store selected by `--cache-dir`
/// / `NDETECT_CACHE_DIR`, or `None` when no cache directory is
/// configured.
///
/// # Panics
///
/// Panics if the configured directory cannot be created.
#[must_use]
pub fn open_store(args: &Args) -> Option<Store> {
    args.cache_dir().map(|dir| {
        Store::open(&dir).unwrap_or_else(|e| panic!("cannot open cache dir `{dir}`: {e}"))
    })
}

/// The circuits to process: the `--circuits` selection or the full
/// suite, in table order.
#[must_use]
pub fn selected_circuits(args: &Args) -> Vec<String> {
    match args.circuits() {
        Some(list) => list,
        None => ndetect_circuits::suite()
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_lookup() {
        let args = Args::from_vec(vec![
            "--k".into(),
            "100".into(),
            "--circuits".into(),
            "lion,keyb".into(),
        ]);
        assert_eq!(args.get_or("k", 5usize), 100);
        assert_eq!(args.get_or("nmax", 10u32), 10);
        assert_eq!(
            args.circuits().unwrap(),
            vec!["lion".to_string(), "keyb".to_string()]
        );
        assert!(args.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "expected --key value")]
    fn rejects_positional_arguments() {
        let _ = Args::from_vec(vec!["oops".into()]);
    }

    #[test]
    fn cache_dir_flag_wins_over_nothing() {
        let args = Args::from_vec(vec!["--cache-dir".into(), "/tmp/ndet-cache".into()]);
        assert_eq!(args.cache_dir().as_deref(), Some("/tmp/ndet-cache"));
    }
}
