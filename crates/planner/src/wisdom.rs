//! Serializable planning wisdom: measured rankings remembered across
//! processes, so the autotuning cost is paid once per machine.
//!
//! The cache is keyed by [`WisdomKey`] — `(n, direction, strategy,
//! backend-set hash)` — and stores the full best-first ranking plus a
//! freshness stamp.
//!
//! # The `afft wisdom v1` line format
//!
//! The on-disk format is line-oriented text with no dependencies. A
//! file starts with the [`WISDOM_HEADER`] magic line (`# afft wisdom
//! v1`) and carries one plan per line; `#` comment lines and blank
//! lines are ignored:
//!
//! ```text
//! # afft wisdom v1
//! plan n=256 dir=fwd strategy=measure backends=00f09a3d5c77b121 stamp=17 rank=radix2_dit:8123.000,array_fft:9960.500
//! ```
//!
//! Each line is whitespace-separated `key=value` fields after the
//! `plan` keyword, in any order:
//!
//! * `n` — transform size (decimal);
//! * `dir` — `fwd` or `inv`;
//! * `strategy` — `estimate` or `measure` ([`Strategy::as_str`]);
//! * `backends` — the 16-digit lowercase-hex [`backend_set_hash`] of
//!   the registry the ranking covers;
//! * `stamp` — freshness in seconds since the Unix epoch (higher wins
//!   on [`Wisdom::merge`]);
//! * `rank` — comma-separated `engine:score_ns` pairs, best first.
//!   Engine names must be snake_case identifiers and scores finite,
//!   non-negative decimals;
//! * any *other* key is forward-compatible noise and is ignored.
//!
//! Unparsable lines (missing fields, malformed numbers, invalid engine
//! names, empty rankings) are *skipped and counted*, never fatal: a
//! corrupt wisdom file degrades toward an empty cache, and entries
//! recorded against a different backend set simply never match their
//! key, so changing the registry invalidates stale wisdom by
//! construction.
//!
//! ```
//! use afft_planner::Wisdom;
//!
//! // (A line beginning with `# ` inside a doctest would be taken for
//! // a rustdoc hidden-code marker, so the header is spelled `\x23`.)
//! let text = "\x23 afft wisdom v1\n\
//!     plan n=256 dir=fwd strategy=measure backends=00f09a3d5c77b121 stamp=17 rank=radix2_dit:8123.000,array_fft:9960.500\n\
//!     plan n=128 dir=fwd strategy=measure rank=radix2_dit:nonsense\n";
//! let wisdom = Wisdom::parse(text);
//! assert_eq!(wisdom.len(), 1);           // the valid plan line
//! assert_eq!(wisdom.rejected_lines(), 1); // the corrupt one, skipped
//! // Round trip: serialize renders the same line format back.
//! assert!(wisdom.serialize().starts_with("# afft wisdom v1\n"));
//! let replayed = Wisdom::parse(&wisdom.serialize());
//! assert_eq!(replayed.len(), 1);
//! assert_eq!(replayed.rejected_lines(), 0);
//! ```
//!
//! # Where wisdom lives: `$AFFT_WISDOM`
//!
//! [`Wisdom::default_path`] resolves the conventional location:
//!
//! 1. `$AFFT_WISDOM`, if set **and non-empty** — an empty value is
//!    treated as unset (the conventional `PATH`-style reading:
//!    `AFFT_WISDOM= cmd` must not resolve to the current directory);
//! 2. else the per-user `$HOME/.afft-wisdom.txt` (the `~/.fftw-wisdom`
//!    idiom);
//! 3. else (no usable `HOME`) `afft-wisdom.txt` in the system temp
//!    directory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::planner::Strategy;
use afft_core::Direction;

/// Magic header written at the top of every wisdom file.
pub const WISDOM_HEADER: &str = "# afft wisdom v1";

/// FNV-1a hash of the sorted backend-name set: two registries with the
/// same engines (in any order) share wisdom; adding or removing a
/// backend invalidates prior entries by construction.
pub fn backend_set_hash<S: AsRef<str>>(names: &[S]) -> u64 {
    let mut sorted: Vec<&str> = names.iter().map(AsRef::as_ref).collect();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in sorted {
        for b in name.bytes().chain([b',']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The lookup key of one wisdom entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WisdomKey {
    /// Transform size.
    pub n: usize,
    /// `true` for [`Direction::Forward`].
    pub forward: bool,
    /// The strategy that produced the ranking.
    pub strategy: Strategy,
    /// [`backend_set_hash`] of the registry the ranking covers.
    pub backends: u64,
}

impl WisdomKey {
    /// Builds a key from the planner's vocabulary.
    pub fn new(n: usize, direction: Direction, strategy: Strategy, backends: u64) -> Self {
        WisdomKey { n, forward: direction == Direction::Forward, strategy, backends }
    }

    /// The direction this key encodes.
    pub fn direction(&self) -> Direction {
        if self.forward {
            Direction::Forward
        } else {
            Direction::Inverse
        }
    }
}

/// One remembered ranking: best-first `(engine name, score in ns)`
/// pairs plus a freshness stamp (seconds since the Unix epoch, or any
/// caller-chosen monotonic counter).
#[derive(Debug, Clone, PartialEq)]
pub struct WisdomEntry {
    /// Freshness: higher wins on [`Wisdom::merge`].
    pub stamp: u64,
    /// Best-first `(engine, score_ns)` ranking.
    pub ranking: Vec<(String, f64)>,
}

impl WisdomEntry {
    /// The winning engine's name.
    pub fn best(&self) -> &str {
        &self.ranking[0].0
    }
}

/// The plan cache. See the [module docs](self) for the text format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wisdom {
    entries: BTreeMap<WisdomKey, WisdomEntry>,
    rejected: usize,
}

impl Wisdom {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many lines the last [`Wisdom::parse`] skipped as corrupt.
    pub fn rejected_lines(&self) -> usize {
        self.rejected
    }

    /// Looks a cached ranking up.
    pub fn get(&self, key: &WisdomKey) -> Option<&WisdomEntry> {
        self.entries.get(key)
    }

    /// Records a ranking, replacing any previous entry for the key.
    /// Entries with an empty ranking are ignored (nothing to replay).
    pub fn insert(&mut self, key: WisdomKey, entry: WisdomEntry) {
        if !entry.ranking.is_empty() {
            self.entries.insert(key, entry);
        }
    }

    /// Folds `other` into `self`, keeping whichever entry is fresher
    /// (higher stamp; `other` wins ties, as the incoming measurement).
    pub fn merge(&mut self, other: &Wisdom) {
        for (key, entry) in &other.entries {
            match self.entries.get(key) {
                Some(mine) if mine.stamp > entry.stamp => {}
                _ => {
                    self.entries.insert(*key, entry.clone());
                }
            }
        }
    }

    /// Parses wisdom text. Malformed lines are counted in
    /// [`Wisdom::rejected_lines`] and skipped — a corrupt file never
    /// panics and never aborts the parse.
    pub fn parse(text: &str) -> Wisdom {
        let mut wisdom = Wisdom::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_line(line) {
                Some((key, entry)) => wisdom.insert(key, entry),
                None => wisdom.rejected += 1,
            }
        }
        wisdom
    }

    /// Renders the cache in the line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from(WISDOM_HEADER);
        out.push('\n');
        for (key, entry) in &self.entries {
            let dir = if key.forward { "fwd" } else { "inv" };
            let _ = write!(
                out,
                "plan n={} dir={} strategy={} backends={:016x} stamp={} rank=",
                key.n,
                dir,
                key.strategy.as_str(),
                key.backends,
                entry.stamp
            );
            for (i, (name, score)) in entry.ranking.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{name}:{score:.3}");
            }
            out.push('\n');
        }
        out
    }

    /// Loads wisdom from `path`. A missing file yields an empty cache
    /// (first run on a new machine); other I/O errors are returned.
    ///
    /// Corrupt lines are skipped and counted as in [`Wisdom::parse`];
    /// when any are present, one warning line is printed to stderr —
    /// silent wisdom decay is how a machine quietly loses its tuning.
    ///
    /// # Errors
    ///
    /// Propagates any [`io::Error`] except [`io::ErrorKind::NotFound`].
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Wisdom> {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let wisdom = Wisdom::parse(&text);
                if wisdom.rejected > 0 {
                    eprintln!(
                        "warning: skipped {} corrupt wisdom line(s) in {} ({} plan(s) kept)",
                        wisdom.rejected,
                        path.display(),
                        wisdom.len(),
                    );
                }
                Ok(wisdom)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Wisdom::new()),
            Err(e) => Err(e),
        }
    }

    /// Writes the cache to `path`, replacing the file.
    ///
    /// # Errors
    ///
    /// Propagates any [`io::Error`] from the write.
    pub fn store<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.serialize())
    }

    /// The conventional wisdom location: `$AFFT_WISDOM` if set and
    /// non-empty (an empty value is treated as unset, the conventional
    /// `PATH`-style reading — `AFFT_WISDOM= cmd` must not resolve to
    /// the current directory), else the per-user `$HOME/.afft-wisdom.txt`
    /// (the `~/.fftw-wisdom` idiom — a world-shared temp path would
    /// collide across users), falling back to the system temp directory
    /// when `HOME` is unset.
    pub fn default_path() -> std::path::PathBuf {
        match std::env::var_os("AFFT_WISDOM") {
            Some(p) if !p.is_empty() => return std::path::PathBuf::from(p),
            _ => {}
        }
        match std::env::var_os("HOME") {
            Some(home) if !home.is_empty() => std::path::Path::new(&home).join(".afft-wisdom.txt"),
            _ => std::env::temp_dir().join("afft-wisdom.txt"),
        }
    }
}

/// Engine names are snake_case identifiers; anything else on a rank
/// line marks the line as corrupt.
fn valid_engine_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

fn parse_line(line: &str) -> Option<(WisdomKey, WisdomEntry)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next() != Some("plan") {
        return None;
    }
    let (mut n, mut dir, mut strategy, mut backends, mut stamp, mut rank) =
        (None, None, None, None, None, None);
    for field in fields {
        let (k, v) = field.split_once('=')?;
        match k {
            "n" => n = Some(v.parse::<usize>().ok()?),
            "dir" => {
                dir = Some(match v {
                    "fwd" => true,
                    "inv" => false,
                    _ => return None,
                })
            }
            "strategy" => strategy = Some(Strategy::parse(v)?),
            "backends" => backends = Some(u64::from_str_radix(v, 16).ok()?),
            "stamp" => stamp = Some(v.parse::<u64>().ok()?),
            "rank" => {
                let mut ranking = Vec::new();
                for pair in v.split(',') {
                    let (name, score) = pair.split_once(':')?;
                    let score = score.parse::<f64>().ok()?;
                    if !valid_engine_name(name) || !score.is_finite() || score < 0.0 {
                        return None;
                    }
                    ranking.push((name.to_string(), score));
                }
                rank = Some(ranking);
            }
            // Unknown keys are forward-compatible noise, not corruption.
            _ => {}
        }
    }
    let key = WisdomKey { n: n?, forward: dir?, strategy: strategy?, backends: backends? };
    let entry = WisdomEntry { stamp: stamp?, ranking: rank? };
    if entry.ranking.is_empty() {
        return None;
    }
    Some((key, entry))
}
