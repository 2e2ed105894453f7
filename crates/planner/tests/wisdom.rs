//! Satellite: wisdom durability — `store -> load` round-trips exactly,
//! `merge` prefers fresher measurements, and corrupt or stale lines are
//! rejected gracefully (skipped and counted, never a panic).

use afft_core::Direction;
use afft_planner::{backend_set_hash, Planner, Strategy, Wisdom, WisdomEntry, WisdomKey};

fn key(n: usize, stamp_salt: u64) -> WisdomKey {
    WisdomKey::new(n, Direction::Forward, Strategy::Measure, 0xdead_beef ^ stamp_salt)
}

fn entry(stamp: u64, best: &str) -> WisdomEntry {
    WisdomEntry {
        stamp,
        ranking: vec![(best.to_string(), 100.5), ("dft_naive".to_string(), 90000.0)],
    }
}

#[test]
fn store_then_load_round_trips_exactly() {
    let mut wisdom = Wisdom::new();
    wisdom.insert(key(64, 0), entry(10, "radix2_dit"));
    wisdom.insert(key(256, 1), entry(11, "array_fft"));
    wisdom.insert(
        WisdomKey::new(128, Direction::Inverse, Strategy::Estimate, 7),
        entry(12, "real_fft"),
    );

    let path = std::env::temp_dir().join("afft-wisdom-roundtrip-test.txt");
    wisdom.store(&path).expect("store");
    let loaded = Wisdom::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded, wisdom);
    assert_eq!(loaded.rejected_lines(), 0);
    // Text-level round trip too: serialize(parse(s)) == s.
    let text = wisdom.serialize();
    assert_eq!(Wisdom::parse(&text).serialize(), text);
}

/// Satellite regression: an **empty** `AFFT_WISDOM` must behave like an
/// unset one — `AFFT_WISDOM= cmd` must not resolve the wisdom file to
/// `""` (the current directory). The variable is process-global and
/// sibling tests read the environment concurrently, so each case
/// re-executes this test binary as a child with the environment
/// configured at spawn time; the parent never mutates its own env.
#[test]
fn empty_afft_wisdom_env_var_is_treated_as_unset() {
    // Child mode: report the resolved default path and exit.
    if std::env::var_os("AFFT_WISDOM_PRINT_DEFAULT_PATH").is_some() {
        println!("DEFAULT_PATH={}", Wisdom::default_path().display());
        return;
    }

    let default_path_with = |env_val: Option<&str>| -> String {
        let mut cmd = std::process::Command::new(std::env::current_exe().expect("test exe"));
        cmd.args([
            "--exact",
            "empty_afft_wisdom_env_var_is_treated_as_unset",
            "--nocapture",
            "--test-threads=1",
        ]);
        cmd.env("AFFT_WISDOM_PRINT_DEFAULT_PATH", "1");
        match env_val {
            Some(v) => cmd.env("AFFT_WISDOM", v),
            None => cmd.env_remove("AFFT_WISDOM"),
        };
        let out = cmd.output().expect("spawn child test process");
        assert!(out.status.success(), "child failed: {}", String::from_utf8_lossy(&out.stderr));
        // With --nocapture the harness prints "test <name> ... " on
        // the same line, so search within lines rather than at starts.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.split_once("DEFAULT_PATH=").map(|(_, p)| p.trim().to_string()))
            .expect("child printed the default path")
    };

    let explicit = default_path_with(Some("/tmp/explicit-wisdom.txt"));
    assert_eq!(explicit, "/tmp/explicit-wisdom.txt");

    let empty_var = default_path_with(Some(""));
    let unset = default_path_with(None);
    assert!(!empty_var.is_empty(), "empty var must not yield an empty path");
    assert_eq!(empty_var, unset, "empty AFFT_WISDOM must fall back like an unset one");
    assert!(unset.contains("afft-wisdom"), "fallback should be the conventional file: {unset}");
}

#[test]
fn loading_a_missing_file_yields_empty_wisdom() {
    let w = Wisdom::load("/nonexistent/afft/wisdom.txt").expect("missing file is not an error");
    assert!(w.is_empty());
}

#[test]
fn merge_prefers_fresher_measurements() {
    let mut old = Wisdom::new();
    old.insert(key(64, 0), entry(10, "mcfft"));
    old.insert(key(256, 1), entry(50, "array_fft"));

    let mut new = Wisdom::new();
    new.insert(key(64, 0), entry(20, "radix2_dit")); // fresher: wins
    new.insert(key(256, 1), entry(40, "cached_fft")); // staler: loses
    new.insert(key(1024, 2), entry(30, "real_fft")); // novel: added

    old.merge(&new);
    assert_eq!(old.len(), 3);
    assert_eq!(old.get(&key(64, 0)).unwrap().best(), "radix2_dit");
    assert_eq!(old.get(&key(256, 1)).unwrap().best(), "array_fft");
    assert_eq!(old.get(&key(1024, 2)).unwrap().best(), "real_fft");

    // Equal stamps: the incoming measurement wins.
    let mut tie = Wisdom::new();
    tie.insert(key(64, 0), entry(20, "array_fft"));
    old.merge(&tie);
    assert_eq!(old.get(&key(64, 0)).unwrap().best(), "array_fft");
}

#[test]
fn corrupt_lines_are_skipped_not_fatal() {
    let good = "plan n=64 dir=fwd strategy=measure backends=00000000deadbeef stamp=10 \
                rank=radix2_dit:100.500,dft_naive:90000.000";
    let text = format!(
        "# afft wisdom v1\n\
         \n\
         {good}\n\
         plan n=banana dir=fwd strategy=measure backends=1 stamp=1 rank=a:1.0\n\
         plan n=64 dir=sideways strategy=measure backends=1 stamp=1 rank=a:1.0\n\
         plan n=64 dir=fwd strategy=vibes backends=1 stamp=1 rank=a:1.0\n\
         plan n=64 dir=fwd strategy=measure backends=zz stamp=1 rank=a:1.0\n\
         plan n=64 dir=fwd strategy=measure backends=1 stamp=1 rank=名前:1.0\n\
         plan n=64 dir=fwd strategy=measure backends=1 stamp=1 rank=a:NaN\n\
         plan n=64 dir=fwd strategy=measure backends=1 stamp=1\n\
         not even a record\n\
         plan\n"
    );
    let wisdom = Wisdom::parse(&text);
    assert_eq!(wisdom.len(), 1, "only the good line survives");
    assert_eq!(wisdom.rejected_lines(), 9);
    let key = WisdomKey::new(64, Direction::Forward, Strategy::Measure, 0xdead_beef);
    assert_eq!(wisdom.get(&key).unwrap().best(), "radix2_dit");
}

#[test]
fn stale_wisdom_from_another_backend_set_never_matches() {
    // A plan recorded against yesterday's registry (different engine
    // set => different hash) is dead weight, not a wrong answer: the
    // planner misses the cache and re-plans.
    let stale_hash = backend_set_hash(&["dft_naive", "radix2_dit"]);
    let mut wisdom = Wisdom::new();
    wisdom.insert(
        WisdomKey::new(64, Direction::Forward, Strategy::Estimate, stale_hash),
        entry(99, "radix2_dit"),
    );
    let mut planner = Planner::new().with_wisdom(wisdom);
    let plan = planner.plan(64, Strategy::Estimate).expect("plan");
    assert!(!plan.from_wisdom, "stale entry must not satisfy the lookup");
    assert_ne!(plan.backends, stale_hash);
    // The fresh plan was recorded next to (not over) the stale entry.
    assert_eq!(planner.wisdom().len(), 2);
}

#[test]
fn planner_wisdom_survives_a_disk_round_trip() {
    let mut planner = Planner::new().with_measure_reps(1);
    let first = planner.plan(64, Strategy::Measure).expect("measure");

    let path = std::env::temp_dir().join("afft-wisdom-planner-cycle-test.txt");
    planner.wisdom().store(&path).expect("store");
    let mut revived = Planner::new().with_wisdom(Wisdom::load(&path).expect("load"));
    std::fs::remove_file(&path).ok();

    let replay = revived.plan(64, Strategy::Measure).expect("replay");
    assert!(replay.from_wisdom, "the stored measurement must satisfy the new planner");
    assert_eq!(replay.best().name, first.best().name);
    let names: Vec<&str> = replay.ranking.iter().map(|r| r.name.as_str()).collect();
    let first_names: Vec<&str> = first.ranking.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, first_names, "the whole ranking replays, not just the winner");
}

#[test]
fn loading_a_corrupt_file_counts_and_skips_its_bad_lines() {
    let path = std::env::temp_dir().join("afft-wisdom-corrupt-lines-test.txt");
    std::fs::write(
        &path,
        "# afft wisdom v1\n\
         plan n=64 dir=fwd strategy=measure backends=00000000deadbeef stamp=10 rank=radix2_dit:100.500\n\
         plan n=oops dir=fwd strategy=measure backends=1 stamp=1 rank=a:1.0\n\
         garbage line\n",
    )
    .expect("write");
    let wisdom = Wisdom::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(wisdom.len(), 1);
    assert_eq!(wisdom.rejected_lines(), 2, "corrupt lines are counted, not lost silently");
}
