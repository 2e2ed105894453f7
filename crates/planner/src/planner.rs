//! The planner: rank every engine the registry offers for one
//! transform shape, by heuristic model ([`Strategy::Estimate`]) or by
//! timing a calibration run ([`Strategy::Measure`]), and remember the
//! result as [`Wisdom`].

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use afft_core::engine::{Cost, EngineRegistry, FftEngine};
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_obs::{Histogram, Snapshot};

use crate::wisdom::{backend_set_hash, Wisdom, WisdomEntry, WisdomKey};

/// How a registry for size `n` is built — the planner's only coupling
/// to the backend set. [`EngineRegistry::standard`] covers the software
/// models; pass `afft_asip::engine::registry_with_asip` to let the
/// cycle-accurate ISS compete.
pub type RegistryFactory = fn(usize) -> Result<EngineRegistry, FftError>;

/// The simulated ASIP's clock, used to convert modeled cycles into the
/// nanosecond scale the rankings share.
pub const ASIP_CLOCK_GHZ: f64 = 0.3;

/// Rough per-point-operation cost of the f64 software backends, ns.
const HOST_OP_NS: f64 = 2.0;
/// Rough cost of moving one complex point through main memory, ns.
const HOST_MEM_NS: f64 = 0.5;

/// How a [`Planner`] ranks the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Rank by each catalog row's [`Cost`] (operation count and
    /// traffic, or modeled cycles), priced with the planner's host
    /// constants. Free — it builds no engine — but blind to the host.
    Estimate,
    /// Execute every engine on a calibration signal and rank by what
    /// it actually cost: wall time for host backends, modeled cycles
    /// for cycle-accurate ones.
    Measure,
}

impl Strategy {
    /// Stable lowercase identifier (wisdom format, CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Estimate => "estimate",
            Strategy::Measure => "measure",
        }
    }

    /// Inverse of [`Strategy::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "estimate" => Some(Strategy::Estimate),
            "measure" => Some(Strategy::Measure),
            _ => None,
        }
    }
}

/// One engine's entry in a ranked plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRank {
    /// Engine name ([`FftEngine::name`]).
    pub name: String,
    /// The ranking score in nanoseconds: estimated or measured time
    /// for one transform (modeled hardware time on cycle-accurate
    /// backends).
    pub score_ns: f64,
    /// Best measured wall time of one `execute_into` (allocation-free
    /// path, preallocated output), where the plan was measured (`None`
    /// for estimates and wisdom replays).
    pub wall_ns: Option<f64>,
    /// Modeled cycle count, on cycle-accurate backends: the run's count
    /// under Measure, the catalog row's closed form under Estimate
    /// (replays included); `None` on Measure replays.
    pub modeled_cycles: Option<u64>,
    /// The catalog row's main-memory traffic in points, where its cost
    /// model has one.
    pub traffic_points: Option<usize>,
}

/// A ranked plan for one `(n, direction)` transform shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Transform size.
    pub n: usize,
    /// Transform direction the plan was ranked for.
    pub direction: Direction,
    /// The strategy that produced the ranking.
    pub strategy: Strategy,
    /// [`backend_set_hash`] of the registry the ranking covers.
    pub backends: u64,
    /// Whether the ranking was replayed from wisdom (no new work).
    pub from_wisdom: bool,
    /// Every registry engine, best (lowest score) first.
    pub ranking: Vec<EngineRank>,
}

impl Plan {
    /// The winning engine.
    pub fn best(&self) -> &EngineRank {
        &self.ranking[0]
    }
}

/// The autotuning planner. See the [crate docs](crate) for a worked
/// example.
#[derive(Debug, Clone)]
pub struct Planner {
    factory: RegistryFactory,
    wisdom: Wisdom,
    reps: usize,
    /// Every calibration rep ever timed, keyed `n{n}/{dir}/{engine}`:
    /// the whole distribution behind each best-of Measure score.
    calibration: std::collections::BTreeMap<String, Histogram>,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// A planner over [`EngineRegistry::standard`] with empty wisdom.
    pub fn new() -> Self {
        Self::with_factory(EngineRegistry::standard)
    }

    /// A planner over a caller-chosen registry factory (e.g.
    /// `registry_with_asip`, so the ISS participates in rankings).
    pub fn with_factory(factory: RegistryFactory) -> Self {
        Planner {
            factory,
            wisdom: Wisdom::new(),
            reps: 3,
            calibration: std::collections::BTreeMap::new(),
        }
    }

    /// Seeds the planner with previously stored wisdom.
    #[must_use]
    pub fn with_wisdom(mut self, wisdom: Wisdom) -> Self {
        self.wisdom = wisdom;
        self
    }

    /// Sets how many calibration repetitions [`Strategy::Measure`]
    /// runs per engine (best-of-`reps`; clamped to at least 1).
    #[must_use]
    pub fn with_measure_reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// The accumulated wisdom (every plan this planner produced or was
    /// seeded with) — store it to pay the tuning cost once per machine.
    pub fn wisdom(&self) -> &Wisdom {
        &self.wisdom
    }

    /// Mutable access to the wisdom, e.g. to [`Wisdom::merge`] a file
    /// loaded mid-flight.
    pub fn wisdom_mut(&mut self) -> &mut Wisdom {
        &mut self.wisdom
    }

    /// Plans the forward transform of size `n` — see
    /// [`Planner::plan_directed`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] for unsupported sizes or backend failures
    /// during calibration.
    pub fn plan(&mut self, n: usize, strategy: Strategy) -> Result<Plan, FftError> {
        self.plan_directed(n, Direction::Forward, strategy)
    }

    /// Plans a transform: wisdom hit if available, otherwise rank the
    /// registry by `strategy` and record the result as new wisdom.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] for unsupported sizes or backend failures
    /// during calibration.
    pub fn plan_directed(
        &mut self,
        n: usize,
        direction: Direction,
        strategy: Strategy,
    ) -> Result<Plan, FftError> {
        // Listing the rows builds nothing, so keying the wisdom lookup
        // (and ranking by Estimate) costs no engine construction.
        let mut registry = (self.factory)(n)?;
        let backends = backend_set_hash(&registry.names());
        let key = WisdomKey::new(n, direction, strategy, backends);
        if let Some(entry) = self.wisdom.get(&key) {
            // A replay keeps what the rows know, so a replayed Estimate
            // plan equals the fresh one.
            let ranking = entry
                .ranking
                .iter()
                .map(|(name, score)| {
                    let cost = registry.specs().find(|s| s.name == *name).map(|s| (s.cost)(n));
                    EngineRank {
                        name: name.clone(),
                        score_ns: *score,
                        wall_ns: None,
                        modeled_cycles: match (strategy, cost) {
                            (Strategy::Estimate, Some(Cost::Cycles(cycles, _))) => Some(cycles),
                            _ => None,
                        },
                        traffic_points: cost.and_then(traffic_points),
                    }
                })
                .collect();
            return Ok(Plan { n, direction, strategy, backends, from_wisdom: true, ranking });
        }

        let mut ranking = match strategy {
            Strategy::Estimate => {
                registry.specs().map(|spec| estimate_rank(spec.name, (spec.cost)(n))).collect()
            }
            Strategy::Measure => {
                let signal = calibration_signal(n);
                // One calibration output serves every engine, allocated
                // outside the timed loops: the rankings compare the
                // math, not the host allocator.
                let mut output = vec![Complex::zero(); n];
                let dir = if direction == Direction::Forward { "fwd" } else { "inv" };
                let costs: Vec<Cost> = registry.specs().map(|spec| (spec.cost)(n)).collect();
                let mut ranking = Vec::new();
                for (engine, cost) in registry.engines_mut().zip(costs) {
                    // Every calibration rep lands in a per-engine
                    // histogram instead of being discarded after the
                    // best-of reduction.
                    let mut hist = Histogram::new();
                    let rank = measure_rank(
                        engine,
                        cost,
                        &signal,
                        &mut output,
                        direction,
                        self.reps,
                        &mut hist,
                    )?;
                    self.calibration
                        .entry(format!("n{n}/{dir}/{}", rank.name))
                        .or_default()
                        .merge(&hist);
                    ranking.push(rank);
                }
                ranking
            }
        };
        ranking.sort_by(|a, b| {
            a.score_ns.partial_cmp(&b.score_ns).unwrap_or(core::cmp::Ordering::Equal)
        });

        let entry = WisdomEntry {
            stamp: unix_stamp(),
            ranking: ranking.iter().map(|r| (r.name.clone(), r.score_ns)).collect(),
        };
        self.wisdom.insert(key, entry);
        Ok(Plan { n, direction, strategy, backends, from_wisdom: false, ranking })
    }

    /// Builds the plan's winning engine, owned, and no other.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::Backend`] if the planned engine is no
    /// longer registered (wisdom from a different backend set).
    pub fn engine(&self, plan: &Plan) -> Result<Box<dyn FftEngine>, FftError> {
        take_engine(self.factory, plan.n, &plan.best().name)
    }

    /// Every calibration rep this planner has timed, as a named
    /// snapshot (`n{n}/{dir}/{engine}` series) — the distribution
    /// behind each [`Strategy::Measure`] ranking, which the best-of
    /// reduction alone would have discarded. Empty for planners that
    /// only ever ran [`Strategy::Estimate`] or wisdom replays.
    pub fn calibration_snapshot(&self) -> Snapshot {
        Snapshot::from_series(
            self.calibration.iter().map(|(name, h)| (name.clone(), h.clone())).collect(),
        )
    }
}

fn unix_stamp() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Builds the engine `name` from the factory's rows for size `n`, and
/// no other — the one plan→engine resolution path shared by
/// [`Planner::engine`] and the `afft_stream` pipeline's long-lived
/// workers. Public so any layer that holds a [`RegistryFactory`] and a
/// planned engine name can construct private engine instances (one per
/// worker — the threading idiom that needs no `Sync` bound on
/// [`FftEngine`]).
///
/// # Errors
///
/// Returns [`FftError::Backend`] if `name` is not in the factory's
/// registry for `n` (e.g. wisdom from a different backend set), or any
/// error the factory or the engine's constructor reports.
pub fn take_engine(
    factory: RegistryFactory,
    n: usize,
    name: &str,
) -> Result<Box<dyn FftEngine>, FftError> {
    factory(n)?.take(name)
}

/// A deterministic QPSK-like calibration signal (xorshift-driven, no
/// RNG dependency): constant magnitude per point, sign-random phases.
pub fn calibration_signal(n: usize) -> Vec<C64> {
    let mut state: u64 = 0x243f_6a88_85a3_08d3 ^ n as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let bits = next();
            let re = if bits & 1 == 0 { 1.0 } else { -1.0 };
            let im = if bits & 2 == 0 { 1.0 } else { -1.0 };
            Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2
        })
        .collect()
}

fn measure_rank(
    engine: &mut dyn FftEngine,
    cost: Cost,
    signal: &[C64],
    output: &mut [C64],
    direction: Direction,
    reps: usize,
    hist: &mut Histogram,
) -> Result<EngineRank, FftError> {
    // Warm the engine-owned scratch outside the timed region, so the
    // first timed rep doesn't pay one-time buffer growth.
    engine.execute_into(signal, output, direction)?;
    let mut wall_ns = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        engine.execute_into(signal, output, direction)?;
        let rep_ns = start.elapsed().as_nanos();
        hist.record(u64::try_from(rep_ns).unwrap_or(u64::MAX));
        wall_ns = wall_ns.min(rep_ns as f64);
    }
    // Cycle-accurate backends rank by modeled hardware time, not by
    // how long the simulator took on the host.
    let modeled_cycles = engine.cycles();
    let score_ns = modeled_cycles.map_or(wall_ns, |c| c as f64 / ASIP_CLOCK_GHZ);
    Ok(EngineRank {
        name: engine.name().to_string(),
        score_ns,
        wall_ns: Some(wall_ns),
        modeled_cycles,
        traffic_points: traffic_points(cost),
    })
}

/// A row's traffic term, in points moved.
fn traffic_points(cost: Cost) -> Option<usize> {
    cost.traffic().map(|t| t.total())
}

/// Prices one catalog row's [`Cost`]: host operations and traffic in
/// host nanoseconds, modeled cycles at the ASIP clock.
fn estimate_rank(name: &str, cost: Cost) -> EngineRank {
    let traffic = traffic_points(cost);
    let (score_ns, modeled_cycles) = match cost {
        Cost::Host(ops, _) => (HOST_OP_NS * ops + HOST_MEM_NS * traffic.unwrap_or(0) as f64, None),
        Cost::Cycles(cycles, _) => (cycles as f64 / ASIP_CLOCK_GHZ, Some(cycles)),
    };
    EngineRank {
        name: name.to_string(),
        score_ns,
        wall_ns: None,
        modeled_cycles,
        traffic_points: traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_ranks_every_registry_engine() {
        let mut planner = Planner::new();
        let plan = planner.plan(256, Strategy::Estimate).unwrap();
        assert_eq!(plan.ranking.len(), EngineRegistry::standard(256).unwrap().len());
        assert!(!plan.from_wisdom);
        // Scores are sorted ascending and the O(N^2) reference loses.
        for pair in plan.ranking.windows(2) {
            assert!(pair[0].score_ns <= pair[1].score_ns);
        }
        assert_eq!(plan.ranking.last().unwrap().name, "dft_naive");
        assert_ne!(plan.best().name, "dft_naive");
    }

    #[test]
    fn estimate_prefers_simd_over_scalar_siblings_when_detected() {
        if !afft_core::simd::active_level().is_simd() {
            // No vector unit (or AFFT_NO_SIMD): the SIMD tier is not
            // registered and there is nothing to rank.
            return;
        }
        let mut planner = Planner::new();
        for n in [64usize, 256, 1024, 4096] {
            let plan = planner.plan(n, Strategy::Estimate).unwrap();
            let pos = |name: &str| {
                plan.ranking
                    .iter()
                    .position(|r| r.name == name)
                    .unwrap_or_else(|| panic!("{name} missing from estimate ranking at n={n}"))
            };
            // Same op model, wider issue: the iterative SIMD engine must
            // outrank its scalar sibling under Estimate.
            assert!(pos("radix4_simd") < pos("radix4_dit"), "n={n}");
        }
    }

    #[test]
    fn estimate_picks_the_simd_kernel_at_every_ofdm_power_of_two_when_detected() {
        if !afft_core::simd::active_level().is_simd() {
            return;
        }
        // Odd log2 n (UWB-128, WiMAX-512/2048) as well as powers of 4.
        let mut planner = Planner::new();
        for n in [64usize, 128, 256, 512, 1024, 2048] {
            let plan = planner.plan(n, Strategy::Estimate).unwrap();
            assert_eq!(plan.best().name, "radix4_simd", "n={n}");
        }
    }

    /// The standard rows plus one whose constructor panics: any path
    /// that builds an engine it was not asked for trips it.
    fn trapped_registry(n: usize) -> Result<EngineRegistry, FftError> {
        Ok(EngineRegistry::standard(n)?.with(afft_core::engine::EngineSpec {
            name: "trap",
            supports: |_| true,
            build: |_| panic!("built an engine nobody asked for"),
            cost: |_| Cost::Cycles(1 << 40, None),
        }))
    }

    #[test]
    fn planning_builds_only_the_engines_it_is_asked_for() {
        let mut planner = Planner::with_factory(trapped_registry);
        let plan = planner.plan(256, Strategy::Estimate).unwrap();
        // Ranked without being built, its modeled cycles at the ASIP
        // clock.
        let trap = plan.ranking.last().unwrap();
        assert_eq!((trap.name.as_str(), trap.modeled_cycles), ("trap", Some(1 << 40)));
        assert_eq!(trap.score_ns, (1u64 << 40) as f64 / ASIP_CLOCK_GHZ);
        assert_eq!(planner.engine(&plan).unwrap().name(), plan.best().name);
        let engine = take_engine(trapped_registry, 256, "radix2_dit").unwrap();
        assert_eq!(engine.name(), "radix2_dit");
        // Wisdom replays, of this plan and of a Measure ranking recorded
        // elsewhere, build nothing either.
        assert!(planner.plan(256, Strategy::Estimate).unwrap().from_wisdom);
        let backends = backend_set_hash(&trapped_registry(256).unwrap().names());
        let key = WisdomKey::new(256, Direction::Forward, Strategy::Measure, backends);
        let measured = vec![("radix4_dit".to_string(), 900.0), ("trap".to_string(), 1e6)];
        planner.wisdom_mut().insert(key, WisdomEntry { stamp: 1, ranking: measured });
        let replay = planner.plan(256, Strategy::Measure).unwrap();
        assert!(replay.from_wisdom);
        assert_eq!(replay.best().name, "radix4_dit");
    }

    #[test]
    fn replayed_estimate_plans_equal_the_fresh_ones() {
        // The trap row prices modeled cycles and no traffic; every
        // software row at 256 prices traffic and no cycles.
        let mut planner = Planner::with_factory(trapped_registry);
        let fresh = planner.plan(256, Strategy::Estimate).unwrap();
        let replay = planner.plan(256, Strategy::Estimate).unwrap();
        assert!(!fresh.from_wisdom && replay.from_wisdom);
        assert_eq!(replay.ranking, fresh.ranking);
        let trap = replay.ranking.iter().find(|r| r.name == "trap").unwrap();
        assert_eq!((trap.modeled_cycles, trap.traffic_points), (Some(1 << 40), None));
        assert!(replay.ranking.iter().any(|r| r.traffic_points.is_some()));
    }

    #[test]
    fn measure_ranks_and_caches_into_wisdom() {
        let mut planner = Planner::new().with_measure_reps(1);
        let plan = planner.plan(64, Strategy::Measure).unwrap();
        assert!(!plan.from_wisdom);
        assert_eq!(plan.ranking.len(), EngineRegistry::standard(64).unwrap().len());
        assert!(plan.ranking.iter().all(|r| r.wall_ns.is_some()));
        assert_eq!(planner.wisdom().len(), 1);
        // Second call replays the wisdom without re-measuring.
        let replay = planner.plan(64, Strategy::Measure).unwrap();
        assert!(replay.from_wisdom);
        assert_eq!(replay.best().name, plan.best().name);
        assert_eq!(replay.ranking.len(), plan.ranking.len());
        // The replay reads each row's traffic back, as the run did.
        for rank in &replay.ranking {
            let measured = plan.ranking.iter().find(|r| r.name == rank.name).unwrap();
            assert_eq!(rank.traffic_points, measured.traffic_points, "{}", rank.name);
        }
    }

    #[test]
    fn composite_sizes_plan_through_the_same_path() {
        let mut planner = Planner::new().with_measure_reps(1);
        // Estimate at an LTE-like composite size: the mixed-radix
        // engine must beat the O(N^2) reference.
        let plan = planner.plan(1200, Strategy::Estimate).unwrap();
        assert_eq!(plan.ranking.len(), EngineRegistry::standard(1200).unwrap().len());
        assert_eq!(plan.best().name, "mixed_radix");
        assert_eq!(plan.ranking.last().unwrap().name, "dft_naive");
        // Measure at a small composite size ranks and caches wisdom.
        let measured = planner.plan(60, Strategy::Measure).unwrap();
        assert!(measured.ranking.iter().all(|r| r.wall_ns.is_some()));
        let engine = planner.engine(&measured).unwrap();
        assert_eq!(engine.len(), 60);
        // Rough composites (1022 = 2·7·73) plan through the chirp-Z
        // fallback now — no size beyond {0, 1} errors out.
        let rough = planner.plan(1022, Strategy::Estimate).unwrap();
        assert_eq!(rough.best().name, "bluestein");
        assert!(planner.plan(0, Strategy::Estimate).is_err());
        assert!(planner.plan(1, Strategy::Estimate).is_err());
    }

    #[test]
    fn prime_sizes_rank_the_convolution_engines_honestly() {
        let mut planner = Planner::new();
        // At 97 the 96-point (2^5·3, smooth) inner convolution makes
        // Rader cheaper than Bluestein's 256-point padded convolution.
        let plan = planner.plan(97, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "rader");
        assert_eq!(plan.ranking.last().unwrap().name, "dft_naive");
        // At 1009 the inner length 1008 = 2^4·3^2·7 is rough, so Rader
        // does not register and Bluestein carries the prime.
        let plan = planner.plan(1009, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "bluestein");
        // Tiny primes: the direct radix-3 butterfly is genuinely
        // cheapest — the convolution engines must not outrank it.
        let plan = planner.plan(3, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "mixed_radix");
    }

    #[test]
    fn estimate_never_ranks_the_naive_dft_first() {
        // The O(N^2) sum computes a `cos` and a `sin` per term, and its
        // row prices them: some structured engine is cheaper at every
        // size, and at N = 2 the table-driven butterfly beats the
        // radix-2 kernel's on-the-fly twiddle.
        let mut planner = Planner::new();
        for n in 2..=4200usize {
            let plan = planner.plan(n, Strategy::Estimate).unwrap();
            assert_ne!(plan.best().name, "dft_naive", "n={n}");
        }
        assert_eq!(planner.plan(2, Strategy::Estimate).unwrap().best().name, "mixed_radix");
    }

    #[test]
    fn planned_engine_is_instantiable_and_correct_size() {
        let mut planner = Planner::new();
        let plan = planner.plan(128, Strategy::Estimate).unwrap();
        let engine = planner.engine(&plan).unwrap();
        assert_eq!(engine.name(), plan.best().name);
        assert_eq!(engine.len(), 128);
    }

    #[test]
    fn estimate_and_measure_wisdom_are_keyed_apart() {
        let mut planner = Planner::new().with_measure_reps(1);
        planner.plan(64, Strategy::Estimate).unwrap();
        planner.plan(64, Strategy::Measure).unwrap();
        planner.plan_directed(64, Direction::Inverse, Strategy::Estimate).unwrap();
        assert_eq!(planner.wisdom().len(), 3);
    }

    #[test]
    fn calibration_signal_is_deterministic_qpsk() {
        let a = calibration_signal(64);
        assert_eq!(a, calibration_signal(64));
        assert_ne!(a, calibration_signal(128)[..64].to_vec());
        for c in &a {
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measure_keeps_calibration_distributions() {
        let reps = 4;
        let mut planner = Planner::new().with_measure_reps(reps);
        planner.plan(64, Strategy::Measure).unwrap();
        let snap = planner.calibration_snapshot();
        assert_eq!(snap.series().len(), EngineRegistry::standard(64).unwrap().len());
        for (name, hist) in snap.series() {
            assert!(name.starts_with("n64/fwd/"), "{name}");
            assert_eq!(hist.count(), reps as u64, "{name} kept every rep");
            assert!(hist.max().unwrap() >= hist.min().unwrap());
        }
        // A wisdom replay re-runs nothing and records nothing new.
        planner.plan(64, Strategy::Measure).unwrap();
        assert_eq!(planner.calibration_snapshot().get("n64/fwd/dft_naive").unwrap().count(), 4);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [Strategy::Estimate, Strategy::Measure] {
            assert_eq!(Strategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(Strategy::parse("guess"), None);
    }
}
