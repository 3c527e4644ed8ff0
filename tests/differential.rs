//! Differential oracle for the solve pipeline.
//!
//! Three guarantees are exercised over a corpus of seeded ClassBench
//! instances:
//!
//! 1. **Fail-closed engines** — every placement any engine produces
//!    (ILP, greedy heuristic, PB-SAT) must pass the one-sided
//!    `verify::no_false_negatives` check: no packet a policy DROPs may
//!    traverse the deployed tables.
//! 2. **Replay** — a PB-SAT solve repeated with the same options returns
//!    the same placement and the same search counters.
//! 3. **Pinned encodings** — the ILP model text, the SAT formula's OPB
//!    text and the SAT outcome of every instance hash to a recorded
//!    constant, so a refactor of the encoders cannot move them.
//!
//! On a mismatch the harness *shrinks* the instance (fewer rules, then
//! fewer ingresses) while the failure persists and panics with the
//! minimal offending configuration, so a regression reproduces with one
//! seed instead of a corpus bisect.

use flowplace::classbench::{Generator, Profile};
use flowplace::core::encode_ilp::{EncodeOptions, IlpEncoding, MergeLinking};
use flowplace::core::encode_sat::SatEncoding;
use flowplace::core::verify;
use flowplace::core::{greedy, Instance};
use flowplace::milp::to_lp_format;
use flowplace::prelude::*;
use flowplace::rng::{Rng, StdRng};
use flowplace::routing::shortest;
use flowplace_fasthash::Fnv64;

/// Number of seeded instances in the corpus (the issue floor is 32).
const CORPUS: u64 = 32;

/// One corpus configuration, derived deterministically from its seed.
#[derive(Clone, Copy, Debug)]
struct Config {
    seed: u64,
    ingresses: usize,
    rules: usize,
    capacity: usize,
}

impl Config {
    /// Derives a small-but-varied instance shape from the seed: 2–4
    /// tenants, 6–14 rules each, capacities straddling the feasibility
    /// boundary so infeasible instances are part of the corpus too.
    fn from_seed(seed: u64) -> Config {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_2026);
        Config {
            seed,
            ingresses: rng.gen_range(2usize..5),
            rules: rng.gen_range(6usize..15),
            capacity: rng.gen_range(8usize..61),
        }
    }

    fn build(&self) -> Instance {
        let mut topo = Topology::fat_tree(4);
        topo.set_uniform_capacity(self.capacity);
        let routes: RouteSet = shortest::routes_per_ingress(&topo, 2, self.seed)
            .iter()
            .filter(|r| r.ingress.0 < self.ingresses)
            .cloned()
            .collect();
        let generator = Generator::new(Profile::Firewall, 16).with_seed(self.seed ^ 0xACE1);
        let policies: Vec<(EntryPortId, Policy)> = (0..self.ingresses)
            .map(|i| (EntryPortId(i), generator.policy(self.rules, i as u64)))
            .collect();
        Instance::new(topo, routes, policies).expect("corpus instance is valid")
    }
}

fn serial_options() -> PlacementOptions {
    PlacementOptions {
        greedy_warm_start: true,
        ..PlacementOptions::default()
    }
}

/// Shrinks a failing configuration: first fewer rules, then fewer
/// ingresses, keeping every step that still fails. Returns the minimal
/// failing configuration and its failure message.
fn shrink(
    mut cfg: Config,
    mut reason: String,
    still_fails: impl Fn(&Config) -> Result<(), String>,
) -> (Config, String) {
    loop {
        let mut candidates = Vec::new();
        if cfg.rules > 1 {
            candidates.push(Config {
                rules: cfg.rules - 1,
                ..cfg
            });
        }
        if cfg.ingresses > 1 {
            candidates.push(Config {
                ingresses: cfg.ingresses - 1,
                ..cfg
            });
        }
        let next = candidates
            .into_iter()
            .find_map(|c| still_fails(&c).err().map(|r| (c, r)));
        match next {
            Some((c, r)) => {
                cfg = c;
                reason = r;
            }
            None => return (cfg, reason),
        }
    }
}

fn fail_shrunk(
    cfg: Config,
    reason: String,
    what: &str,
    still_fails: impl Fn(&Config) -> Result<(), String>,
) -> ! {
    let original = cfg;
    let (minimal, reason) = shrink(cfg, reason, still_fails);
    panic!(
        "{what} failed: {reason}\n  offending seed: {} (shrunk to ingresses={} rules={} \
         capacity={} from ingresses={} rules={})\n  reproduce: Config {{ seed: {}, ingresses: \
         {}, rules: {}, capacity: {} }}",
        minimal.seed,
        minimal.ingresses,
        minimal.rules,
        minimal.capacity,
        original.ingresses,
        original.rules,
        minimal.seed,
        minimal.ingresses,
        minimal.rules,
        minimal.capacity,
    );
}

/// Runs one engine on the instance and checks its placement (when one
/// exists) for false negatives.
fn check_fail_closed(cfg: &Config, engine: &str) -> Result<(), String> {
    let instance = cfg.build();
    let placement = match engine {
        "greedy" => greedy::greedy_place(&instance),
        "ilp" | "sat" => {
            let options = PlacementOptions {
                engine: if engine == "sat" {
                    PlacerEngine::Sat
                } else {
                    PlacerEngine::Ilp
                },
                ..serial_options()
            };
            par::solve(&instance, Objective::TotalRules, &options, None).placement
        }
        other => unreachable!("unknown engine {other}"),
    };
    let Some(placement) = placement else {
        // Infeasible (or greedy gave up): nothing deployed, nothing to
        // verify — the corpus intentionally includes such capacities.
        return Ok(());
    };
    verify::no_false_negatives(&instance, &placement, 64, cfg.seed)
        .map_err(|e| format!("{engine} placement leaks a dropped packet: {e}"))
}

#[test]
fn ilp_greedy_and_sat_placements_are_fail_closed() {
    for seed in 0..CORPUS {
        let cfg = Config::from_seed(seed);
        for engine in ["ilp", "greedy", "sat"] {
            if let Err(reason) = check_fail_closed(&cfg, engine) {
                fail_shrunk(cfg, reason, "fail-closed check", |c| {
                    check_fail_closed(c, engine)
                });
            }
        }
    }
}

/// Everything determinism must pin down about one PB-SAT solve:
/// placement, status, objective, and the raw CDCL counters.
type SatSolve = (
    Option<flowplace::core::Placement>,
    SolveStatus,
    Option<f64>,
    flowplace::pbsat::SolverStats,
);

/// Solves one configuration with the PB-SAT engine (glucose restarts,
/// learnt-DB reduction on or off).
fn glucose_solve(cfg: &Config, db_reduction: bool) -> SatSolve {
    let instance = cfg.build();
    let mut options = PlacementOptions {
        engine: PlacerEngine::Sat,
        ..serial_options()
    };
    options.sat.db_reduction = db_reduction;
    let out = par::solve(&instance, Objective::TotalRules, &options, None);
    let stats = out.stats.sat.expect("SAT engine reports solver stats");
    (out.placement, out.status, out.objective, stats)
}

/// The 256-rule ClassBench shape (16 tenants × 16 rules on the k=4
/// fat-tree), larger than any seeded corpus instance.
const CLB_256: Config = Config {
    seed: 7,
    ingresses: 16,
    rules: 16,
    capacity: 100,
};

#[test]
fn glucose_sat_engine_is_deterministic() {
    // Same seed + same options ⇒ byte-identical placements AND
    // byte-identical solver counters (conflicts, restarts, reductions,
    // LBD sums), with learnt-DB reduction on and off.
    for cfg in (0..CORPUS).map(Config::from_seed).chain([CLB_256]) {
        let seed = cfg.seed;
        for db_reduction in [true, false] {
            let reference = glucose_solve(&cfg, db_reduction);
            let replay = glucose_solve(&cfg, db_reduction);
            assert_eq!(
                replay, reference,
                "glucose SAT replay wobbled (seed {seed}, db_reduction {db_reduction})"
            );
        }
    }
}

/// The hash [`both_encodings_are_pinned`] recorded over the pairwise
/// and lazy Eq. 1 lowerings, the two the ILP encoder has.
const PINNED_ENCODINGS: u64 = 0x79b9_201b_f5dd_b68b;

#[test]
fn both_encodings_are_pinned() {
    // Every variable, row, row name, coefficient and decoded model of
    // both encodings, over the corpus plus the 256-rule shape, merging
    // off and on. A refactor of the encoders must not move it.
    let mut h = Fnv64::new();
    for cfg in (0..CORPUS).map(Config::from_seed).chain([CLB_256]) {
        let instance = cfg.build();
        let greedy = greedy::greedy_place(&instance);
        for merging in [false, true] {
            for dependency in [DependencyEncoding::Pairwise, DependencyEncoding::Lazy] {
                for merge_linking in [MergeLinking::PerMember, MergeLinking::Aggregated] {
                    let options = EncodeOptions {
                        dependency,
                        merging,
                        merge_linking,
                    };
                    let enc = IlpEncoding::build(&instance, &Objective::DistanceWeighted, &options);
                    h.bytes(to_lp_format(&enc.model).as_bytes());
                    h.usize(enc.num_placement_vars);
                    // Lazy rows for an assignment setting every other
                    // variable, and the greedy warm start.
                    let alternate: Vec<f64> =
                        (0..enc.model.num_vars()).map(|i| (i % 2) as f64).collect();
                    h.bytes(format!("{:?}", enc.violated_dependencies(&alternate)).as_bytes());
                    let warm = greedy.as_ref().map(|p| enc.warm_start(p));
                    h.bytes(format!("{warm:?}").as_bytes());
                }
            }
            let sat = SatEncoding::build(&instance, merging);
            let opb = sat
                .export_formula()
                .to_opb()
                .expect("no duplicate literals");
            h.bytes(opb.as_bytes());
            h.usize(sat.num_placement_vars());
            h.usize(sat.constraint_count());
            let options = PlacementOptions {
                engine: PlacerEngine::Sat,
                merging,
                ..PlacementOptions::default()
            };
            let outcome = par::solve(&instance, Objective::TotalRules, &options, None);
            h.bytes(format!("{outcome:?}").as_bytes());
        }
    }
    let got = h.finish();
    assert_eq!(got, PINNED_ENCODINGS, "encodings moved: {got:#018x}");
}

#[test]
fn corpus_is_nontrivial() {
    // Guard the corpus itself: the seeds must produce varied shapes and
    // at least one feasible instance, or the two tests above would pass
    // vacuously.
    let configs: Vec<Config> = (0..CORPUS).map(Config::from_seed).collect();
    assert!(configs.len() >= 32, "issue requires >= 32 seeded instances");
    let distinct_shapes: std::collections::BTreeSet<(usize, usize)> =
        configs.iter().map(|c| (c.ingresses, c.rules)).collect();
    assert!(distinct_shapes.len() >= 8, "corpus shapes are too uniform");
    let feasible = configs
        .iter()
        .filter(|c| {
            par::solve(&c.build(), Objective::TotalRules, &serial_options(), None)
                .placement
                .is_some()
        })
        .count();
    assert!(
        feasible >= CORPUS as usize / 2,
        "only {feasible}/{CORPUS} corpus instances are feasible"
    );
}
