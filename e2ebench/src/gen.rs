//! Seeded inputs.  Every model the daemon receives, every arrival time
//! and every sampling seed comes from here, as a pure function of the
//! workload seed: the same seed gives byte-identical requests.

use fmperf::ftlqn::examples::{das_woodside_system_with, DasWoodsideParams};
use fmperf::mama::arch::{self, ArchKind};
use fmperf::mama::{synth_plane, MamaModel, PlaneSpec, PlaneTopology};
use fmperf::text::write_model;
use std::sync::Arc;
use std::time::Duration;

/// Analysis deadline sent with every request: far above any request's
/// work, so no deadline ever trips and two runs do identical work.
pub const BUDGET_MS: u64 = 600_000;

/// Points per `proc3` sweep on `serve-hot`.
pub const SWEEP_STEPS: usize = 64;
/// Sweep range: point 53 of 64 is availability 0.9, the paper models'
/// own `proc3` availability (fail 0.1), so a sweep can be checked
/// against an analyze of the same model.
pub const SWEEP_FROM: f64 = 0.37;
/// Upper end of the sweep range.
pub const SWEEP_TO: f64 = 1.0;
/// The sweep point whose availability is the model's own.
pub const SWEEP_OWN_POINT: usize = 53;

/// Samples per `rare-event` analysis (fixed, so every pass does the
/// same sampling work).
pub const RARE_SAMPLES: u64 = 10_000;

/// SplitMix64: small, seedable and stable across platforms and
/// releases, which is all an input generator needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one workload seed, so
    /// adding a stream never shifts the values of another.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// What a request's model is, recorded so the answer checks can
/// compute the expected answer without the engine that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    /// The app-only Figure 1 system (perfect knowledge), every fallible
    /// component failing with probability `p`.
    AppOnly {
        /// Per-component failure probability.
        p: f64,
    },
    /// The Figure 1 system under a §6 architecture, application and
    /// management components all failing with probability `p`.
    Arch {
        /// Which architecture.
        kind: ArchKind,
        /// Per-component failure probability.
        p: f64,
    },
    /// The distributed architecture as the paper published it (one of
    /// the five `models/*.fmp`), at the paper's p = 0.1.
    AsPublished,
    /// A synthesised plane, server and management components failing
    /// with probability `p`.
    Plane {
        /// Management topology.
        topology: PlaneTopology,
        /// Primary/backup service chains.
        chains: usize,
        /// Per-component failure probability.
        p: f64,
    },
}

impl Model {
    /// The model's source text, as `fmperf fmt` would write it.
    pub fn text(&self) -> String {
        match *self {
            Model::AppOnly { p } => {
                let sys = figure1(p);
                write_model(&sys.model, &MamaModel::new(), &rewards(&sys))
            }
            Model::Arch { kind, p } => {
                let sys = figure1(p);
                write_model(&sys.model, &arch::build(kind, &sys, p), &rewards(&sys))
            }
            Model::AsPublished => {
                let sys = figure1(0.1);
                let mama = arch::distributed_as_published(&sys, 0.1);
                write_model(&sys.model, &mama, &rewards(&sys))
            }
            Model::Plane {
                topology,
                chains,
                p,
            } => {
                let plane = synth_plane(&PlaneSpec {
                    chains,
                    topology,
                    server_fail: p,
                    mgmt_fail: p,
                });
                write_model(&plane.model, &plane.mama, &[(plane.users, 1.0)])
            }
        }
    }

    /// Short name for reports: the paper column or plane shape.
    pub fn name(&self) -> String {
        match *self {
            Model::AppOnly { .. } => "perfect".into(),
            Model::Arch { kind, .. } => kind.name().into(),
            Model::AsPublished => "distributed-as-published".into(),
            Model::Plane {
                topology, chains, ..
            } => format!("{}x{chains}", topology.name()),
        }
    }

    /// The per-component failure probability the model was built with.
    pub fn p(&self) -> f64 {
        match *self {
            Model::AppOnly { p } | Model::Arch { p, .. } | Model::Plane { p, .. } => p,
            Model::AsPublished => 0.1,
        }
    }
}

fn figure1(p: f64) -> fmperf::ftlqn::examples::DasWoodsideSystem {
    das_woodside_system_with(DasWoodsideParams {
        fail_prob: p,
        ..DasWoodsideParams::default()
    })
}

fn rewards(
    sys: &fmperf::ftlqn::examples::DasWoodsideSystem,
) -> Vec<(fmperf::ftlqn::FtTaskId, f64)> {
    vec![(sys.user_a, 1.0), (sys.user_b, 1.0)]
}

/// The daemon endpoint a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/analyze`.
    Analyze,
    /// `POST /v1/sweep` of `proc3`.
    Sweep,
    /// `POST /v1/campaign`, singles or singles plus pairs.
    Campaign {
        /// Also every unordered pair of injections.
        pairwise: bool,
    },
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Endpoint.
    pub kind: Kind,
    /// The model posted as the body.
    pub model: Model,
    /// `policy=all` instead of the default `any`.
    pub policy_all: bool,
    /// `unmonitored_known=true`.
    pub unmonitored_known: bool,
    /// `samples`/`seed` for the sampling rung, when the request sets them.
    pub sampling: Option<(u64, u64)>,
    /// Model text (shared: the hot mix posts the same few models).
    pub body: Arc<str>,
}

impl Request {
    fn new(kind: Kind, model: Model, body: Arc<str>) -> Request {
        Request {
            kind,
            model,
            policy_all: false,
            unmonitored_known: false,
            sampling: None,
            body,
        }
    }

    /// Request target: path plus query string.
    pub fn target(&self) -> String {
        let path = match self.kind {
            Kind::Analyze => "/v1/analyze",
            Kind::Sweep => "/v1/sweep",
            Kind::Campaign { .. } => "/v1/campaign",
        };
        let mut q = format!(
            "{path}?budget_ms={BUDGET_MS}&policy={}",
            if self.policy_all { "all" } else { "any" }
        );
        if self.unmonitored_known {
            q.push_str("&unmonitored_known=true");
        }
        if let Some((samples, seed)) = self.sampling {
            q.push_str(&format!("&samples={samples}&seed={seed}"));
        }
        match self.kind {
            Kind::Sweep => q.push_str(&format!(
                "&component=proc3&from={SWEEP_FROM}&to={SWEEP_TO}&steps={SWEEP_STEPS}"
            )),
            Kind::Campaign { pairwise: true } => q.push_str("&pairwise=true"),
            _ => {}
        }
        q
    }

    /// The raw HTTP/1.1 request bytes.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "POST {} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            self.target(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// The cache key this request resolves to in the daemon.
    pub fn cache_key(&self) -> (String, bool, bool) {
        (self.model.name(), self.policy_all, self.unmonitored_known)
    }
}

/// How the timed phase offers its requests.
#[derive(Debug, Clone)]
pub enum Timed {
    /// Independent users: request `i` is due `due[i]` after the start,
    /// sent on the first free connection, and timed from its due time.
    Open {
        /// The requests, in due order.
        requests: Vec<Request>,
        /// Due offsets from the start of the timed phase.
        due: Vec<Duration>,
    },
    /// One caller waiting for each reply: whole passes over the same
    /// operations until the run time is used up.
    Closed {
        /// Pass `k` is `passes[k]`; the run stops at the first pass
        /// boundary after the run time.
        passes: Vec<Vec<Request>>,
    },
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Untimed requests answered before the timed phase (set-up).
    pub warmup: Vec<Request>,
    /// The timed phase.
    pub timed: Timed,
}

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "campaign", "rare-event"];

/// Offered rate of `serve-hot`, requests per second: about a fifth of
/// the one-worker capacity for hits (5 ms of CPU each).  At 60 req/s the
/// two connections queue behind the acceptor's poll often enough that
/// the tail swings with the host's speed.
pub const HOT_RATE: f64 = 40.0;
/// Offered rate of `serve-cold`, requests per second: about a third of
/// the one-worker capacity for cold requests (20 ms of CPU each).
pub const COLD_RATE: f64 = 15.0;

/// Builds a workload's plan from its seed and run length.
pub fn plan(workload: &str, seed: u64, seconds: u64) -> Option<Plan> {
    Some(match workload {
        "serve-hot" => serve_hot(seed, seconds),
        "serve-cold" => serve_cold(seed, seconds),
        "campaign" => campaign(seed),
        "rare-event" => rare_event(seed),
        _ => return None,
    })
}

/// `n` arrival offsets of a Poisson process conditioned on `n`
/// arrivals in `[0, seconds)`: sorted uniform points.  The gaps are
/// exponential, and every run of a given length offers exactly `n`
/// requests.
fn arrivals(rng: &mut Rng, n: usize, seconds: u64) -> Vec<Duration> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * seconds as f64).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// Whole rounds from `round` until they hold at least `rate × seconds`
/// requests.
fn whole_rounds(rate: f64, seconds: u64, mut round: impl FnMut() -> Vec<Request>) -> Vec<Request> {
    let target = ((rate * seconds as f64).round() as usize).max(1);
    let mut out = Vec::new();
    while out.len() < target {
        out.extend(round());
    }
    out
}

/// The `serve-hot` cache keys: the five paper models and the app-only
/// Figure 1 system at p = 0.1 under both policies, plus the published
/// distributed architecture with unmonitored components known (the
/// paper's own reading of that column).
fn hot_keys() -> Vec<Request> {
    let models = [
        Model::AppOnly { p: 0.1 },
        Model::Arch {
            kind: ArchKind::Centralized,
            p: 0.1,
        },
        Model::Arch {
            kind: ArchKind::Distributed,
            p: 0.1,
        },
        Model::AsPublished,
        Model::Arch {
            kind: ArchKind::Hierarchical,
            p: 0.1,
        },
        Model::Arch {
            kind: ArchKind::Network,
            p: 0.1,
        },
    ];
    let mut keys = Vec::new();
    for model in models {
        let body: Arc<str> = model.text().into();
        for policy_all in [false, true] {
            let mut r = Request::new(Kind::Analyze, model, Arc::clone(&body));
            r.policy_all = policy_all;
            keys.push(r.clone());
            if model == Model::AsPublished {
                r.unmonitored_known = true;
                keys.push(r);
            }
        }
    }
    keys
}

fn serve_hot(seed: u64, seconds: u64) -> Plan {
    let keys = hot_keys();
    let mut round: Vec<Request> = Vec::new();
    for k in &keys {
        round.push(k.clone());
        let mut s = k.clone();
        s.kind = Kind::Sweep;
        round.push(s);
    }
    let mut order = Rng::stream(seed, "hot-order");
    let requests = whole_rounds(HOT_RATE, seconds, || {
        let mut r = round.clone();
        order.shuffle(&mut r);
        r
    });
    let due = arrivals(
        &mut Rng::stream(seed, "hot-arrivals"),
        requests.len(),
        seconds,
    );
    Plan {
        warmup: keys,
        timed: Timed::Open { requests, due },
    }
}

/// One `serve-cold` round: nine models the daemon has never seen.
fn cold_round(rng: &mut Rng) -> Vec<Request> {
    let mut models = vec![Model::AppOnly {
        p: rng.range(0.02, 0.2),
    }];
    for kind in ArchKind::ALL {
        models.push(Model::Arch {
            kind,
            p: rng.range(0.02, 0.2),
        });
    }
    // Three 14–16-fallible planes (two chains) and one 20–22-fallible
    // plane (three chains), topologies drawn per round.
    for chains in [2, 2, 2, 3] {
        let topology = PlaneTopology::ALL[(rng.next_u64() % 3) as usize];
        models.push(Model::Plane {
            topology,
            chains,
            p: rng.range(1e-3, 5e-2),
        });
    }
    models
        .into_iter()
        .map(|m| {
            let mut r = Request::new(Kind::Analyze, m, m.text().into());
            r.policy_all = rng.next_u64() & 1 == 1;
            r
        })
        .collect()
}

fn serve_cold(seed: u64, seconds: u64) -> Plan {
    // Warm-up models come from their own stream, so no timed request
    // repeats one of them.
    let warmup = cold_round(&mut Rng::stream(seed, "cold-warmup"));
    let mut rng = Rng::stream(seed, "cold-models");
    let requests = whole_rounds(COLD_RATE, seconds, || {
        let mut r = cold_round(&mut rng);
        rng.shuffle(&mut r);
        r
    });
    let due = arrivals(
        &mut Rng::stream(seed, "cold-arrivals"),
        requests.len(),
        seconds,
    );
    Plan {
        warmup,
        timed: Timed::Open { requests, due },
    }
}

/// Passes generated for the closed-loop workloads; a run stops at the
/// first pass boundary after its run time, long before this many.
const MAX_PASSES: usize = 64;

/// Singles campaigns per architecture and pass; the pairwise campaign
/// reuses the first of them, so its rows can be checked against the
/// singles.
const CAMPAIGN_SINGLES: usize = 3;

fn campaign(seed: u64) -> Plan {
    let mut rng = Rng::stream(seed, "campaign");
    let mut passes = Vec::new();
    for _ in 0..MAX_PASSES {
        let mut pass = Vec::new();
        for kind in ArchKind::ALL {
            for k in 0..CAMPAIGN_SINGLES {
                let model = Model::Arch {
                    kind,
                    p: rng.range(0.05, 0.15),
                };
                let body: Arc<str> = model.text().into();
                if k == 0 {
                    let pairwise = Kind::Campaign { pairwise: true };
                    pass.push(Request::new(pairwise, model, Arc::clone(&body)));
                }
                pass.push(Request::new(
                    Kind::Campaign { pairwise: false },
                    model,
                    body,
                ));
            }
        }
        rng.shuffle(&mut pass);
        passes.push(pass);
    }
    let warm = Model::Arch {
        kind: ArchKind::Centralized,
        p: 0.1,
    };
    Plan {
        warmup: vec![Request::new(
            Kind::Campaign { pairwise: false },
            warm,
            warm.text().into(),
        )],
        timed: Timed::Closed { passes },
    }
}

/// The `rare-event` planes: the 28-fallible deep hierarchy (four
/// chains), small enough for an exact scan to check the estimate and
/// large enough that both MTBDD builds trip the node cap first, and one
/// plane of about 200 fallible components per topology, where sampling
/// and the per-configuration reward solves dominate.
pub fn rare_planes() -> Vec<Model> {
    let p = fmperf::mama::PLANE_SERVER_FAIL;
    let mut out = vec![Model::Plane {
        topology: PlaneTopology::DeepHierarchy,
        chains: 4,
        p,
    }];
    for topology in PlaneTopology::ALL {
        out.push(Model::Plane {
            topology,
            chains: PlaneSpec::sized(200, topology).chains,
            p,
        });
    }
    out
}

/// Analyses of each 200-fallible plane per pass (the 28-fallible plane
/// runs once per pass).
const RARE_LARGE_PER_PASS: usize = 2;

fn rare_event(seed: u64) -> Plan {
    let mut rng = Rng::stream(seed, "rare");
    let planes: Vec<(Model, Arc<str>)> = rare_planes()
        .into_iter()
        .map(|m| (m, m.text().into()))
        .collect();
    let mut passes = Vec::new();
    for _ in 0..MAX_PASSES {
        // A seed per pass; each request of the pass samples with its own
        // offset from it, so repeated planes give independent estimates.
        let pass_seed = rng.next_u64() >> 8;
        let mut pass = Vec::new();
        for (i, (m, body)) in planes.iter().enumerate() {
            let times = if i == 0 { 1 } else { RARE_LARGE_PER_PASS };
            for _ in 0..times {
                let mut r = Request::new(Kind::Analyze, *m, Arc::clone(body));
                r.sampling = Some((RARE_SAMPLES, pass_seed + pass.len() as u64));
                pass.push(r);
            }
        }
        // The 28-fallible plane leads every pass: the daemon's peak
        // memory is its MTBDD build, and how far that lands above the
        // heap the larger planes leave behind depends on their order.
        rng.shuffle(&mut pass[1..]);
        passes.push(pass);
    }
    // Set-up takes the same path as the timed requests (MTBDD refused,
    // ladder down to importance sampling) on a smaller plane.
    let warm = Model::Plane {
        topology: PlaneTopology::FleetOfAgents,
        chains: 6,
        p: fmperf::mama::PLANE_SERVER_FAIL,
    };
    let mut w = Request::new(Kind::Analyze, warm, warm.text().into());
    w.sampling = Some((RARE_SAMPLES, 1));
    Plan {
        warmup: vec![w],
        timed: Timed::Closed { passes },
    }
}
