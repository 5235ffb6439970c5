//! Answer checks, each made apart from the engine that produced the
//! answer: published paper values, a closed form, probability laws,
//! relations between answers, and exact references for the sampled
//! answers.  They run after the timed phase.  A timed answer that fails
//! a check counts as a failed operation.

use crate::gen::{Kind, Model, SWEEP_OWN_POINT};
use crate::json::Json;
use crate::Answer;
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of checking one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed check.
    pub messages: Vec<String>,
    /// Indices of timed answers that failed a check.
    pub bad: BTreeSet<usize>,
}

impl Verdict {
    /// Records a failed check against timed answer `ix` (`None` for a
    /// warm-up answer, which is untimed and not an operation).
    fn fail(&mut self, ix: Option<usize>, msg: String) {
        if let Some(i) = ix {
            self.bad.insert(i);
        }
        self.messages.push(msg);
    }
}

/// Paper Tables 1–2 at p = 0.1: configuration probabilities C1..C6 and
/// `failed` per column (Das & Woodside, DSN 2002, §6).
const PAPER: [(&str, [f64; 7]); 5] = [
    ("perfect", [0.125, 0.024, 0.125, 0.024, 0.531, 0.101, 0.071]),
    (
        "centralized",
        [0.117, 0.021, 0.117, 0.021, 0.314, 0.057, 0.354],
    ),
    (
        "distributed-as-published",
        [0.082, 0.041, 0.307, 0.036, 0.349, 0.046, 0.139],
    ),
    (
        "hierarchical",
        [0.225, 0.014, 0.076, 0.014, 0.206, 0.037, 0.428],
    ),
    ("network", [0.148, 0.026, 0.148, 0.026, 0.282, 0.049, 0.321]),
];

/// Tolerance on a published table value (its printed precision).
const PAPER_TOL: f64 = 0.0015;

/// Exact failure probability of the `rare-event` planes small enough
/// for an exhaustive scan, keyed by model name.  Computed with the
/// compiled kernel scan over all 2^N states (exact, and not the sampler
/// under test); `exact_references_hold` recomputes them.
pub const RARE_EXACT: [(&str, f64); 1] = [("deep-hierarchyx4", 0.000_200_054_981_500_205_67)];

/// Checks every answer of one run.  `warm` are the untimed warm-up
/// answers, `timed` the timed ones.
pub fn check(workload: &str, warm: &[Answer<'_>], timed: &[Answer<'_>]) -> Verdict {
    let mut v = Verdict::default();
    let all = || {
        warm.iter()
            .map(|a| (None, a))
            .chain(timed.iter().enumerate().map(|(i, a)| (Some(i), a)))
    };
    for (ix, a) in all() {
        let Some(j) = &a.json else { continue };
        match a.req.kind {
            Kind::Analyze => {
                distribution(&mut v, ix, a, j);
                paper(&mut v, ix, a, j);
                closed_form(&mut v, ix, a, j);
            }
            Kind::Sweep => sweep_shape(&mut v, ix, a, j),
            Kind::Campaign { .. } => {}
        }
    }
    match workload {
        "serve-hot" => {
            hits_match_cold(&mut v, warm, timed);
            sweeps_match_analyze(&mut v, warm, timed);
        }
        "serve-cold" => monotone_in_p(&mut v, timed),
        "campaign" => campaigns(&mut v, timed),
        "rare-event" => rare(&mut v, timed),
        _ => {}
    }
    v
}

fn who(a: &Answer<'_>) -> String {
    format!(
        "{} {} (p={})",
        a.req.target(),
        a.req.model.name(),
        a.req.model.p()
    )
}

/// `(label, probability)` rows of an analyze answer.
fn configurations(j: &Json) -> Vec<(String, f64)> {
    j.get("configurations")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| Some((c.get("label")?.str()?.to_string(), c.f("probability")?)))
        .collect()
}

const FAILED_LABEL: &str = "{system failed}";

/// (c) Probabilities: in `[0, 1]`, summing to 1 within 1e-9, with the
/// failed configuration's row equal to `failed`.
fn distribution(v: &mut Verdict, ix: Option<usize>, a: &Answer<'_>, j: &Json) {
    let Some(failed) = j.f("failed") else {
        return v.fail(ix, format!("{}: no `failed`", who(a)));
    };
    let rows = configurations(j);
    if rows.iter().any(|(_, p)| !(0.0..=1.0).contains(p)) || !(0.0..=1.0).contains(&failed) {
        return v.fail(ix, format!("{}: probability outside [0, 1]", who(a)));
    }
    let listed_failed: f64 = rows
        .iter()
        .filter(|(l, _)| l == FAILED_LABEL)
        .map(|r| r.1)
        .sum();
    let up: f64 = rows
        .iter()
        .filter(|(l, _)| l != FAILED_LABEL)
        .map(|r| r.1)
        .sum();
    if (up + failed - 1.0).abs() > 1e-9 {
        v.fail(
            ix,
            format!("{}: operational {up} + failed {failed} != 1", who(a)),
        );
    }
    if listed_failed != 0.0 && (listed_failed - failed).abs() > 1e-12 {
        v.fail(
            ix,
            format!("{}: failed row {listed_failed} != failed {failed}", who(a)),
        );
    }
}

/// The paper's configuration name for a label: C1..C6 or `failed`.
fn paper_config(label: &str) -> Option<usize> {
    if label == FAILED_LABEL {
        return Some(6);
    }
    let parts: BTreeSet<&str> = label
        .trim_matches(|c| c == '{' || c == '}')
        .split(", ")
        .collect();
    let a = parts.contains("userA");
    let b = parts.contains("userB");
    let backup = parts.contains("eA-2") || parts.contains("eB-2");
    match (a, b, backup) {
        (true, false, false) => Some(0),
        (true, false, true) => Some(1),
        (false, true, false) => Some(2),
        (false, true, true) => Some(3),
        (true, true, false) => Some(4),
        (true, true, true) => Some(5),
        _ => None,
    }
}

/// (a) The §6 columns at p = 0.1 under the paper's policy (`any`) match
/// Tables 1–2; the distributed column is the published architecture
/// with unmonitored components known.
fn paper(v: &mut Verdict, ix: Option<usize>, a: &Answer<'_>, j: &Json) {
    if a.req.policy_all || a.req.model.p() != 0.1 {
        return;
    }
    let name = a.req.model.name();
    if (name == "distributed-as-published") != a.req.unmonitored_known {
        return;
    }
    let Some((_, expect)) = PAPER.iter().find(|(n, _)| *n == name) else {
        return;
    };
    let mut got = [0.0; 7];
    for (label, p) in configurations(j) {
        match paper_config(&label) {
            Some(6) => {}
            Some(c) => got[c] += p,
            None => return v.fail(ix, format!("{}: unexpected configuration {label}", who(a))),
        }
    }
    got[6] = j.f("failed").unwrap_or(f64::NAN);
    for (c, (g, e)) in got.iter().zip(expect).enumerate() {
        if (g - e).abs() > PAPER_TOL {
            let col = if c == 6 {
                "failed".into()
            } else {
                format!("C{}", c + 1)
            };
            v.fail(ix, format!("{}: {col} = {g:.4}, paper says {e}", who(a)));
        }
    }
}

/// (b) The app-only Figure 1 system fails when neither user chain
/// works: P = 1 − (1 − (1 − (1−p)²)²)².
fn closed_form(v: &mut Verdict, ix: Option<usize>, a: &Answer<'_>, j: &Json) {
    let Model::AppOnly { p } = a.req.model else {
        return;
    };
    let node = (1.0 - p) * (1.0 - p);
    let either = 1.0 - (1.0 - node) * (1.0 - node);
    let expect = 1.0 - either * either;
    let got = j.f("failed").unwrap_or(f64::NAN);
    if (got - expect).abs() > 1e-12 {
        v.fail(
            ix,
            format!("{}: failed {got}, closed form {expect}", who(a)),
        );
    }
}

/// (d) A sweep's `failed` never rises with availability.
fn sweep_shape(v: &mut Verdict, ix: Option<usize>, a: &Answer<'_>, j: &Json) {
    let pts = sweep_points(j);
    if pts.len() != crate::gen::SWEEP_STEPS {
        return v.fail(ix, format!("{}: {} sweep points", who(a), pts.len()));
    }
    for w in pts.windows(2) {
        if w[1].0 <= w[0].0 || w[1].1 > w[0].1 + 1e-12 {
            return v.fail(
                ix,
                format!("{}: failed rises from {:?} to {:?}", who(a), w[0], w[1]),
            );
        }
    }
}

fn sweep_points(j: &Json) -> Vec<(f64, f64)> {
    j.get("points")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| Some((p.f("availability")?, p.f("failed")?)))
        .collect()
}

/// Cache-key of an answer's request.
type Key = (String, bool, bool);

/// The cold (warm-up) analyze answer per cache key.
fn cold_answers<'a>(warm: &'a [Answer<'_>]) -> BTreeMap<Key, &'a Json> {
    warm.iter()
        .filter(|a| a.req.kind == Kind::Analyze)
        .filter_map(|a| Some((a.req.cache_key(), a.json.as_ref()?)))
        .collect()
}

/// (c) A hit returns exactly the cold answer for the same model and
/// policy.
fn hits_match_cold(v: &mut Verdict, warm: &[Answer<'_>], timed: &[Answer<'_>]) {
    let cold = cold_answers(warm);
    for (i, a) in timed.iter().enumerate() {
        let (Kind::Analyze, Some(j)) = (a.req.kind, &a.json) else {
            continue;
        };
        if j.get("cache").and_then(Json::str) != Some("hit") {
            v.fail(Some(i), format!("{}: not a cache hit", who(a)));
            continue;
        }
        let Some(c) = cold.get(&a.req.cache_key()) else {
            v.fail(Some(i), format!("{}: no cold answer to compare", who(a)));
            continue;
        };
        let same_reward = match (j.f("reward"), c.f("reward")) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * y.abs().max(1.0),
            (None, None) => true,
            _ => false,
        };
        if j.f("failed") != c.f("failed") || configurations(j) != configurations(c) || !same_reward
        {
            v.fail(
                Some(i),
                format!("{}: hit differs from the cold answer", who(a)),
            );
        }
    }
}

/// (d) Sweep point 53 (availability 0.9, the model's own) equals the
/// analyze answer of the same cache key.
fn sweeps_match_analyze(v: &mut Verdict, warm: &[Answer<'_>], timed: &[Answer<'_>]) {
    let cold = cold_answers(warm);
    for (i, a) in timed.iter().enumerate() {
        let (Kind::Sweep, Some(j)) = (a.req.kind, &a.json) else {
            continue;
        };
        let pts = sweep_points(j);
        let (Some(&(avail, failed)), Some(c)) =
            (pts.get(SWEEP_OWN_POINT), cold.get(&a.req.cache_key()))
        else {
            v.fail(
                Some(i),
                format!("{}: nothing to compare the sweep with", who(a)),
            );
            continue;
        };
        let own = c.f("failed").unwrap_or(f64::NAN);
        if (avail - 0.9).abs() > 1e-12 || (failed - own).abs() > 1e-12 {
            v.fail(
                Some(i),
                format!(
                    "{}: sweep at {avail} gives {failed}, analyze gives {own}",
                    who(a)
                ),
            );
        }
    }
}

/// (c) `failed` never falls as the failure probability rises, per
/// architecture (or plane shape) and policy.
fn monotone_in_p(v: &mut Verdict, timed: &[Answer<'_>]) {
    let mut groups: BTreeMap<_, Vec<(f64, f64, usize)>> = BTreeMap::new();
    for (i, a) in timed.iter().enumerate() {
        if let Some(f) = a.json.as_ref().and_then(|j| j.f("failed")) {
            groups
                .entry((a.req.model.name(), a.req.policy_all))
                .or_default()
                .push((a.req.model.p(), f, i));
        }
    }
    for ((name, all), mut rows) in groups {
        rows.sort_by(|x, y| x.0.total_cmp(&y.0));
        for w in rows.windows(2) {
            if w[1].1 < w[0].1 * (1.0 - 1e-12) {
                v.fail(
                    Some(w[1].2),
                    format!(
                        "{name} policy_all={all}: failed {} at p={} below {} at p={}",
                        w[1].1, w[1].0, w[0].1, w[0].0
                    ),
                );
            }
        }
    }
}

/// (e) Campaigns: every scenario ok; n singles, n(n+1)/2 rows with
/// pairs; a single is at least the baseline, a pair at least the larger
/// of its singles (relative slack 1e-9 for summation order).
fn campaigns(v: &mut Verdict, timed: &[Answer<'_>]) {
    // Singles per model instance, for the pairwise answers.
    let mut singles: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let inst = |a: &Answer<'_>| format!("{} {}", a.req.model.name(), a.req.model.p());
    let rows_of = |j: &Json| -> Option<Vec<(String, f64)>> {
        let mut out = Vec::new();
        for s in j.get("scenarios")?.arr() {
            if s.get("ok") != Some(&Json::Bool(true)) {
                return None;
            }
            out.push((s.get("label")?.str()?.to_string(), s.f("failed")?));
        }
        Some(out)
    };
    for a in timed {
        if let (Kind::Campaign { pairwise: false }, Some(j)) = (a.req.kind, &a.json) {
            if let Some(rows) = rows_of(j) {
                singles.insert(inst(a), rows.into_iter().collect());
            }
        }
    }
    for (i, a) in timed.iter().enumerate() {
        let (Kind::Campaign { pairwise }, Some(j)) = (a.req.kind, &a.json) else {
            continue;
        };
        let Some(rows) = rows_of(j) else {
            v.fail(Some(i), format!("{}: a scenario is not ok", who(a)));
            continue;
        };
        let baseline = j
            .get("baseline")
            .and_then(|b| b.f("failed"))
            .unwrap_or(f64::NAN);
        let Some(single) = singles.get(&inst(a)) else {
            v.fail(
                Some(i),
                format!("{}: no singles campaign to compare", who(a)),
            );
            continue;
        };
        let n = single.len();
        let expect = if pairwise { n * (n + 1) / 2 } else { n };
        if rows.len() != expect || n == 0 {
            v.fail(
                Some(i),
                format!("{}: {} rows, expected {expect}", who(a), rows.len()),
            );
            continue;
        }
        for (label, failed) in &rows {
            let parts: Vec<&str> = label.split(" + ").collect();
            let floor = match parts.as_slice() {
                [one] => single.get(*one).copied().map(|_| baseline),
                [x, y] => single
                    .get(*x)
                    .zip(single.get(*y))
                    .map(|(p, q)| p.max(*q) * (1.0 - 1e-9)),
                _ => None,
            };
            match floor {
                Some(f) if *failed >= f => {}
                Some(f) => {
                    v.fail(
                        Some(i),
                        format!("{}: {label} failed {failed} < {f}", who(a)),
                    );
                    break;
                }
                None => {
                    v.fail(Some(i), format!("{}: unknown scenario {label}", who(a)));
                    break;
                }
            }
        }
    }
}

/// (f) Rare events: the estimate lies within four half-widths of the
/// exact answer where one is known, and one plane's estimates agree
/// across passes within four combined half-widths.
fn rare(v: &mut Verdict, timed: &[Answer<'_>]) {
    let mut by_plane: BTreeMap<String, Vec<(f64, f64, usize)>> = BTreeMap::new();
    for (i, a) in timed.iter().enumerate() {
        let Some(j) = &a.json else { continue };
        let name = a.req.model.name();
        let Some((mean, hw)) = j
            .get("estimate")
            .and_then(|e| Some((e.f("failed_mean")?, e.f("failed_half_width")?)))
        else {
            v.fail(Some(i), format!("{}: no sampled estimate", who(a)));
            continue;
        };
        if j.get("engine").and_then(Json::str) != Some("importance-sampling") {
            v.fail(Some(i), format!("{}: not importance sampling", who(a)));
        }
        if let Some((_, exact)) = RARE_EXACT.iter().find(|(n, _)| *n == name) {
            if (mean - exact).abs() > 4.0 * hw {
                v.fail(
                    Some(i),
                    format!("{}: estimate {mean} ± {hw}, exact {exact}", who(a)),
                );
            }
        }
        by_plane.entry(name).or_default().push((mean, hw, i));
    }
    for (name, ests) in by_plane {
        for (k, x) in ests.iter().enumerate() {
            for y in &ests[k + 1..] {
                if (x.0 - y.0).abs() > 4.0 * (x.1 * x.1 + y.1 * y.1).sqrt() {
                    v.fail(
                        Some(y.2),
                        format!(
                            "{name}: passes disagree: {} ± {} vs {} ± {}",
                            x.0, x.1, y.0, y.1
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_labels_classify() {
        assert_eq!(paper_config("{userA, eA, eA-1, serviceA}"), Some(0));
        assert_eq!(paper_config("{userB, eB, eB-2, serviceB}"), Some(3));
        assert_eq!(paper_config("{userA, userB, eA, eB, eA-1, eB-1}"), Some(4));
        assert_eq!(paper_config(FAILED_LABEL), Some(6));
    }

    /// Recomputes [`RARE_EXACT`] with the exhaustive kernel scan.
    /// Slow in a debug build: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn exact_references_hold() {
        use fmperf::core::Analysis;
        use fmperf::mama::{ComponentSpace, KnowTable};
        for (name, expect) in RARE_EXACT {
            let model = crate::gen::rare_planes()
                .into_iter()
                .find(|m| m.name() == name)
                .expect("a rare-event plane");
            let parsed = fmperf::text::parse(&model.text()).unwrap();
            let graph = fmperf::ftlqn::FaultGraph::build(&parsed.app).unwrap();
            let space = ComponentSpace::build(&parsed.app, &parsed.mama);
            let table = KnowTable::build(&graph, &parsed.mama, &space);
            let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
            let scan = analysis.enumerate_parallel(2).failed_probability();
            println!("{name}: {scan:e}");
            assert!((scan - expect).abs() <= 1e-15, "{name}: {scan} != {expect}");
        }
    }
}
