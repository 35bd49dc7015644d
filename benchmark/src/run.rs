//! Running workloads and reporting: one workload in this process
//! (what `BENCHMARK.json`'s command does), or all four, each in a child
//! process of its own so that peak memory and leaked threads never
//! cross workloads.

use crate::json::{obj, Json};
use crate::metrics::{self, Better, EndToEndValues, LayerValues, Stat, Traced};
use crate::trace::Tracer;
use crate::workloads::{self, Limit, RunOutput, Witness, WorkloadDef, THREADS, WORKLOADS};
use crate::{probes, world};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Measured rounds a timed run is split into (half a second each at
/// the default 20 s). Many short rounds, because the headline is the
/// best-decile round and it needs a decile to pick from.
const ROUNDS: usize = 40;
/// Warm-up before the first measured round: `write_fsync` takes about
/// two seconds to fill the server's buffer cache and wrap the log, and
/// is 40 % faster until it has.
const WARMUP: Duration = Duration::from_secs(3);
/// Set-ups timed per untraced run (`setup_s` is their median): at
/// least `.0`, then more until `.1` has been spent, at most `.2`.
const SETUPS: (usize, Duration, usize) = (3, Duration::from_millis(1500), 15);

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub strict: bool,
    /// Diagnostic: run the clients' background flusher.
    pub flusher: bool,
    pub out: Option<PathBuf>,
}

/// The end-to-end metrics `BENCHMARK.json` lists: the ones every
/// workload reports and none reports as 0. `primary_p50_us` is the
/// latency of the op type the workload is named for.
pub const CONTRACT_END_TO_END: [&str; 5] =
    ["ops_per_s", "cpu_us_per_op", "primary_p50_us", "peak_rss_mb", "setup_s"];

/// The metric a `BENCHMARK.json` end-to-end name reads from on `def`;
/// unit, direction and bound are the source's.
fn contract_source(def: &WorkloadDef, name: &str) -> &'static metrics::EndToEnd {
    let source = match name {
        "primary_p50_us" => format!("{}_p50_us", def.primary().name()),
        other => other.to_string(),
    };
    metrics::END_TO_END.iter().find(|m| m.name == source).expect("contract metric has a source")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark also runs in exported trees, where there is none).
fn git_commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default().trim().to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses to measure where the numbers would not mean what the README
/// says they mean.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built without --release; measure optimized builds only".into());
    }
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DFS_"))
    {
        return Err(format!(
            "{} is set; the benchmark runs the crates' defaults",
            k.to_string_lossy()
        ));
    }
    if nproc() < THREADS {
        return Err(format!("{} core(s); the {THREADS} driver threads need one each", nproc()));
    }
    Ok(())
}

struct Plan {
    rounds: usize,
    warmup: Limit,
    limit: Limit,
}

impl Plan {
    fn new(def: &WorkloadDef, opts: &Options, rounds: usize) -> Plan {
        if opts.smoke {
            return Plan {
                rounds: 1,
                warmup: Limit::ops(def.smoke_ops / 2),
                limit: Limit::ops(def.smoke_ops),
            };
        }
        let round = Duration::from_secs_f64(opts.seconds as f64 / ROUNDS as f64);
        Plan { rounds, warmup: Limit::time(WARMUP), limit: Limit::time(round) }
    }

    fn json(&self) -> Json {
        obj([
            ("rounds", (self.rounds as u64).into()),
            ("warmup_seconds", self.warmup.time.as_secs_f64().into()),
            ("round_seconds", self.limit.time.as_secs_f64().into()),
            (
                "round_ops_per_thread",
                if self.limit.ops == u64::MAX { Json::Null } else { self.limit.ops.into() },
            ),
        ])
    }
}

fn witness_json(workload: &str, w: &Witness) -> Json {
    let mut pairs = vec![
        ("workload", workload.into()),
        ("client", u64::from(w.client).into()),
        ("round", (w.round as u64).into()),
        ("op", w.op.as_str().into()),
        ("fid", format!("{:?}", w.fid).into()),
        ("expected_tag", format!("{:#018x}", w.expected_tag).into()),
    ];
    match &w.observed {
        Ok(Some(tag)) => pairs.push(("observed_tag", format!("{tag:#018x}").into())),
        Ok(None) => pairs.push(("observed_tag", Json::Null)),
        Err(e) => pairs.push(("error", e.as_str().into())),
    }
    obj(pairs)
}

fn e2e_json(values: &EndToEndValues) -> Json {
    obj(values.iter().map(|(m, s, by_round)| {
        let stats = [
            ("value", s.value),
            ("quartile", s.quartile),
            ("median", s.median),
            ("min", s.min),
            ("max", s.max),
        ];
        let stats = stats.into_iter().map(|(k, v)| (k, Json::Num(v)));
        let by_round = Json::Arr(by_round.iter().map(|v| Json::Num(*v)).collect());
        (m.name, obj(stats.chain([("unit", m.unit.into()), ("by_round", by_round)])))
    }))
}

fn layer_json(values: &LayerValues) -> Json {
    obj(values.iter().map(|(name, unit, v)| {
        (name.as_str(), obj([("value", (*v).into()), ("unit", (*unit).into())]))
    }))
}

fn print_e2e(workload: &str, values: &EndToEndValues) {
    for (m, s, _) in values {
        println!(
            "{workload:<15} {:<34} {:>16.4} {:<7} median {:.4} [{:.4} .. {:.4}]",
            m.name, s.value, m.unit, s.median, s.min, s.max
        );
    }
}

fn print_layer(workload: &str, values: &LayerValues) {
    for (name, unit, v) in values {
        println!("{workload:<15} {name:<34} {v:>16.4} {unit}");
    }
}

/// What measuring one workload produced.
struct Measured {
    plan: Plan,
    e2e: EndToEndValues,
    layer: LayerValues,
    /// Per-(name, label) span aggregates of a traced run.
    spans: Json,
    outputs: Vec<RunOutput>,
}

fn describe(def: &WorkloadDef, e: dfs_types::DfsError) -> String {
    format!("{}: {e:?}", def.name)
}

/// The untraced run: all the rounds in one plain world, then more
/// set-ups for `setup_s`.
fn measure_untraced(def: &WorkloadDef, opts: &Options) -> Result<Measured, String> {
    let err = |e| describe(def, e);
    let plan = Plan::new(def, opts, ROUNDS);
    let timed_setup = || -> Result<(workloads::Prepared, f64), String> {
        let t0 = Instant::now();
        let p = workloads::prepare(def, opts.seed, None, opts.flusher).map_err(err)?;
        Ok((p, t0.elapsed().as_secs_f64()))
    };
    let (mut p, first) = timed_setup()?;
    let out = p.run(plan.warmup, plan.rounds, plan.limit);
    p.teardown().map_err(err)?;
    let peak_rss_mb = world::peak_rss_mb();
    // One set-up is too short to repeat well, so set up again, several
    // times, and report the median. After the measured run, so the
    // extra worlds cannot raise its peak memory.
    let mut setup_s = vec![first];
    let started = Instant::now();
    while !opts.smoke
        && setup_s.len() < SETUPS.2
        && (setup_s.len() < SETUPS.0 || started.elapsed() < SETUPS.1)
    {
        let (p, s) = timed_setup()?;
        p.teardown().map_err(err)?;
        setup_s.push(s);
    }
    let setup_s = Stat::median(&setup_s, Better::Lower);
    Ok(Measured {
        plan,
        e2e: metrics::end_to_end(def, &out, setup_s, peak_rss_mb),
        layer: metrics::per_layer(&out, None, None),
        spans: Json::Null,
        outputs: vec![out],
    })
}

/// The traced run: half the rounds in a plain world (counts, per-type
/// latencies and the overhead baseline), half in one with the span
/// wrappers installed, then the direct probes.
fn measure_traced(def: &WorkloadDef, opts: &Options) -> Result<Measured, String> {
    let err = |e| describe(def, e);
    let plan = Plan::new(def, opts, ROUNDS / 2);
    let t0 = Instant::now();
    let mut p = workloads::prepare(def, opts.seed, None, opts.flusher).map_err(err)?;
    let setup_s = Stat::single(t0.elapsed().as_secs_f64());
    let untraced = p.run(plan.warmup, plan.rounds, plan.limit);
    p.teardown().map_err(err)?;

    let tracer = Tracer::new(def.sample_every);
    let mut p =
        workloads::prepare(def, opts.seed, Some(tracer.clone()), opts.flusher).map_err(err)?;
    let traced = p.run(plan.warmup, plan.rounds, plan.limit);
    p.teardown().map_err(err)?;
    let aggs = tracer.aggregates();
    let path = out_dir().join(format!("trace-{}.json", def.name));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.spans_json(def.name).render()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{:<15} span file: {}", def.name, path.display());
    let spans = obj(aggs.iter().map(|a| {
        let bg = if a.foreground { "" } else { "/bg" };
        let stats = obj([
            ("count", a.hist.count().into()),
            ("total_us", (a.hist.sum_ns() as f64 / 1e3).into()),
            ("p50_us", a.hist.p50_us().into()),
            ("p99_us", a.hist.p99_us().map_or(Json::Null, Json::Num)),
        ]);
        (format!("{}/{}{bg}", a.name, a.label), stats)
    }));

    let probes = probes::run().map_err(err)?;
    let spans_of = Traced { out: &traced, aggs: &aggs };
    Ok(Measured {
        plan,
        e2e: metrics::end_to_end(def, &untraced, setup_s, world::peak_rss_mb()),
        layer: metrics::per_layer(&untraced, Some(&spans_of), Some(&probes)),
        spans,
        outputs: vec![untraced, traced],
    })
}

/// Runs one workload in this process. Prints every metric by name, a
/// one-line JSON report, and last the result line `BENCHMARK.json`
/// promises. Returns whether any op failed.
pub fn run_one(def: &WorkloadDef, opts: &Options) -> Result<bool, String> {
    let measure = if opts.trace { measure_traced } else { measure_untraced };
    let Measured { plan, e2e, layer, spans, outputs } = measure(def, opts)?;

    let (mut attempted, mut failed) = (0, 0);
    let mut witnesses = Vec::new();
    for out in &outputs {
        let (a, f) = metrics::attempted_and_failed(out);
        attempted += a;
        failed += f;
        witnesses.extend(out.threads.iter().flat_map(|t| &t.witnesses));
    }
    witnesses.truncate(workloads::MAX_WITNESSES);
    let measured_ops: Vec<Json> = (1..=outputs[0].rounds)
        .map(|r| outputs[0].threads.iter().map(|t| t.rounds[r].ops).sum::<u64>().into())
        .collect();

    print_e2e(def.name, &e2e);
    print_layer(def.name, &layer);
    for w in &witnesses {
        println!("{:<15} FAILED {}", def.name, witness_json(def.name, w).render());
    }

    let report = obj([
        ("workload", def.name.into()),
        ("traced", opts.trace.into()),
        (
            "provenance",
            obj([
                ("seed", opts.seed.into()),
                ("nproc", (nproc() as u64).into()),
                ("threads", (THREADS as u64).into()),
                ("git_commit", git_commit().into()),
                ("rustc", env!("BENCH_RUSTC_VERSION").into()),
                ("smoke", opts.smoke.into()),
                ("flusher", opts.flusher.into()),
                ("plan", plan.json()),
            ]),
        ),
        ("ops_per_round", Json::Arr(measured_ops)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("end_to_end", e2e_json(&e2e)),
        ("per_layer", layer_json(&layer)),
        ("spans", spans),
        ("witnesses", Json::Arr(witnesses.iter().map(|w| witness_json(def.name, w)).collect())),
    ]);
    println!("{}", report.render());

    let metrics = if opts.trace {
        layer_json(&layer)
    } else {
        obj(CONTRACT_END_TO_END.iter().map(|name| {
            let source = contract_source(def, name);
            let value = e2e
                .iter()
                .find(|(m, ..)| m.name == source.name)
                .map_or(f64::NAN, |(_, s, _)| s.value);
            (*name, obj([("value", value.into()), ("unit", source.unit.into())]))
        }))
    };
    let result = obj([
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(failed > 0)
}

/// What a child process printed, parsed.
struct ChildReport {
    report: Json,
    result: Json,
}

fn run_child(def: &WorkloadDef, opts: &Options, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", def.name, "--seed", &opts.seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if opts.flusher {
        cmd.arg("--flusher");
    }
    // `output` waits for the child; stderr passes through.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let tail = (lines.pop(), lines.pop());
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}): child exited with {}",
            def.name,
            u8::from(trace),
            output.status
        ));
    }
    let (Some(result), Some(report)) = tail else {
        return Err(format!("{}: child printed no result", def.name));
    };
    let parse = |what: &str, line: &str| {
        Json::parse(line).map_err(|e| format!("{}: malformed {what}: {e}", def.name))
    };
    Ok(ChildReport { report: parse("report", report)?, result: parse("result line", result)? })
}

/// Checks a child's result line against what `BENCHMARK.json` promises.
fn check_result(def: &WorkloadDef, child: &ChildReport, trace: bool) -> Result<(), String> {
    let keys: Vec<&str> = child.result.entries().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{}: result line has keys {keys:?}", def.name));
    }
    let expected: Vec<String> = if trace {
        layer_names()
    } else {
        CONTRACT_END_TO_END.iter().map(|n| n.to_string()).collect()
    };
    let metrics = child.result.get("metrics").map_or(&[][..], Json::entries);
    for name in &expected {
        let value = metrics.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.get("value"));
        if value.and_then(Json::as_f64).is_none() {
            return Err(format!("{}: metric {name} is missing or not a number", def.name));
        }
    }
    if metrics.len() != expected.len() {
        return Err(format!(
            "{}: {} metrics reported, {} expected",
            def.name,
            metrics.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Every per-layer metric name, in report order.
pub fn layer_names() -> Vec<String> {
    metrics::per_layer(&RunOutput::empty(), None, None).into_iter().map(|(name, ..)| name).collect()
}

/// Runs all four workloads, each in its own child process (and again
/// traced with `--trace`), and writes one combined report for
/// `benchmark compare`. Returns whether any op failed.
pub fn run_all(opts: &Options) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut any_failed = false;
    let mut provenance = Json::Null;
    for def in &WORKLOADS {
        let untraced = run_child(def, opts, false)?;
        check_result(def, &untraced, false)?;
        let traced = if opts.trace { Some(run_child(def, opts, true)?) } else { None };
        if let Some(t) = &traced {
            check_result(def, t, true)?;
        }
        let mut failed = 0.0;
        let mut witnesses = Vec::new();
        for child in [Some(&untraced), traced.as_ref()].into_iter().flatten() {
            failed += child.report.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(Json::Arr(w)) = child.report.get("witnesses") {
                witnesses.extend(w.iter().cloned());
            }
        }
        any_failed |= failed > 0.0;
        provenance = untraced.report.get("provenance").cloned().unwrap_or(Json::Null);
        let layers = traced.as_ref().unwrap_or(&untraced);
        let field = |c: &ChildReport, k: &str| c.report.get(k).cloned().unwrap_or(Json::Null);
        workloads.push((
            def.name,
            obj([
                ("why", def.why.into()),
                ("ops_per_round", field(&untraced, "ops_per_round")),
                ("failed", failed.into()),
                ("end_to_end", field(&untraced, "end_to_end")),
                ("per_layer", field(layers, "per_layer")),
                ("spans", field(layers, "spans")),
                ("witnesses", Json::Arr(witnesses)),
            ]),
        ));
    }
    let doc = obj([("provenance", provenance), ("workloads", obj(workloads))]);
    let path =
        opts.out.clone().unwrap_or_else(|| out_dir().join(format!("run-seed{}.json", opts.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(any_failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables the binary reports from.
    #[test]
    fn manifest_matches_the_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |item: &Json, k: &str| match item.get(k) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let expected: Vec<_> = CONTRACT_END_TO_END
            .iter()
            .map(|name| {
                let m = contract_source(&WORKLOADS[0], name);
                let better = if m.better == Better::Higher { "higher" } else { "lower" };
                (name.to_string(), m.unit.to_string(), better.to_string(), Some(m.rel))
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<String> = list("per_layer").iter().map(|m| field(m, "name")).collect();
        assert_eq!(layers, layer_names());
        for (m, (name, unit, _)) in
            list("per_layer").iter().zip(metrics::per_layer(&RunOutput::empty(), None, None))
        {
            assert_eq!(field(m, "unit"), unit, "{name}");
        }
    }
}
