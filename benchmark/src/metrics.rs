//! Metric definitions and their computation from a run's recordings.
//!
//! End-to-end metrics are the best-decile measured round (see [`Stat`]),
//! with the round median and min–max beside them. Per-layer counts are
//! statistics deltas over all measured rounds together.

use crate::hist::Hist;
use crate::probes::Probes;
use crate::trace::{SpanAgg, CACHE, DISPATCH, EPISODE, OP, REVOKE};
use crate::workloads::{Kind, RunOutput, WorkloadDef};
use crate::world::Snapshot;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric's per-round values, summarised.
///
/// On a shared host interference only ever slows a round down, and it
/// comes in waves of seconds: over 60 half-second rounds of
/// `shared_handoff` the median round differed by 10 % between two runs
/// of one binary while the best-decile round differed by 1.3 %. So the
/// headline `value` is the round at the best decile (the 4th best of
/// 40), and the median and extremes are printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    /// The round at the best quartile; its distance from `value` says
    /// how well the good rounds agree.
    pub quartile: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    /// Summarises `values`; `headline` picks the value to report from
    /// them sorted best first and their median.
    fn new(values: &[f64], better: Better, headline: impl Fn(&[f64], f64) -> f64) -> Stat {
        if values.is_empty() {
            return Stat::single(0.0);
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if better == Better::Higher {
            v.reverse();
        }
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (worst, best) = (v[n - 1], v[0]);
        Stat {
            value: headline(&v, median),
            quartile: v[n.div_ceil(4) - 1],
            median,
            min: worst.min(best),
            max: worst.max(best),
        }
    }

    /// Headline: the best-decile round. For wall-clock and CPU
    /// measurements, which interference only worsens.
    pub fn best_decile(values: &[f64], better: Better) -> Stat {
        Stat::new(values, better, |best_first, _| best_first[best_first.len().div_ceil(10) - 1])
    }

    /// Headline: the median. For counts and simulated time, which have
    /// no interference to filter out and whose extremes are drift, and
    /// for `setup_s`, whose samples are whole set-ups.
    pub fn median(values: &[f64], better: Better) -> Stat {
        Stat::new(values, better, |_, median| median)
    }

    pub fn single(value: f64) -> Stat {
        Stat { value, quartile: value, median: value, min: value, max: value }
    }
}

/// An end-to-end metric: what a user of the cache manager waits for or
/// pays.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How the per-round values become the headline.
    headline: fn(&[f64], Better) -> Stat,
    /// How much the headline may worsen, as a share of the baseline …
    pub rel: f64,
    /// … or in the metric's own unit, whichever allows more.
    abs: f64,
    /// Workloads that report it; empty = all.
    workloads: &'static [&'static str],
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> EndToEnd {
    // Ten runs of one binary on the 2-core reference host spread
    // (interquartile, as a share of the median) 7–16 % on every
    // wall-clock and CPU metric, so a tighter bound than this would
    // reject unchanged code.
    EndToEnd { name, unit, better, headline: Stat::best_decile, rel: 0.25, abs: 0.0, workloads }
}

const fn counted(name: &'static str, unit: &'static str, rel: f64, abs: f64) -> EndToEnd {
    EndToEnd { name, unit, better: Lower, headline: Stat::median, rel, abs, workloads: &[] }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd { abs: 0.25, ..timed("setup_s", "s", Lower, &[]) },
    timed("ops_per_s", "ops/s", Higher, &[]),
    timed("cpu_us_per_op", "us", Lower, &[]),
    counted("rpcs_per_op", "count", 0.02, 0.001),
    // Two concurrent committers reorder each other's seeks, so the
    // disk model's time repeats to about 5 %, not exactly.
    counted("disk_us_per_op", "sim-us", 0.15, 1.0),
    counted("failed_op_share", "ratio", 0.0, 0.0),
    // Not timed, but it grows with the ops a run completes.
    timed("peak_rss_mb", "MiB", Lower, &[]),
    timed("read_p50_us", "us", Lower, &["hot_read", "shared_handoff"]),
    timed("handoff_read_p50_us", "us", Lower, &["shared_handoff"]),
    timed("write_p50_us", "us", Lower, &["shared_handoff"]),
    timed("fsync_p50_us", "us", Lower, &["write_fsync"]),
    timed("create_p50_us", "us", Lower, &["meta_churn"]),
    timed("getattr_p50_us", "us", Lower, &["meta_churn"]),
    timed("remove_p50_us", "us", Lower, &["meta_churn"]),
];

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// How much worse than `baseline` the metric may get before it
    /// counts as a regression, in the metric's unit.
    pub fn allowed(&self, baseline: f64) -> f64 {
        (self.rel * baseline.abs()).max(self.abs)
    }

    /// By how much `candidate` is worse than `baseline` (≤ 0: not worse).
    pub fn worse_by(&self, baseline: f64, candidate: f64) -> f64 {
        match self.better {
            Higher => baseline - candidate,
            Lower => candidate - baseline,
        }
    }
}

/// The end-to-end metrics a workload reports, as `(definition,
/// summary, per-round values)`.
pub type EndToEndValues = Vec<(&'static EndToEnd, Stat, Vec<f64>)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum over driver threads of one round's field.
fn round_sum(out: &RunOutput, round: usize, f: impl Fn(&crate::workloads::RoundRec) -> u64) -> u64 {
    out.threads.iter().map(|t| f(&t.rounds[round])).sum()
}

/// Sum over driver threads and measured rounds of one field.
fn measured_sum(out: &RunOutput, f: impl Fn(&crate::workloads::RoundRec) -> u64) -> u64 {
    (1..=out.rounds).map(|r| round_sum(out, r, &f)).sum()
}

/// Both threads' latencies of `kind` in one round; empty when the
/// workload does not issue that op type.
fn round_hist(out: &RunOutput, round: usize, kind: Kind) -> Hist {
    let mut h = Hist::new();
    if let Some(slot) = out.kinds.iter().position(|k| *k == kind) {
        for t in &out.threads {
            h.merge(&t.rounds[round].hists[slot]);
        }
    }
    h
}

fn round_wall_s(out: &RunOutput, round: usize) -> f64 {
    let recs = out.threads.iter().map(|t| &t.rounds[round]);
    let start = recs.clone().filter_map(|r| r.started).min();
    let end = recs.filter_map(|r| r.ended).max();
    match (start, end) {
        (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
        _ => 0.0,
    }
}

/// Ops attempted and failed over the whole run: warm-up, measured
/// rounds and verification.
pub fn attempted_and_failed(out: &RunOutput) -> (u64, u64) {
    let rounds = 0..out.rounds + 2;
    (
        rounds.clone().map(|r| round_sum(out, r, |x| x.ops)).sum(),
        rounds.map(|r| round_sum(out, r, |x| x.failed)).sum(),
    )
}

/// `ops_per_s` of each measured round.
pub fn ops_per_s_by_round(out: &RunOutput) -> Vec<f64> {
    (1..=out.rounds)
        .map(|r| {
            let done = round_sum(out, r, |x| x.ops - x.failed);
            ratio(done as f64, round_wall_s(out, r))
        })
        .collect()
}

/// Computes the end-to-end metrics `def` reports. `setup_s` and
/// `peak_rss_mb` are measured by the caller, once per process.
pub fn end_to_end(
    def: &WorkloadDef,
    out: &RunOutput,
    setup_s: Stat,
    peak_rss_mb: f64,
) -> EndToEndValues {
    let rounds = 1..=out.rounds;
    let deltas: Vec<(f64, Snapshot)> = rounds
        .clone()
        .map(|r| {
            (round_sum(out, r, |x| x.ops) as f64, out.snapshots[r + 1].since(&out.snapshots[r]))
        })
        .collect();
    let per_op = |f: &dyn Fn(&Snapshot) -> u64| -> Vec<f64> {
        deltas.iter().map(|(ops, d)| ratio(f(d) as f64, *ops)).collect()
    };
    let p50 = |kind: Kind| -> Vec<f64> {
        rounds.clone().map(|r| round_hist(out, r, kind).p50_us()).collect()
    };
    let (attempted, failed) = attempted_and_failed(out);
    END_TO_END
        .iter()
        .filter(|m| m.applies_to(def.name))
        .map(|m| {
            let by_round = match m.name {
                "setup_s" => return (m, setup_s, Vec::new()),
                "failed_op_share" => {
                    return (m, Stat::single(ratio(failed as f64, attempted as f64)), Vec::new())
                }
                "peak_rss_mb" => return (m, Stat::single(peak_rss_mb), Vec::new()),
                "ops_per_s" => ops_per_s_by_round(out),
                "cpu_us_per_op" => per_op(&|d| d.cpu_ns).iter().map(|ns| ns / 1e3).collect(),
                "rpcs_per_op" => per_op(&|d| d.net.calls),
                "disk_us_per_op" => per_op(&|d| d.disk.busy_us),
                name => {
                    let kind = name
                        .strip_suffix("_p50_us")
                        .and_then(|k| Kind::ALL.into_iter().find(|x| x.name() == k));
                    p50(kind
                        .unwrap_or_else(|| unreachable!("end-to-end metric {name} has no source")))
                }
            };
            let stat = (m.headline)(&by_round, m.better);
            (m, stat, by_round)
        })
        .collect()
}

/// RPC labels reported as their own `rpc.calls.<label>_per_op` metric;
/// the rest are summed under `rpc.calls.other_per_op`.
pub const RPC_LABELS: [&str; 11] = [
    "GetToken",
    "FetchData",
    "FetchStatus",
    "StoreData",
    "StoreDataVec",
    "Fsync",
    "Lookup",
    "Create",
    "Remove",
    "RevokeToken",
    "RevokeVec",
];

/// A traced run's recordings.
pub struct Traced<'a> {
    pub out: &'a RunOutput,
    pub aggs: &'a [SpanAgg],
}

/// A per-layer metric: `(name, unit, value)`. Names are `layer.metric`.
pub type LayerValues = Vec<(String, &'static str, f64)>;

/// Computes every per-layer metric, always under the same names. The
/// `*_us_per_op` span metrics and the episode call count need `traced`,
/// the `probe_*` metrics need `probes`; without their source they are 0.
pub fn per_layer(out: &RunOutput, traced: Option<&Traced>, probes: Option<&Probes>) -> LayerValues {
    let d = out.snapshots[out.rounds + 1].since(&out.snapshots[1]);
    let ops = measured_sum(out, |x| x.ops) as f64;
    let kop = ops / 1e3;
    let user_bytes = measured_sum(out, |x| x.user_bytes) as f64;
    let user_pages = user_bytes / dfs_client::PAGE_SIZE as f64;
    let (c, s, t, j, k) = (&d.client, &d.server, &d.token, &d.journal, &d.disk);

    let mut v: LayerValues = Vec::new();
    // `+ 0.0` turns the -0 a difference of zeros can leave into 0.
    let mut push =
        |name: &str, unit: &'static str, value: f64| v.push((name.to_string(), unit, value + 0.0));
    /// `push(name, unit, num ÷ den)`, 0 when `den` is.
    macro_rules! per {
        ($name:expr, $unit:expr, $num:expr, $den:expr) => {
            push($name, $unit, ratio($num as f64, $den as f64))
        };
    }

    per!("client.local_read_share", "ratio", c.local_reads, c.local_reads + c.remote_reads);
    per!("client.lockfree_read_share", "ratio", c.lockfree_reads, c.local_reads);
    per!("client.lookup_hit_share", "ratio", c.lookup_hits, c.lookup_hits + c.lookup_misses);
    // Every write ends in `local_writes`; those that first needed a
    // token RPC also count in `write_token_fetches`.
    let absorbed = c.local_writes.saturating_sub(c.write_token_fetches);
    per!("client.absorbed_write_share", "ratio", absorbed, c.local_writes);
    per!("client.storeback_pages_per_rpc", "count", c.storeback_pages, c.storeback_rpcs);
    per!("client.revocations_per_kop", "count", c.revocations, kop);
    per!("client.revocation_stores_per_kop", "count", c.revocation_stores, kop);
    let retries = c.backoff_rounds + c.busy_retries + c.transport_retries + c.grace_waits;
    per!("client.retries_per_kop", "count", retries, kop);
    for kind in Kind::ALL {
        let mut h = Hist::new();
        for r in 1..=out.rounds {
            h.merge(&round_hist(out, r, kind));
        }
        push(&format!("client.{}_p50_us", kind.name()), "us", h.p50_us());
        push(&format!("client.{}_p99_us", kind.name()), "us", h.p99_us().unwrap_or(0.0));
    }

    per!("rpc.calls_per_op", "count", d.net.calls, ops);
    per!("rpc.bytes_per_op", "bytes", d.net.bytes, ops);
    per!("rpc.timeouts_per_kop", "count", d.net.timeouts, kop);
    let mut other = d.net.calls;
    for label in RPC_LABELS {
        let n = d.net.by_label.get(label).copied().unwrap_or(0);
        other -= n;
        per!(&format!("rpc.calls.{label}_per_op"), "count", n, ops);
    }
    per!("rpc.calls.other_per_op", "count", other, ops);

    per!("server.rpcs_per_op", "count", s.ops, ops);
    let rejections = s.busy_rejections + s.grace_rejections + s.wrong_server_redirects;
    per!("server.rejections_per_kop", "count", rejections, kop);

    per!("token.grants_per_op", "count", t.grants, ops);
    per!("token.quiet_grant_share", "ratio", t.quiet_grants, t.grants);
    per!("token.revocations_per_grant", "count", t.revocations, t.grants);
    per!("token.refused_per_kop", "count", t.refused, kop);
    // Grants that were neither released nor revoked. A rate that stays
    // above 0 is a leak: every such grant lengthens the lists that
    // `TokenManager::release` and later grants scan.
    let unreturned = t.grants.saturating_sub(t.releases + t.revocations);
    per!("token.unreturned_per_kop", "count", unreturned, kop);

    per!("journal.txns_per_op", "count", j.txns_begun, ops);
    per!("journal.txns_per_sync", "count", j.txns_committed, j.syncs);
    per!("journal.syncs_per_kop", "count", j.syncs, kop);
    let logged = j.log_bytes + j.pad_bytes;
    per!("journal.log_bytes_per_user_byte", "ratio", logged, user_bytes);
    per!("journal.pad_share", "ratio", j.pad_bytes, logged);
    per!("journal.cache_hit_share", "ratio", j.cache_hits, j.cache_hits + j.cache_misses);
    per!("journal.writebacks_per_kop", "count", j.writebacks, kop);
    per!("journal.checkpoints_per_kop", "count", j.checkpoints, kop);

    per!("disk.busy_us_per_op", "sim-us", k.busy_us, ops);
    per!("disk.reads_per_op", "count", k.reads, ops);
    per!("disk.stable_writes_per_user_page", "count", k.stable_writes, user_pages);
    per!("disk.syncs_per_kop", "count", k.syncs, kop);
    per!("disk.sequential_share", "ratio", k.sequential_ops, k.sequential_ops + k.random_ops);
    per!("disk.busy_us_per_sync", "sim-us", k.busy_us, k.syncs);

    // Span metrics: totals over the traced run's measured rounds,
    // divided by its ops.
    let t_ops = traced.map_or(0, |t| measured_sum(t.out, |x| x.ops));
    let aggs = traced.map_or(&[][..], |t| t.aggs);
    let spans = |name: &'static str, foreground_only: bool| {
        aggs.iter().filter(move |a| a.name == name && (a.foreground || !foreground_only))
    };
    let span_us = |name, foreground_only| -> f64 {
        spans(name, foreground_only).map(|a| a.hist.sum_ns() as f64 / 1e3).sum()
    };
    let (op, cache, revoke, dispatch, episode) = (
        span_us(OP, false),
        span_us(CACHE, false),
        span_us(REVOKE, false),
        span_us(DISPATCH, false),
        span_us(EPISODE, false),
    );
    per!("client.op_us_per_op", "us", op, t_ops);
    per!("client.cache_us_per_op", "us", cache, t_ops);
    per!("client.revoke_us_per_op", "us", revoke, t_ops);
    // Self time of the vnode layer plus the RPC-plane hops: the op
    // minus the cache and server spans that ran on its behalf.
    let residual = op - span_us(CACHE, true) - span_us(DISPATCH, true);
    per!("client.residual_us_per_op", "us", residual, t_ops);
    per!("server.dispatch_us_per_op", "us", dispatch, t_ops);
    // Every revoke span lies inside a dispatch span, and every nested
    // (store-back) dispatch inside a revoke span, so this difference
    // is the server's own time: host model, locks, glue, token manager.
    per!("server.self_us_per_op", "us", dispatch - episode - revoke, t_ops);
    let episode_calls: u64 = spans(EPISODE, false).map(|a| a.hist.count()).sum();
    per!("episode.calls_per_op", "count", episode_calls, t_ops);
    per!("episode.call_us_per_op", "us", episode, t_ops);
    let rate = |o: &RunOutput| Stat::best_decile(&ops_per_s_by_round(o), Higher).value;
    per!("trace.overhead_ratio", "ratio", rate(out), traced.map_or(0.0, |t| rate(t.out)));

    let p = probes.copied().unwrap_or_default();
    push("rpc.probe_call_us_1t", "us", p.rpc_call_1t);
    push("rpc.probe_call_us_2t", "us", p.rpc_call_2t);
    push("token.probe_grant_release_us", "us", p.token_grant_release);
    push("token.probe_conflict_grant_us", "us", p.token_conflict_grant);
    push("journal.probe_commit_us", "us", p.journal_commit);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn round_summaries() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let up = Stat::best_decile(&v, Higher);
        assert_eq!(
            (up.value, up.quartile, up.median, up.min, up.max),
            (37.0, 31.0, 20.5, 1.0, 40.0)
        );
        let down = Stat::best_decile(&v, Lower);
        assert_eq!((down.value, down.quartile, down.median), (4.0, 10.0, 20.5));
        assert_eq!(Stat::best_decile(&[3.0, 1.0, 2.0], Lower).value, 1.0);
        assert_eq!(Stat::best_decile(&[7.0], Higher), Stat::single(7.0));
        assert_eq!(Stat::best_decile(&[], Higher), Stat::single(0.0));
        let m = Stat::median(&[4.0, 1.0, 2.0, 3.0], Lower);
        assert_eq!((m.value, m.median, m.quartile), (2.5, 2.5, 1.0));
        assert_eq!(Stat::median(&[3.0, 1.0, 2.0], Lower).value, 2.0);
    }

    #[test]
    fn bounds_are_direction_aware_with_absolute_floors() {
        let ops = metric("ops_per_s");
        assert!(ops.worse_by(100.0, 74.0) > ops.allowed(100.0));
        assert!(ops.worse_by(100.0, 76.0) <= ops.allowed(100.0));
        assert!(ops.worse_by(100.0, 150.0) < 0.0, "faster is not worse");
        let p50 = metric("fsync_p50_us");
        assert!(p50.worse_by(1000.0, 1251.0) > p50.allowed(1000.0));
        assert!(p50.worse_by(1000.0, 500.0) < 0.0);
        let setup = metric("setup_s");
        assert_eq!(setup.allowed(0.004), 0.25, "a 4 ms set-up may not fail on a millisecond");
        assert_eq!(setup.allowed(2.0), 0.5);
    }

    #[test]
    fn zero_baselines_use_the_absolute_floor() {
        // hot_read makes no RPC and touches no disk: baseline 0.
        let rpcs = metric("rpcs_per_op");
        assert_eq!(rpcs.allowed(0.0), 0.001);
        assert!(rpcs.worse_by(0.0, 0.0005) <= rpcs.allowed(0.0));
        assert!(rpcs.worse_by(0.0, 0.01) > rpcs.allowed(0.0));
        assert!(rpcs.worse_by(0.625, 0.6251) <= rpcs.allowed(0.625));
        assert!(rpcs.worse_by(0.625, 0.75) > rpcs.allowed(0.625));
        let disk = metric("disk_us_per_op");
        assert_eq!(disk.allowed(0.0), 1.0);
        assert_eq!(disk.allowed(100.0), 15.0);
        let failed = metric("failed_op_share");
        assert_eq!(failed.allowed(0.0), 0.0);
        assert!(failed.worse_by(0.0, 1e-6) > 0.0);
    }

    #[test]
    fn every_workload_reports_its_headline_latency() {
        for def in &crate::workloads::WORKLOADS {
            let name = format!("{}_p50_us", def.primary().name());
            assert!(metric(&name).applies_to(def.name), "{name} @ {}", def.name);
        }
    }
}
