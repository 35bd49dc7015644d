//! `benchmark compare A.json B.json`: applies each end-to-end metric's
//! bound to two reports written by `benchmark run`.

use crate::json::Json;
use crate::metrics::{Stat, END_TO_END};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// Not a regression, but in one of the runs the best-decile and
    /// best-quartile rounds lie further apart than the bound: too few
    /// rounds ran undisturbed to tell "unchanged" from "moved".
    Unresolved,
    Regression,
}

pub fn verdict(worse_by: f64, allowed: f64, a: &Stat, b: &Stat) -> Verdict {
    if worse_by > allowed {
        Verdict::Regression
    } else if (a.value - a.quartile).abs().max((b.value - b.quartile).abs()) > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn stat(doc: &Json, workload: &str, metric: &str) -> Option<Stat> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Stat {
        value: f("value")?,
        quartile: f("quartile")?,
        median: f("median")?,
        min: f("min")?,
        max: f("max")?,
    })
}

/// Prints one row per workload × metric; `Ok(true)` when B regresses
/// on any of them.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<15} {:<20} {:>13} {:>27} {:>13} {:>27} {:>9} {:>10}  verdict",
        "workload", "metric", "A", "A rounds", "B", "B rounds", "change", "allowed"
    );
    let mut regressed = false;
    for def in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.applies_to(def.name)) {
            let (Some(a), Some(b)) =
                (stat(&a_doc, def.name, m.name), stat(&b_doc, def.name, m.name))
            else {
                return Err(format!("{} @ {}: missing from a report", m.name, def.name));
            };
            let allowed = m.allowed(a.value);
            let v = verdict(m.worse_by(a.value, b.value), allowed, &a, &b);
            regressed |= v == Verdict::Regression;
            let change = if a.value == 0.0 {
                b.value - a.value
            } else {
                (b.value - a.value) / a.value * 100.0
            };
            let rounds = |s: &Stat| format!("[{:.4} .. {:.4}]", s.min, s.max);
            println!(
                "{:<15} {:<20} {:>13.4} {:>27} {:>13.4} {:>27} {:>8.2}{} {:>10.4}  {}",
                def.name,
                m.name,
                a.value,
                rounds(&a),
                b.value,
                rounds(&b),
                change,
                if a.value == 0.0 { " " } else { "%" },
                allowed,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                },
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let tight = Stat { value: 100.0, quartile: 99.0, median: 95.0, min: 60.0, max: 101.0 };
        let wide = Stat { value: 100.0, quartile: 80.0, median: 70.0, min: 60.0, max: 120.0 };
        assert_eq!(verdict(5.0, 10.0, &tight, &tight), Verdict::Ok);
        assert_eq!(verdict(11.0, 10.0, &tight, &tight), Verdict::Regression);
        assert_eq!(verdict(5.0, 10.0, &tight, &wide), Verdict::Unresolved);
        assert_eq!(verdict(11.0, 10.0, &wide, &wide), Verdict::Regression);
        // Zero baseline, zero bound: equal is ok, anything worse is not.
        let zero = Stat::single(0.0);
        assert_eq!(verdict(0.0, 0.0, &zero, &zero), Verdict::Ok);
        assert_eq!(verdict(1e-9, 0.0, &zero, &zero), Verdict::Regression);
    }
}
