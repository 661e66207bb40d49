//! `dota analyze --serve` — the retention-degradation audit.
//!
//! Joins a serve timeline document (`dota serve --bench --timeline`) with
//! the cost model's structure into the per-request attribution the
//! capacity-planning story needs: *which* requests were degraded, what
//! each degradation saved in attended K/V positions, and where each
//! request's latency budget went. Three sections per bench cell:
//!
//! * **per-retention-tier table** — request counts, served fraction, and
//!   the mean attended-position reduction each ladder rung produced
//!   (the serving-side analogue of the paper's Fig. 11
//!   accuracy-vs-retention trade);
//! * **e2e decomposition** — mean queue / prefill / decode split, and the
//!   service-time split into weight-stream, own K/V and head-of-line
//!   (batch-mates' K/V) cycles;
//! * **worst-burn ranking** — the top-N requests by deadline-budget burn,
//!   the first places to look when an SLO is at risk.
//!
//! The audit *re-verifies* the timeline against the models it claims to
//! reflect rather than trusting it: every request's decomposition must
//! sum exactly to its recorded e2e latency
//! (`decomposition_consistent`), every attended count must equal what
//! the retention window selector (`ceil(retention · t)`, clamped to
//! `[1, t]`, per layer × head) would attend (`ladder_consistent`), and
//! the terminal records must be exactly-once and shape-consistent —
//! unique ids, one per offered request, a valid reason, no tokens on a
//! failed/expired/rejected exit, at least one on a served exit — even
//! when fault-injection retries re-admitted requests mid-run
//! (`terminals_consistent`). A false flag means the engine and its
//! telemetry have drifted apart, which is precisely what an
//! observability layer must never hide.
//!
//! Output is deterministic: derived purely from the (byte-deterministic)
//! timeline document, serialized in canonical key order with [`fmt_f64`],
//! so audits diff clean via `dota report diff`.

use dota_metrics::{fmt_f64, JsonWriter, ToJson};
use dota_tensor::topk;
use serde_json::Value;

/// Audit format version (bump on any schema change).
pub const SERVE_AUDIT_VERSION: u32 = 2;

/// Cycles per microsecond on the simulated 1 GHz clock.
const CYCLES_PER_US: f64 = 1e3;

/// Per-retention-tier aggregate of one cell.
#[derive(Debug)]
pub struct TierStat {
    /// Ladder rung index.
    pub level: usize,
    /// Retention at this rung.
    pub retention: f64,
    /// Requests admitted at this rung (never-admitted requests are
    /// excluded — they attended nothing by waiting, not by degradation).
    pub requests: u64,
    /// Of those, requests that produced their full output.
    pub served: u64,
    /// Attended positions, summed over requests, steps, layers and heads.
    pub attended: u64,
    /// Dense-attention positions the same steps would have touched.
    pub possible: u64,
    /// Mean per-step fraction of positions *omitted* (`1 − attended /
    /// possible`); 0 at full retention, approaching `1 − retention` as
    /// contexts grow past the ceil-rounding regime.
    pub reduction: f64,
    /// Mean phase split, microseconds: queue, prefill, decode.
    pub mean_queue_us: f64,
    /// Mean prefill phase, microseconds.
    pub mean_prefill_us: f64,
    /// Mean decode phase, microseconds.
    pub mean_decode_us: f64,
    /// Mean weight-stream share of service, microseconds.
    pub mean_weight_us: f64,
    /// Mean own-K/V share of service, microseconds.
    pub mean_kv_us: f64,
    /// Mean head-of-line share of service, microseconds.
    pub mean_hol_us: f64,
}

/// One row of the worst-burn ranking.
#[derive(Debug)]
pub struct WorstBurn {
    /// Request id.
    pub id: u64,
    /// Terminal reason.
    pub reason: String,
    /// Retention the request ran at.
    pub retention: f64,
    /// Fraction of the deadline budget consumed.
    pub burn: f64,
    /// End-to-end latency, microseconds.
    pub e2e_us: f64,
    /// Queue share, microseconds.
    pub queue_us: f64,
    /// Prefill share, microseconds.
    pub prefill_us: f64,
    /// Decode share, microseconds.
    pub decode_us: f64,
}

/// Closed-loop controller activity of one cell, mirrored from the
/// timeline's `control` object (emitted for `slo` shed cells only).
#[derive(Debug)]
pub struct ControlAudit {
    /// Retention-rung transitions over the run.
    pub changes: u64,
    /// Steps the admission gate spent closed.
    pub gated_steps: u64,
    /// Rung the controller ended the run on.
    pub final_level: u64,
    /// Deepest rung reached.
    pub max_level: u64,
    /// Mean rung across steps.
    pub mean_level: f64,
}

/// Audit of one (shed policy, load) cell.
#[derive(Debug)]
pub struct CellAudit {
    /// Shed policy name.
    pub shed: String,
    /// Offered load multiple.
    pub load: f64,
    /// Requests in the cell's timeline.
    pub requests: u64,
    /// Requests never admitted (expired or rejected in the queue).
    pub never_admitted: u64,
    /// Per-rung aggregates, rung order (only rungs with admissions).
    pub tiers: Vec<TierStat>,
    /// Every request's `queue + prefill + decode` summed exactly to its
    /// e2e, and `weight + kv + head_of_line` to its service time.
    pub decomposition_consistent: bool,
    /// Every request's attended count matched the retention window
    /// (`Σ layers·heads·clamp(ceil(r·t), 1, t)` over its steps).
    pub ladder_consistent: bool,
    /// Terminal records were exactly-once and shape-consistent: unique
    /// ids, one per offered request, a valid reason, zero tokens on
    /// failed/expired/rejected exits and at least one on served exits.
    pub terminals_consistent: bool,
    /// Requests that went through at least one fault retry.
    pub retried: u64,
    /// Requests that terminated `failed` (fault retries exhausted).
    pub failed: u64,
    /// Tokens emitted by attempts a fault later aborted (discarded, never
    /// delivered — retries restart the stream from scratch).
    pub discarded_tokens: u64,
    /// Controller activity, present only when the timeline cell carried a
    /// `control` object (closed-loop `slo` cells).
    pub control: Option<ControlAudit>,
    /// Top-N requests by burn, descending (ties by id).
    pub worst: Vec<WorstBurn>,
}

/// The full audit document.
#[derive(Debug)]
pub struct ServeAudit {
    /// One audit per timeline cell, in document order.
    pub cells: Vec<CellAudit>,
}

fn as_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!(
            "timeline field `{what}` is not an unsigned integer"
        )),
    }
}

fn as_f64(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        _ => Err(format!("timeline field `{what}` is not a number")),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get(name)
        .ok_or_else(|| format!("timeline is missing field `{name}`"))
}

fn u64_field(v: &Value, name: &str) -> Result<u64, String> {
    as_u64(field(v, name)?, name)
}

fn f64_field(v: &Value, name: &str) -> Result<f64, String> {
    as_f64(field(v, name)?, name)
}

fn str_field(v: &Value, name: &str) -> Result<String, String> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("timeline field `{name}` is not a string")),
    }
}

fn array<'a>(v: &'a Value, name: &str) -> Result<&'a [Value], String> {
    match field(v, name)? {
        Value::Array(xs) => Ok(xs),
        _ => Err(format!("timeline field `{name}` is not an array")),
    }
}

struct ParsedRequest {
    id: u64,
    reason: String,
    retention: f64,
    level: usize,
    admitted: bool,
    served: bool,
    tokens: u64,
    retries: u64,
    discarded_tokens: u64,
    attended: u64,
    possible: u64,
    burn: f64,
    e2e: u64,
    queue: u64,
    prefill: u64,
    decode: u64,
    weight: u64,
    kv: u64,
    hol: u64,
    decomposition_ok: bool,
    ladder_ok: bool,
}

fn parse_request(r: &Value, layers_heads: u64) -> Result<ParsedRequest, String> {
    let id = u64_field(r, "id")?;
    let reason = str_field(r, "reason")?;
    let retention = f64_field(r, "retention")?;
    let level = u64_field(r, "level")? as usize;
    let admitted = !matches!(field(r, "admit")?, Value::Null);
    let arrival = u64_field(r, "arrival")?;
    let finish = u64_field(r, "finish")?;
    let attended = u64_field(r, "attended")?;
    let omitted = u64_field(r, "omitted")?;
    let queue = u64_field(r, "queue_cycles")?;
    let prefill = u64_field(r, "prefill_cycles")?;
    let decode = u64_field(r, "decode_cycles")?;
    let weight = u64_field(r, "weight_cycles")?;
    let kv = u64_field(r, "kv_cycles")?;
    let hol = u64_field(r, "hol_cycles")?;
    let e2e = finish
        .checked_sub(arrival)
        .ok_or_else(|| format!("request {id} finishes before it arrives"))?;

    // Identity 1: the recorded phases tile the recorded residence, and the
    // service split tiles the in-slot time, cycle for cycle.
    let decomposition_ok = queue + prefill + decode == e2e && weight + kv + hol == prefill + decode;

    // Identity 2: the attended counts are exactly what the serving window
    // keeps over the recorded per-step contexts, by the selector's own
    // rule (`topk::window_count`, which `WindowSelector` answers with).
    let mut expected_attended = 0u64;
    let mut total_steps_ok = true;
    let mut step_sum = 0u64;
    for (i, step) in array(r, "steps")?.iter().enumerate() {
        let Value::Array(cols) = step else {
            return Err(format!("request {id} step {i} is not an array"));
        };
        if cols.len() != 7 {
            return Err(format!("request {id} step {i} has {} columns", cols.len()));
        }
        let step_attended = as_u64(&cols[4], "step attended")?;
        let context = as_u64(&cols[6], "step context")?;
        expected_attended += layers_heads * topk::window_count(retention, context as usize) as u64;
        step_sum += step_attended;
        if as_u64(&cols[4], "attended")? + as_u64(&cols[5], "omitted")? != layers_heads * context {
            total_steps_ok = false;
        }
    }
    let ladder_ok = total_steps_ok && step_sum == attended && expected_attended == attended;

    let served = reason == "completed" || reason == "eos";
    // Fault-retry fields are emitted only when nonzero, so fault-free
    // timelines keep their exact bytes; absence means zero.
    let opt_u64 = |name: &str| r.get(name).map(|v| as_u64(v, name)).transpose();
    Ok(ParsedRequest {
        id,
        reason,
        retention,
        level,
        admitted,
        served,
        tokens: u64_field(r, "tokens")?,
        retries: opt_u64("retries")?.unwrap_or(0),
        discarded_tokens: opt_u64("discarded_tokens")?.unwrap_or(0),
        attended,
        possible: attended + omitted,
        burn: f64_field(r, "burn")?,
        e2e,
        queue,
        prefill,
        decode,
        weight,
        kv,
        hol,
        decomposition_ok,
        ladder_ok,
    })
}

/// Audits a parsed timeline document.
///
/// # Errors
///
/// Describes the first structural problem in the document.
pub fn audit(doc: &Value, top: usize) -> Result<ServeAudit, String> {
    let config = field(doc, "config")?;
    let layers_heads = u64_field(config, "n_layers")? * u64_field(config, "n_heads")?;
    let ladder: Vec<f64> = array(config, "ladder")?
        .iter()
        .map(|v| as_f64(v, "ladder entry"))
        .collect::<Result<_, _>>()?;
    let offered = u64_field(config, "requests")?;
    let mut cells = Vec::new();
    for cell in array(doc, "cells")? {
        let shed = str_field(cell, "shed")?;
        let load = f64_field(cell, "load")?;
        // Emitted only for closed-loop cells; absence means no controller.
        let control = cell
            .get("control")
            .map(|v| -> Result<ControlAudit, String> {
                Ok(ControlAudit {
                    changes: u64_field(v, "changes")?,
                    gated_steps: u64_field(v, "gated_steps")?,
                    final_level: u64_field(v, "final_level")?,
                    max_level: u64_field(v, "max_level")?,
                    mean_level: f64_field(v, "mean_level")?,
                })
            })
            .transpose()?;
        let requests: Vec<ParsedRequest> = array(cell, "requests")?
            .iter()
            .map(|r| parse_request(r, layers_heads))
            .collect::<Result<_, _>>()?;

        // Identity 3: exactly-once, shape-consistent terminals. Holds even
        // under fault-injection retries: a retried request still terminates
        // once, and its token count reflects only the surviving attempt.
        let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        let shapes_ok = requests.iter().all(|r| match r.reason.as_str() {
            "completed" | "eos" => r.admitted && r.tokens >= 1,
            "deadline_evicted" => r.admitted,
            "queue_expired" | "rejected" => !r.admitted && r.tokens == 0,
            // A failed request delivered nothing, whether it died in a
            // slot (admitted) or waiting out a retry backoff (not).
            "failed" => r.tokens == 0,
            _ => false,
        });
        let terminals_consistent =
            ids.len() == requests.len() && requests.len() as u64 == offered && shapes_ok;

        let mut tiers = Vec::new();
        for (level, &retention) in ladder.iter().enumerate() {
            let members: Vec<&ParsedRequest> = requests
                .iter()
                .filter(|r| r.admitted && r.level == level)
                .collect();
            if members.is_empty() {
                continue;
            }
            let n = members.len() as f64;
            let attended: u64 = members.iter().map(|r| r.attended).sum();
            let possible: u64 = members.iter().map(|r| r.possible).sum();
            let mean_us = |f: &dyn Fn(&ParsedRequest) -> u64| {
                members.iter().map(|r| f(r) as f64).sum::<f64>() / n / CYCLES_PER_US
            };
            tiers.push(TierStat {
                level,
                retention,
                requests: members.len() as u64,
                served: members.iter().filter(|r| r.served).count() as u64,
                attended,
                possible,
                reduction: if possible == 0 {
                    0.0
                } else {
                    1.0 - attended as f64 / possible as f64
                },
                mean_queue_us: mean_us(&|r| r.queue),
                mean_prefill_us: mean_us(&|r| r.prefill),
                mean_decode_us: mean_us(&|r| r.decode),
                mean_weight_us: mean_us(&|r| r.weight),
                mean_kv_us: mean_us(&|r| r.kv),
                mean_hol_us: mean_us(&|r| r.hol),
            });
        }

        let mut ranked: Vec<&ParsedRequest> = requests.iter().collect();
        ranked.sort_by(|a, b| {
            b.burn
                .partial_cmp(&a.burn)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let worst = ranked
            .iter()
            .take(top)
            .map(|r| WorstBurn {
                id: r.id,
                reason: r.reason.clone(),
                retention: r.retention,
                burn: r.burn,
                e2e_us: r.e2e as f64 / CYCLES_PER_US,
                queue_us: r.queue as f64 / CYCLES_PER_US,
                prefill_us: r.prefill as f64 / CYCLES_PER_US,
                decode_us: r.decode as f64 / CYCLES_PER_US,
            })
            .collect();

        cells.push(CellAudit {
            shed,
            load,
            requests: requests.len() as u64,
            never_admitted: requests.iter().filter(|r| !r.admitted).count() as u64,
            decomposition_consistent: requests.iter().all(|r| r.decomposition_ok),
            ladder_consistent: requests.iter().all(|r| r.ladder_ok),
            terminals_consistent,
            retried: requests.iter().filter(|r| r.retries > 0).count() as u64,
            failed: requests.iter().filter(|r| r.reason == "failed").count() as u64,
            discarded_tokens: requests.iter().map(|r| r.discarded_tokens).sum(),
            control,
            tiers,
            worst,
        });
    }
    Ok(ServeAudit { cells })
}

impl ToJson for CellAudit {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("shed", &self.shed)
            .field("load", self.load)
            .field("requests", self.requests)
            .field("never_admitted", self.never_admitted)
            .field("decomposition_consistent", self.decomposition_consistent)
            .field("ladder_consistent", self.ladder_consistent)
            .field("terminals_consistent", self.terminals_consistent)
            .field("retried", self.retried)
            .field("failed", self.failed)
            .field("discarded_tokens", self.discarded_tokens);
        // Conditional, so audits of controller-free timelines (all
        // committed baselines) keep their exact bytes.
        if let Some(ctl) = &self.control {
            w.key("control")
                .obj()
                .field("changes", ctl.changes)
                .field("gated_steps", ctl.gated_steps)
                .field("final_level", ctl.final_level)
                .field("max_level", ctl.max_level)
                .field("mean_level", ctl.mean_level)
                .end();
        }
        w.list("tiers", &self.tiers)
            .list("worst_burn", &self.worst)
            .end();
    }
}

impl ToJson for TierStat {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("level", self.level)
            .field("retention", self.retention)
            .field("requests", self.requests)
            .field("served", self.served)
            .field("attended", self.attended)
            .field("possible", self.possible)
            .field("reduction", self.reduction)
            .field("mean_queue_us", self.mean_queue_us)
            .field("mean_prefill_us", self.mean_prefill_us)
            .field("mean_decode_us", self.mean_decode_us)
            .field("mean_weight_us", self.mean_weight_us)
            .field("mean_kv_us", self.mean_kv_us)
            .field("mean_hol_us", self.mean_hol_us)
            .end();
    }
}

impl ToJson for WorstBurn {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("id", self.id)
            .field("reason", &self.reason)
            .field("retention", self.retention)
            .field("burn", self.burn)
            .field("e2e_us", self.e2e_us)
            .field("queue_us", self.queue_us)
            .field("prefill_us", self.prefill_us)
            .field("decode_us", self.decode_us)
            .end();
    }
}

impl ServeAudit {
    /// Canonical JSON serialization (stable key order, [`fmt_f64`]
    /// numbers; byte-deterministic, diffable via `dota report diff`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.obj()
            .field(
                "version",
                format!("dota-serve-audit-v{SERVE_AUDIT_VERSION}"),
            )
            .list("cells", &self.cells)
            .end();
        w.finish()
    }

    /// Renders the human-readable audit tables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "cell {} @ {}x: {} requests, {} never admitted, decomposition {}, ladder {}, terminals {}\n",
                c.shed,
                fmt_f64(c.load),
                c.requests,
                c.never_admitted,
                if c.decomposition_consistent {
                    "ok"
                } else {
                    "INCONSISTENT"
                },
                if c.ladder_consistent {
                    "ok"
                } else {
                    "INCONSISTENT"
                },
                if c.terminals_consistent {
                    "ok"
                } else {
                    "INCONSISTENT"
                },
            ));
            if c.retried > 0 || c.failed > 0 {
                out.push_str(&format!(
                    "  faults: {} retried, {} failed, {} tokens discarded across aborted attempts\n",
                    c.retried, c.failed, c.discarded_tokens
                ));
            }
            if let Some(ctl) = &c.control {
                out.push_str(&format!(
                    "  control: {} rung changes, {} gated steps, final rung {}, max rung {}, mean rung {:.2}\n",
                    ctl.changes, ctl.gated_steps, ctl.final_level, ctl.max_level, ctl.mean_level
                ));
            }
            out.push_str(&format!(
                "  {:>5} {:>9} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "tier",
                "retention",
                "requests",
                "served",
                "omitted%",
                "queue",
                "prefill",
                "decode",
                "kv",
                "hol"
            ));
            for t in &c.tiers {
                out.push_str(&format!(
                    "  {:>5} {:>8.1}% {:>8} {:>7} {:>8.1}% {:>8.1}u {:>8.1}u {:>8.1}u {:>8.1}u {:>8.1}u\n",
                    t.level,
                    t.retention * 100.0,
                    t.requests,
                    t.served,
                    t.reduction * 100.0,
                    t.mean_queue_us,
                    t.mean_prefill_us,
                    t.mean_decode_us,
                    t.mean_kv_us,
                    t.mean_hol_us
                ));
            }
            if !c.worst.is_empty() {
                out.push_str(&format!(
                    "  worst burn: {:>6} {:>16} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                    "id", "reason", "retention", "burn", "e2e", "queue", "prefill", "decode"
                ));
                for w in &c.worst {
                    out.push_str(&format!(
                        "  {:>17} {:>16} {:>8.1}% {:>8.2} {:>8.1}u {:>8.1}u {:>8.1}u {:>8.1}u\n",
                        w.id,
                        w.reason,
                        w.retention * 100.0,
                        w.burn,
                        w.e2e_us,
                        w.queue_us,
                        w.prefill_us,
                        w.decode_us
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Value {
        serde_json::parse(SAMPLE_JSON).unwrap()
    }

    // Two-layer × two-head model; one request at retention 0.5, one
    // dense, one never admitted.
    const SAMPLE_JSON: &str = r#"{
          "version":1,
          "config":{"seed":7,"requests":3,"capacity":2,"queue_capacity":4,
                    "seq":48,"vocab":16,"n_layers":2,"n_heads":2,"slo_window":8,
                    "ladder":[1.0,0.5],
                    "interactive_deadline_us":50.0,"batch_deadline_us":500.0},
          "cells":[{"shed":"retention","load":4.0,"slo_windows":[],
            "requests":[
              {"id":0,"class":"interactive","reason":"completed","retention":1.0,
               "level":0,"lane":0,"arrival":0,"deadline":50000,"admit":0,
               "first_token":100,"finish":220,"tokens":2,
               "attended":12,"omitted":0,
               "queue_cycles":0,"prefill_cycles":100,"decode_cycles":120,
               "weight_cycles":120,"kv_cycles":40,"hol_cycles":60,"burn":0.0044,
               "steps":[[0,100,60,20,4,0,1],[100,120,60,20,8,0,2]]},
              {"id":1,"class":"batch","reason":"completed","retention":0.5,
               "level":1,"lane":1,"arrival":10,"deadline":500010,"admit":20,
               "first_token":120,"finish":240,"tokens":2,
               "attended":12,"omitted":8,
               "queue_cycles":10,"prefill_cycles":100,"decode_cycles":120,
               "weight_cycles":120,"kv_cycles":40,"hol_cycles":60,"burn":0.00046,
               "steps":[[20,100,60,20,4,0,1],[120,120,60,20,8,8,4]]},
              {"id":2,"class":"interactive","reason":"queue_expired","retention":1.0,
               "level":0,"lane":null,"arrival":5,"deadline":50005,"admit":null,
               "first_token":null,"finish":50005,"tokens":0,
               "attended":0,"omitted":0,
               "queue_cycles":50000,"prefill_cycles":0,"decode_cycles":0,
               "weight_cycles":0,"kv_cycles":0,"hol_cycles":0,"burn":1.0,
               "steps":[]}
            ]}]
        }"#;

    #[test]
    fn audit_verifies_identities_and_tiers() {
        let audit = audit(&sample_doc(), 2).unwrap();
        assert_eq!(audit.cells.len(), 1);
        let c = &audit.cells[0];
        assert!(c.decomposition_consistent);
        assert!(c.ladder_consistent, "sample attends exactly the window");
        assert_eq!(c.requests, 3);
        assert_eq!(c.never_admitted, 1);
        assert_eq!(c.tiers.len(), 2);
        assert_eq!(c.tiers[0].retention, 1.0);
        assert_eq!(c.tiers[0].reduction, 0.0);
        let half = &c.tiers[1];
        assert_eq!(half.requests, 1);
        assert_eq!(half.attended, 12);
        assert_eq!(half.possible, 20);
        assert!((half.reduction - 0.4).abs() < 1e-12);
        // Worst burn leads with the expired request.
        assert_eq!(c.worst[0].id, 2);
        assert_eq!(c.worst[0].burn, 1.0);
        // Fault-free sample: terminals are exactly-once and clean.
        assert!(c.terminals_consistent);
        assert_eq!(c.retried, 0);
        assert_eq!(c.failed, 0);
        assert_eq!(c.discarded_tokens, 0);
    }

    #[test]
    fn audit_flags_duplicate_and_bogus_terminals() {
        // Duplicate id: the same request terminated twice.
        let dup = SAMPLE_JSON.replacen("\"id\":1,", "\"id\":0,", 1);
        assert_ne!(dup, SAMPLE_JSON, "corruption target must exist");
        let a = audit(&serde_json::parse(&dup).unwrap(), 2).unwrap();
        assert!(!a.cells[0].terminals_consistent);
        // Unknown terminal reason.
        let bogus = SAMPLE_JSON.replacen("\"reason\":\"completed\"", "\"reason\":\"vanished\"", 1);
        assert_ne!(bogus, SAMPLE_JSON, "corruption target must exist");
        let a = audit(&serde_json::parse(&bogus).unwrap(), 2).unwrap();
        assert!(!a.cells[0].terminals_consistent);
        // A served request claiming zero tokens.
        let empty = SAMPLE_JSON.replacen(
            "\"finish\":220,\"tokens\":2",
            "\"finish\":220,\"tokens\":0",
            1,
        );
        assert_ne!(empty, SAMPLE_JSON, "corruption target must exist");
        let a = audit(&serde_json::parse(&empty).unwrap(), 2).unwrap();
        assert!(!a.cells[0].terminals_consistent);
    }

    #[test]
    fn audit_reads_fault_retry_fields() {
        // Splice retry fields into request 1, the way the recorder emits
        // them (only when nonzero), and fail request 2 typed.
        let faulted = SAMPLE_JSON
            .replacen(
                "\"burn\":0.00046,",
                "\"burn\":0.00046,\"retries\":2,\"discarded_tokens\":3,",
                1,
            )
            .replacen("\"reason\":\"queue_expired\"", "\"reason\":\"failed\"", 1);
        let a = audit(&serde_json::parse(&faulted).unwrap(), 2).unwrap();
        let c = &a.cells[0];
        assert!(
            c.terminals_consistent,
            "retried + failed terminals are legal"
        );
        assert_eq!(c.retried, 1);
        assert_eq!(c.failed, 1);
        assert_eq!(c.discarded_tokens, 3);
        assert!(a.to_json().contains("\"retried\":1"));
        assert!(a.render_text().contains("1 retried, 1 failed"));
    }

    #[test]
    fn audit_surfaces_the_control_summary_when_present() {
        // The fault-free sample carries no controller: the key must stay
        // absent so controller-free audit baselines keep their bytes.
        let plain = audit(&sample_doc(), 2).unwrap();
        assert!(plain.cells[0].control.is_none());
        assert!(!plain.to_json().contains("\"control\""));
        assert!(!plain.render_text().contains("control:"));
        // Splice a control object in, the way the timeline emits it for
        // closed-loop slo cells (between slo_windows and requests).
        let looped = SAMPLE_JSON.replacen(
            "\"slo_windows\":[],",
            "\"slo_windows\":[],\"control\":{\"changes\":3,\"gated_steps\":5,\
             \"final_level\":1,\"max_level\":2,\"mean_level\":0.75},",
            1,
        );
        assert_ne!(looped, SAMPLE_JSON, "splice target must exist");
        let a = audit(&serde_json::parse(&looped).unwrap(), 2).unwrap();
        let ctl = a.cells[0].control.as_ref().expect("control parsed");
        assert_eq!(ctl.changes, 3);
        assert_eq!(ctl.gated_steps, 5);
        assert_eq!(ctl.final_level, 1);
        assert_eq!(ctl.max_level, 2);
        assert_eq!(ctl.mean_level, 0.75);
        assert!(a.to_json().contains(
            "\"control\":{\"changes\":3,\"gated_steps\":5,\"final_level\":1,\
             \"max_level\":2,\"mean_level\":0.75}"
        ));
        assert!(a.render_text().contains(
            "control: 3 rung changes, 5 gated steps, final rung 1, max rung 2, mean rung 0.75"
        ));
        // A malformed control object is a structural error, not ignored.
        let broken = SAMPLE_JSON.replacen(
            "\"slo_windows\":[],",
            "\"slo_windows\":[],\"control\":{\"changes\":3},",
            1,
        );
        assert!(audit(&serde_json::parse(&broken).unwrap(), 2).is_err());
    }

    #[test]
    fn audit_flags_inconsistent_attended_counts() {
        // Corrupt one step's attended count: ladder check must trip while
        // the cycle decomposition stays intact.
        let corrupted = SAMPLE_JSON.replacen("[0,100,60,20,4,0,1]", "[0,100,60,20,3,1,1]", 1);
        assert_ne!(corrupted, SAMPLE_JSON, "corruption target must exist");
        let doc = serde_json::parse(&corrupted).unwrap();
        let audit = audit(&doc, 2).unwrap();
        assert!(!audit.cells[0].ladder_consistent);
        assert!(audit.cells[0].decomposition_consistent);

        // At r = 0.4 and context 3 the window keeps ceil(1.2) = 2 positions
        // and the detector's round rule 1: the audit follows the window.
        let edit = |doc: String, from: &str, to: &str| {
            assert!(doc.contains(from), "corruption target `{from}` must exist");
            doc.replacen(from, to, 1)
        };
        for (kept, consistent) in [(2, true), (1, false)] {
            let (step, omitted) = (4 * kept, 4 * (3 - kept));
            let doc = edit(
                SAMPLE_JSON.to_owned(),
                "\"retention\":0.5",
                "\"retention\":0.4",
            );
            let totals = format!("\"attended\":{},\"omitted\":{omitted}", 4 + step);
            let doc = edit(doc, "\"attended\":12,\"omitted\":8", &totals);
            let steps = format!("[120,120,60,20,{step},{omitted},3]");
            let doc = edit(doc, "[120,120,60,20,8,8,4]", &steps);
            let cells = super::audit(&serde_json::parse(&doc).unwrap(), 2)
                .unwrap()
                .cells;
            assert_eq!(cells[0].ladder_consistent, consistent, "lh·{kept}");
            assert!(cells[0].decomposition_consistent);
        }
    }

    #[test]
    fn audit_flags_broken_decomposition() {
        let corrupted = SAMPLE_JSON.replacen("\"queue_cycles\":10,", "\"queue_cycles\":11,", 1);
        assert_ne!(corrupted, SAMPLE_JSON, "corruption target must exist");
        let doc = serde_json::parse(&corrupted).unwrap();
        let audit = audit(&doc, 2).unwrap();
        assert!(!audit.cells[0].decomposition_consistent);
    }

    #[test]
    fn json_and_text_are_deterministic() {
        let a = audit(&sample_doc(), 2).unwrap();
        let b = audit(&sample_doc(), 2).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
        assert!(a.to_json().contains("\"ladder_consistent\":true"));
        assert!(a.render_text().contains("worst burn"));
        assert!(serde_json::parse(&a.to_json()).is_ok());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let doc = serde_json::parse("{\"cells\":[]}").unwrap();
        assert!(audit(&doc, 2).is_err()); // missing config
        let doc = serde_json::parse("{\"config\":{\"n_layers\":2},\"cells\":[]}").unwrap();
        assert!(audit(&doc, 2).is_err()); // missing n_heads
    }
}
