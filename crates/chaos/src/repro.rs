//! Replayable repro files (`chaos-repro.json`).
//!
//! A repro file is self-contained: the campaign seed it came from, the
//! failing schedule in full, the backend choice and the verdict digest the
//! failure showed. Replaying re-executes the schedule deterministically and
//! re-judges it with the same oracle suite — the digest must reproduce.

use crate::engine::{judge_schedule, BackendChoice, RunVerdict};
use crate::oracle::Oracle;
use crate::schedule::{BudgetRegime, ChaosSchedule};
use opr_adversary::AdversarySpec;
use opr_obs::Json;
use opr_sim::{RoundMetrics, RunMetrics};
use opr_transport::FaultEvent;
use opr_types::{Regime, SystemConfig};
use opr_workload::IdDistribution;
use std::fmt;

/// Format version written into every file (bump on breaking changes).
pub(crate) const REPRO_VERSION: u64 = 1;

/// The largest system size a repro file may ask for: the largest `N` any
/// test runs (`tests/large_n.rs`). A larger `n` is refused before anything
/// sized by it is allocated.
pub(crate) const MAX_REPRO_N: usize = 1024;

/// A replayable failure record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// The campaign seed the failure was found under.
    pub campaign_seed: u64,
    /// The index of the failing run within that campaign.
    pub run_index: usize,
    /// The budget regime the run was judged under.
    pub budget: BudgetRegime,
    /// Which backend(s) showed the failure.
    pub backend: BackendChoice,
    /// The verdict digest at capture time (e.g. `"uniqueness"`, `"panic"`).
    pub digest: String,
    /// The (possibly shrunk) schedule.
    pub schedule: ChaosSchedule,
    /// Per-round network metrics of the reference run at capture time, when
    /// the capturing campaign executed the schedule (panicking runs have
    /// none). Purely informational on replay — the replayed run recomputes
    /// its own — but lets a repro file document how much traffic the
    /// failure took. Absent in files written by older builds.
    pub metrics: Option<RunMetrics>,
}

/// Why a repro file could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproError(String);

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repro file: {}", self.0)
    }
}

impl std::error::Error for ReproError {}

fn bad(msg: impl Into<String>) -> ReproError {
    ReproError(msg.into())
}

impl Repro {
    /// Renders the repro as pretty-printed JSON (the `chaos-repro.json`
    /// payload).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("version".into(), Json::UInt(REPRO_VERSION)),
            ("campaign_seed".into(), Json::UInt(self.campaign_seed)),
            ("run_index".into(), Json::UInt(self.run_index as u64)),
            ("budget".into(), Json::Str(self.budget.label().into())),
            ("backend".into(), Json::Str(self.backend.label().into())),
            ("digest".into(), Json::Str(self.digest.clone())),
            ("schedule".into(), schedule_to_json(&self.schedule)),
        ];
        if let Some(metrics) = &self.metrics {
            fields.push(("metrics".into(), metrics_to_json(metrics)));
        }
        Json::Obj(fields).render()
    }

    /// Decodes a repro file.
    ///
    /// # Errors
    ///
    /// Returns [`ReproError`] on malformed JSON, an unknown version,
    /// unknown labels, or a schedule no run can replay: `n` above 1 024, an
    /// `(n, t)` pair no system has, more Byzantine processes than
    /// processes, or a fault event naming a sender, link or round the
    /// system does not have.
    pub fn from_json(text: &str) -> Result<Repro, ReproError> {
        let doc = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = field_u64(&doc, "version")?;
        if version != REPRO_VERSION {
            return Err(bad(format!(
                "unsupported version {version} (this build reads {REPRO_VERSION})"
            )));
        }
        Ok(Repro {
            campaign_seed: field_u64(&doc, "campaign_seed")?,
            run_index: field_u64(&doc, "run_index")? as usize,
            budget: BudgetRegime::parse(field_str(&doc, "budget")?)
                .ok_or_else(|| bad("unknown budget label"))?,
            backend: BackendChoice::parse(field_str(&doc, "backend")?)
                .ok_or_else(|| bad("unknown backend label"))?,
            digest: field_str(&doc, "digest")?.to_string(),
            schedule: schedule_from_json(
                doc.get("schedule").ok_or_else(|| bad("missing schedule"))?,
            )?,
            metrics: match doc.get("metrics") {
                None | Some(Json::Null) => None,
                Some(v) => Some(metrics_from_json(v)?),
            },
        })
    }

    /// Re-executes the schedule with the recorded backend choice and
    /// re-judges it. Deterministic: the same file always yields the same
    /// verdict, and a valid repro reproduces its recorded digest.
    pub fn replay(&self, oracles: &[Box<dyn Oracle>]) -> RunVerdict {
        judge_schedule(&self.schedule, self.backend, oracles)
    }
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, ReproError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ReproError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing or non-string field '{key}'")))
}

fn field_usize(doc: &Json, key: &str) -> Result<usize, ReproError> {
    doc.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

/// Encodes a schedule as a JSON object (used by the repro format and the
/// chaos binary's failure dumps).
pub(crate) fn schedule_to_json(schedule: &ChaosSchedule) -> Json {
    Json::Obj(vec![
        ("regime".into(), Json::Str(schedule.regime.label().into())),
        ("n".into(), Json::UInt(schedule.n as u64)),
        ("t".into(), Json::UInt(schedule.t as u64)),
        ("id_dist".into(), Json::Str(schedule.id_dist.label().into())),
        ("id_seed".into(), Json::UInt(schedule.id_seed)),
        (
            "adversary".into(),
            Json::Str(schedule.adversary.label().into()),
        ),
        ("byzantine".into(), Json::UInt(schedule.byzantine as u64)),
        ("run_seed".into(), Json::UInt(schedule.run_seed)),
        (
            "payload_cap".into(),
            match schedule.payload_cap {
                Some(cap) => Json::UInt(cap),
                None => Json::Null,
            },
        ),
        (
            "events".into(),
            Json::Arr(schedule.events.iter().map(event_to_json).collect()),
        ),
    ])
}

/// Decodes a schedule object, refusing any schedule no run can replay, so
/// that a hostile or hand-edited file is a typed error rather than a panic,
/// an abort or a silently ignored event.
///
/// # Errors
///
/// Returns [`ReproError`] on missing fields or unknown labels; on `n` above
/// [`MAX_REPRO_N`], an `(n, t)` pair [`SystemConfig::new`] rejects, or more
/// Byzantine processes than processes; and on an event whose `sender` is
/// not below `n`, whose `link` label is outside `1..=n`, or whose round is
/// not 1-based.
pub(crate) fn schedule_from_json(doc: &Json) -> Result<ChaosSchedule, ReproError> {
    let n = field_usize(doc, "n")?;
    if n > MAX_REPRO_N {
        return Err(bad(format!("field 'n' exceeds {MAX_REPRO_N} ({n})")));
    }
    let t = field_usize(doc, "t")?;
    SystemConfig::new(n, t).map_err(|e| bad(format!("fields 'n', 't': {e}")))?;
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing events array"))?
        .iter()
        .enumerate()
        .map(|(i, event)| event_from_json(event, n).map_err(|e| bad(format!("event {i}: {}", e.0))))
        .collect::<Result<Vec<FaultEvent>, ReproError>>()?;
    let payload_cap = match doc.get("payload_cap") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| bad("non-integer payload_cap"))?),
    };
    let byzantine = field_usize(doc, "byzantine")?;
    if byzantine > n {
        return Err(bad(format!("byzantine exceeds n ({byzantine} > {n})")));
    }
    Ok(ChaosSchedule {
        regime: Regime::parse(field_str(doc, "regime")?)
            .ok_or_else(|| bad("unknown regime label"))?,
        n,
        t,
        id_dist: IdDistribution::parse(field_str(doc, "id_dist")?)
            .ok_or_else(|| bad("unknown id_dist label"))?,
        id_seed: field_u64(doc, "id_seed")?,
        adversary: AdversarySpec::parse(field_str(doc, "adversary")?)
            .ok_or_else(|| bad("unknown adversary label"))?,
        byzantine,
        run_seed: field_u64(doc, "run_seed")?,
        events,
        payload_cap,
    })
}

/// Encodes run metrics as an array of per-round counter objects.
pub(crate) fn metrics_to_json(metrics: &RunMetrics) -> Json {
    Json::Arr(
        metrics
            .per_round()
            .iter()
            .map(|round| {
                Json::Obj(vec![
                    (
                        "messages_correct".into(),
                        Json::UInt(round.messages_correct),
                    ),
                    ("messages_faulty".into(), Json::UInt(round.messages_faulty)),
                    ("bits_correct".into(), Json::UInt(round.bits_correct)),
                    (
                        "max_message_bits".into(),
                        Json::UInt(round.max_message_bits),
                    ),
                ])
            })
            .collect(),
    )
}

/// Decodes a [`metrics_to_json`] array.
///
/// # Errors
///
/// Returns [`ReproError`] when the value is not an array of per-round
/// counter objects.
pub(crate) fn metrics_from_json(doc: &Json) -> Result<RunMetrics, ReproError> {
    let rounds = doc
        .as_array()
        .ok_or_else(|| bad("metrics is not an array"))?;
    let mut metrics = RunMetrics::default();
    for round in rounds {
        metrics.push_round(RoundMetrics {
            messages_correct: field_u64(round, "messages_correct")?,
            messages_faulty: field_u64(round, "messages_faulty")?,
            bits_correct: field_u64(round, "bits_correct")?,
            max_message_bits: field_u64(round, "max_message_bits")?,
        });
    }
    Ok(metrics)
}

fn event_to_json(event: &FaultEvent) -> Json {
    match *event {
        FaultEvent::Drop {
            sender,
            link,
            round,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("drop".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("link".into(), Json::UInt(link as u64)),
            ("round".into(), Json::UInt(round as u64)),
        ]),
        FaultEvent::SilenceLink { sender, link, from } => Json::Obj(vec![
            ("kind".into(), Json::Str("silence-link".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("link".into(), Json::UInt(link as u64)),
            ("from".into(), Json::UInt(from as u64)),
        ]),
        FaultEvent::Crash { sender, from } => Json::Obj(vec![
            ("kind".into(), Json::Str("crash".into())),
            ("sender".into(), Json::UInt(sender as u64)),
            ("from".into(), Json::UInt(from as u64)),
        ]),
    }
}

/// Decodes one fault event of an `n`-process schedule.
fn event_from_json(doc: &Json, n: usize) -> Result<FaultEvent, ReproError> {
    let round_field = |key: &str| -> Result<u32, ReproError> {
        match u32::try_from(field_u64(doc, key)?) {
            Ok(round) if round >= 1 => Ok(round),
            _ => Err(bad(format!("field '{key}' is not a 1-based round"))),
        }
    };
    let sender = || -> Result<usize, ReproError> {
        let sender = field_usize(doc, "sender")?;
        if sender < n {
            Ok(sender)
        } else {
            Err(bad(format!(
                "field 'sender' is {sender}, not below n = {n}"
            )))
        }
    };
    let link = || -> Result<usize, ReproError> {
        let link = field_usize(doc, "link")?;
        if (1..=n).contains(&link) {
            Ok(link)
        } else {
            Err(bad(format!("field 'link' is {link}, not in 1..={n}")))
        }
    };
    match field_str(doc, "kind")? {
        "drop" => Ok(FaultEvent::Drop {
            sender: sender()?,
            link: link()?,
            round: round_field("round")?,
        }),
        "silence-link" => Ok(FaultEvent::SilenceLink {
            sender: sender()?,
            link: link()?,
            from: round_field("from")?,
        }),
        "crash" => Ok(FaultEvent::Crash {
            sender: sender()?,
            from: round_field("from")?,
        }),
        other => Err(bad(format!("unknown event kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use crate::oracle::standard_suite;

    fn sample_repro(seed: u64) -> Repro {
        Repro {
            campaign_seed: seed,
            run_index: 17,
            budget: BudgetRegime::OverBudget,
            backend: BackendChoice::Both,
            digest: "missed-termination".into(),
            schedule: generate_schedule(seed, BudgetRegime::OverBudget),
            metrics: None,
        }
    }

    #[test]
    fn repro_round_trips_through_json() {
        for seed in [0u64, 9, u64::MAX] {
            let repro = sample_repro(seed);
            let text = repro.to_json();
            assert_eq!(Repro::from_json(&text).unwrap(), repro, "{text}");
        }
    }

    #[test]
    fn metrics_round_trip_and_stay_optional() {
        let mut metrics = RunMetrics::default();
        metrics.push_round(RoundMetrics {
            messages_correct: 42,
            messages_faulty: 6,
            bits_correct: 1344,
            max_message_bits: 64,
        });
        metrics.push_round(RoundMetrics::default());
        let repro = Repro {
            metrics: Some(metrics),
            ..sample_repro(3)
        };
        let text = repro.to_json();
        assert!(text.contains("\"messages_correct\": 42"), "{text}");
        let reread = Repro::from_json(&text).unwrap();
        assert_eq!(reread, repro);
        assert_eq!(reread.metrics.as_ref().unwrap().rounds_executed(), 2);
        // Files from builds that predate the field still parse.
        let without = sample_repro(3).to_json();
        assert_eq!(Repro::from_json(&without).unwrap().metrics, None);
    }

    #[test]
    fn schedules_with_every_event_kind_round_trip() {
        let mut schedule = generate_schedule(1, BudgetRegime::AtBudget);
        schedule.events = opr_transport::FaultPlan::default()
            .drop_message(0, opr_types::LinkId::new(2), opr_types::Round::new(3))
            .silence_link_from(1, opr_types::LinkId::new(1), opr_types::Round::new(2))
            .crash_from(2, opr_types::Round::new(1))
            .events();
        schedule.payload_cap = Some(1 << 20);
        let json = schedule_to_json(&schedule);
        assert_eq!(schedule_from_json(&json).unwrap(), schedule);
    }

    #[test]
    fn replay_is_deterministic() {
        let repro = Repro {
            digest: String::new(),
            ..sample_repro(23)
        };
        let oracles = standard_suite();
        let first = repro.replay(&oracles);
        let second = repro.replay(&oracles);
        assert_eq!(first.digest(), second.digest());
    }

    #[test]
    fn bad_files_are_rejected_with_reasons() {
        for (text, needle) in [
            ("{", "json error"),
            (r#"{"version": 99}"#, "version"),
            (
                r#"{"version": 1, "campaign_seed": 0, "run_index": 0,
                   "budget": "sideways", "backend": "sim", "digest": "x",
                   "schedule": {}}"#,
                "budget",
            ),
        ] {
            let err = Repro::from_json(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        // Schedules no run can replay are rejected at the file boundary,
        // each with the field that makes them so: more Byzantine processes
        // than processes (the run would ask for `n - byzantine` correct
        // ids), a system too large to allocate or with no correct process,
        // and fault events naming a sender, link or round that does not
        // exist (which used to panic or be silently ignored).
        let mut hostile = sample_repro(23);
        hostile.schedule.byzantine = hostile.schedule.n + 1;
        let err = Repro::from_json(&hostile.to_json()).unwrap_err();
        assert!(err.to_string().contains("byzantine exceeds n"), "{err}");
        type Edit = fn(&mut ChaosSchedule);
        let base = generate_schedule(1, BudgetRegime::AtBudget);
        let n = base.n;
        let cases: [(Edit, String); 8] = [
            (
                |s| s.n = 3_000_000_000,
                "field 'n' exceeds 1024 (3000000000)".to_string(),
            ),
            (|s| s.n = 0, "fields 'n', 't'".to_string()),
            (|s| s.t = s.n, "fields 'n', 't'".to_string()),
            (
                |s| s.events = vec![FaultEvent::Crash { sender: 0, from: 0 }],
                "event 0: field 'from' is not a 1-based round".to_string(),
            ),
            (
                |s| {
                    s.events = vec![FaultEvent::Drop {
                        sender: 0,
                        link: 1,
                        round: 0,
                    }]
                },
                "event 0: field 'round' is not a 1-based round".to_string(),
            ),
            (
                |s| {
                    s.events = vec![FaultEvent::Crash {
                        sender: 999,
                        from: 1,
                    }]
                },
                format!("event 0: field 'sender' is 999, not below n = {n}"),
            ),
            (
                |s| {
                    s.events = vec![
                        FaultEvent::Crash { sender: 0, from: 1 },
                        FaultEvent::SilenceLink {
                            sender: 0,
                            link: 999,
                            from: 1,
                        },
                    ]
                },
                format!("event 1: field 'link' is 999, not in 1..={n}"),
            ),
            (
                |s| {
                    s.events = vec![FaultEvent::Drop {
                        sender: 0,
                        link: 0,
                        round: 1,
                    }]
                },
                format!("event 0: field 'link' is 0, not in 1..={n}"),
            ),
        ];
        for (edit, needle) in cases {
            let mut schedule = base.clone();
            edit(&mut schedule);
            let err = schedule_from_json(&schedule_to_json(&schedule)).unwrap_err();
            assert!(err.to_string().contains(&needle), "{err} lacks {needle}");
        }
        // The largest system any test runs is still accepted.
        let mut largest = base;
        (largest.n, largest.t) = (MAX_REPRO_N, 300);
        assert_eq!(schedule_from_json(&schedule_to_json(&largest)), Ok(largest));
        // An otherwise valid file carrying a retired backend label is a typed
        // error, not a panic or alias.
        let text = sample_repro(23).to_json();
        for label in ["threaded", "all", "auto"] {
            let stale = text.replace(r#""backend": "both""#, &format!(r#""backend": "{label}""#));
            assert_ne!(stale, text);
            let err = Repro::from_json(&stale).unwrap_err();
            assert!(err.to_string().contains("unknown backend label"), "{err}");
        }
    }
}
